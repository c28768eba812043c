"""Finite mappings: a finite domain, one unary function, unary predicates.

Elements are 0..n-1.  The function is stored as a tuple ``f`` with
``f[v] = image of v``; predicates ("marks") are frozensets of elements, and
the marks of each element are a sorted tuple of names (``mark_sets``).  All
derived notions (Gaifman distance, balls, components, the cyclic part) treat
the structure as the undirected functional graph with edges v -- f(v), and
read the preimage table each structure builds once (``FiniteMapping.pre``).
Cycles are found by one walk per structure, into the cycle table every
reader of cycles reads (``FiniteMapping.cycle_table``).

Structures are immutable; every operation returns a new mapping.  Equality is
identity (structures are compared through their derived invariants, not field
by field), which also lets type tables cache per-structure computations.

Residualization cuts oversized components and records every cut with a pair
of fresh predicates; `recover` undoes the cuts from those predicates alone.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    DuplicatePredicate,
    ElementOutOfRange,
    EmptyDomain,
    EtaNotFunctional,
    NotResidual,
    OutOfRangeImage,
    SignatureMismatch,
    UnknownPredicate,
)

__all__ = [
    "Signature",
    "FiniteMapping",
    "validate",
    "preimage",
    "distance",
    "ball",
    "connected_components",
    "cyclic_part",
    "cycle_orbits",
    "cycle_lengths",
    "disjoint_union",
    "restrict",
    "mark_element",
    "residualize",
    "recover",
    "cycle_cut_product",
    "cut_product_layers",
]


@dataclass(frozen=True)
class Signature:
    """Predicate names, in declaration order.  The function symbol is implicit."""

    predicates: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.predicates)) < len(self.predicates):
            seen = set()
            for name in self.predicates:
                if name in seen:
                    raise DuplicatePredicate(name)
                seen.add(name)


@dataclass(frozen=True, eq=False)
class FiniteMapping:
    """An endofunction on 0..n-1 together with unary predicate extensions.

    `marks` may name only declared predicates; the constructor stores every
    declared predicate, in signature order, those not given as empty."""

    f: tuple[int, ...]
    marks: Mapping[str, frozenset[int]] = field(default_factory=dict)
    signature: Signature = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.f)
        if n == 0:
            raise EmptyDomain("a mapping needs at least one element")
        for v, w in enumerate(self.f):
            if type(w) is not int or not 0 <= w < n:
                raise OutOfRangeImage(v, w, n)
        given = {name: frozenset(elems) for name, elems in self.marks.items()}
        if self.signature is None:
            object.__setattr__(self, "signature", Signature(tuple(sorted(given))))
        # Linear in the given marks plus one C-level pass over the names, not
        # a scan of the names per mark: a witness cut from a cut product
        # declares hundreds of predicates and holds a few of them.
        predicates = self.signature.predicates
        marks = dict.fromkeys(predicates, frozenset())
        marks.update(given)
        if len(marks) != len(predicates):
            undeclared = next(name for name in given if name not in predicates)
            raise UnknownPredicate(undeclared)
        object.__setattr__(self, "marks", marks)
        for elems in given.values():
            if elems and (min(elems) < 0 or max(elems) >= n):
                raise ElementOutOfRange(
                    next(v for v in sorted(elems) if not 0 <= v < n), n
                )

    @property
    def n(self) -> int:
        return len(self.f)

    def elements(self) -> range:
        return range(len(self.f))

    def check_element(self, v: int) -> None:
        if not 0 <= v < len(self.f):
            raise ElementOutOfRange(v, len(self.f))

    @cached_property
    def mark_sets(self) -> tuple[tuple[str, ...], ...]:
        """The predicate names holding at each element as a sorted tuple,
        indexed by element: two elements carry the same marks exactly when
        their tuples are equal.  Built once by one pass over each
        predicate's extension; elements with equal marks share one tuple.
        A tuple, not a frozenset like the extensions, because the type
        kernel keeps these in its values, which the garbage collector must
        not have to scan."""
        names: list[tuple[str, ...]] = [()] * len(self.f)
        for name, elems in self.marks.items():  # in signature order
            for v in elems:
                names[v] += (name,)
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        sets = []
        for key in names:
            found = shared.get(key)
            if found is None:
                found = shared[key] = tuple(sorted(key))
            sets.append(found)
        return tuple(sets)

    @cached_property
    def pre(self) -> tuple[tuple[int, ...], ...]:
        """The preimages of each element, ascending, indexed by element.
        Built once per structure by one pass over f."""
        table: list[list[int]] = [[] for _ in self.f]
        for u, w in enumerate(self.f):
            table[w].append(u)
        return tuple(map(tuple, table))

    @cached_property
    def cycle_table(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(orbits, lengths): the cycles as `cycle_orbits` lists them, and
        the length of each element's cycle, 0 off every cycle.  Built once
        per structure by one walk forward from each unvisited element."""
        f = self.f
        length = [0] * len(f)
        state = [0] * len(f)  # 0 unvisited, 1 on the current path, 2 done
        orbits = []
        for start in range(len(f)):
            path = []
            x = start
            while state[x] == 0:
                state[x] = 1
                path.append(x)
                x = f[x]
            if state[x] == 1:  # the path closed a new cycle through x
                orbit = path[path.index(x):]
                for y in orbit:
                    length[y] = len(orbit)
                least = orbit.index(min(orbit))
                orbits.append(tuple(orbit[least:] + orbit[:least]))
            for y in path:
                state[y] = 2
        orbits.sort()
        return tuple(orbits), tuple(length)

    @property
    def cycle_length(self) -> tuple[int, ...]:
        """The length of each element's cycle, 0 off every cycle."""
        return self.cycle_table[1]

    def marks_of(self, v: int) -> frozenset[str]:
        self.check_element(v)
        return frozenset(self.mark_sets[v])

    def same_signature(self, other: "FiniteMapping") -> bool:
        return self.signature.predicates == other.signature.predicates

    def iterate(self, v: int, k: int) -> int:
        """f^k(v)."""
        self.check_element(v)
        for _ in range(k):
            v = self.f[v]
        return v

    def __repr__(self):
        return f"FiniteMapping(n={self.n}, predicates={self.signature.predicates})"


def validate(raw: Mapping) -> FiniteMapping:
    """Build a mapping from a raw description, rejecting malformed input.

    Expected keys: ``f`` (list of images), optional ``predicates`` (names) and
    ``marks`` (name -> list of elements).  Raises the specific structural
    error for any violation; only an int is an element, so a bool image or
    mark member is rejected.
    """
    f = tuple(raw.get("f", ()))
    predicates = raw.get("predicates")
    marks = {name: tuple(elems) for name, elems in raw.get("marks", {}).items()}
    for elems in marks.values():
        for v in elems:
            if type(v) is not int:
                raise ElementOutOfRange(v, len(f))
    signature = None if predicates is None else Signature(tuple(predicates))
    return FiniteMapping(f=f, marks=marks, signature=signature)


def preimage(F: FiniteMapping, v: int) -> tuple[int, ...]:
    F.check_element(v)
    return F.pre[v]


def neighbors(F: FiniteMapping, v: int) -> list[int]:
    """Gaifman neighbors of v: its image and its preimages, excluding v itself."""
    out = set(F.pre[v])
    out.add(F.f[v])
    out.discard(v)
    return sorted(out)


def distance(F: FiniteMapping, u: int, v: int) -> int | float:
    """Gaifman distance: min{a+b : f^a(u) = f^b(v)}, or math.inf.

    Computed by breadth-first search over the undirected functional graph;
    the two characterizations agree on mappings.
    """
    F.check_element(u)
    F.check_element(v)
    if u == v:
        return 0
    f, pre = F.f, F.pre
    seen = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in (f[x], *pre[x]):
            if y not in seen:
                seen[y] = seen[x] + 1
                if y == v:
                    return seen[y]
                queue.append(y)
    return math.inf


def ball(F: FiniteMapping, v: int, r: int) -> frozenset[int]:
    """Elements at Gaifman distance at most r from v."""
    F.check_element(v)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    f, pre = F.f, F.pre
    seen = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in (f[x], *pre[x]):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def connected_components(F: FiniteMapping) -> list[frozenset[int]]:
    """Components of the Gaifman graph, each reported sorted by least element."""
    f, pre = F.f, F.pre
    seen = [False] * F.n
    components = []
    for start in F.elements():
        if seen[start]:
            continue
        comp = []
        seen[start] = True
        queue = deque([start])
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in (f[x], *pre[x]):
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        components.append(frozenset(comp))
    components.sort(key=min)
    return components


def cyclic_part(F: FiniteMapping) -> tuple[frozenset[int], dict[int, int]]:
    """The set Z of cyclic elements and the height of every element.

    An element is cyclic iff some forward iterate returns to it.  The height
    of x is its tree distance to Z (0 exactly on Z).
    """
    Z = frozenset(v for orbit in F.cycle_table[0] for v in orbit)
    heights = {v: 0 for v in Z}
    pre = F.pre
    queue = deque(sorted(Z))
    while queue:
        x = queue.popleft()
        for y in pre[x]:
            if y not in heights:
                heights[y] = heights[x] + 1
                queue.append(y)
    return Z, heights


def cycle_orbits(F: FiniteMapping) -> list[tuple[int, ...]]:
    """Every cycle as its orbit under f, starting from its least element;
    cycles ordered by least element (fixed points are orbits of length 1)."""
    return list(F.cycle_table[0])


def cycle_lengths(F: FiniteMapping) -> list[int]:
    """Lengths of all cycles, sorted ascending (fixed points count as length 1)."""
    return sorted(map(len, F.cycle_table[0]))


def disjoint_union(first: FiniteMapping, *rest: FiniteMapping) -> FiniteMapping:
    """The structures side by side, each one's elements shifted by the sizes
    of those before it; signatures must agree."""
    for B in rest:
        if not first.same_signature(B):
            raise SignatureMismatch(
                f"cannot union {first.signature.predicates} with {B.signature.predicates}"
            )
    f = list(first.f)
    marks = {name: set(elems) for name, elems in first.marks.items()}
    for B in rest:
        shift = len(f)
        f.extend(w + shift for w in B.f)
        for name, elems in B.marks.items():
            marks[name].update(v + shift for v in elems)
    return FiniteMapping(f=tuple(f), marks=marks, signature=first.signature)


def restrict(F: FiniteMapping, X: Iterable[int]) -> FiniteMapping:
    """Induced substructure on X, re-indexed ascending.

    Where the image leaves X the function is redirected to the element itself,
    so the result is again a total mapping.  Marks are read off the kept
    elements' mark sets, so the cost is linear in the kept elements and
    their marks, not in the extensions of F's predicates.
    """
    keep = sorted(set(X))
    if not keep:
        raise EmptyDomain("cannot restrict to the empty set")
    for v in keep:
        F.check_element(v)
    index = {v: i for i, v in enumerate(keep)}
    f = tuple(
        index[F.f[v]] if F.f[v] in index else index[v]
        for v in keep
    )
    marks: dict[str, list[int]] = {}
    mark_sets = F.mark_sets
    for i, v in enumerate(keep):
        for name in mark_sets[v]:
            marks.setdefault(name, []).append(i)
    return FiniteMapping(f=f, marks=marks, signature=F.signature)


def mark_element(F: FiniteMapping, name: str, elements: Iterable[int]) -> FiniteMapping:
    """Declare a new predicate `name` whose extension is the given elements."""
    elems = frozenset(elements)
    for v in elems:
        F.check_element(v)
    if name in F.signature.predicates:
        raise DuplicatePredicate(name)
    signature = Signature(F.signature.predicates + (name,))
    marks = dict(F.marks)
    marks[name] = elems
    return FiniteMapping(f=F.f, marks=marks, signature=signature)


# ---------------------------------------------------------------------------
# residualization


def _strict_preimage_counts(F: FiniteMapping) -> list[int]:
    """|E(u)| for every u, where E(u) holds the elements with some forward
    iterate equal to u, u itself excluded.  One bottom-up pass sums every
    tree into its root, peeling elements whose preimages are all peeled;
    on a cycle, E(u) is the rest of u's component."""
    f, pre = F.f, F.pre
    size = [1] * F.n  # elements of the in-tree, the element itself included
    waiting = [len(p) for p in pre]
    ready = [u for u in F.elements() if not waiting[u]]
    while ready:
        x = ready.pop()
        y = f[x]
        size[y] += size[x]
        waiting[y] -= 1
        if not waiting[y]:
            ready.append(y)
    counts = [s - 1 for s in size]
    for orbit in cycle_orbits(F):
        component = sum(size[z] for z in orbit)
        for z in orbit:
            counts[z] = component - 1
    return counts


def residualize(F: FiniteMapping, eps) -> tuple[FiniteMapping, list[tuple[str, str]]]:
    """Cut every oversized component into pieces of at most ceil(eps*n)+1 elements.

    Two kinds of cut, both recorded with fresh predicate pairs (A_k, B_k) so
    the original function is definable from the output:

    * each oversized component whose cycle is non-trivial is opened at its
      lowest-id cycle vertex v: mark v with A_k, mark f(v) with B_k, set
      f(v) := v;
    * then, while some u has more than eps*n strict iterated preimages but
      each of its direct preimages other than u itself does not, every direct
      preimage w != u is marked A_j and redirected to itself, and u is marked
      B_j.  Fixed points are skipped as sources: their image is unchanged, so
      no record is needed.

    Returns the residual mapping together with the cut pairs, in cut order;
    recover(residual, pairs) restores the input exactly.
    """
    from fractions import Fraction

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = F.n
    threshold = eps * n

    existing = set(F.signature.predicates)
    next_index = 1

    def fresh_pair() -> tuple[str, str]:
        nonlocal next_index
        while True:
            a, b = f"A{next_index}", f"B{next_index}"
            next_index += 1
            if a not in existing and b not in existing:
                existing.add(a)
                existing.add(b)
                return a, b

    f = list(F.f)
    new_marks: dict[str, set[int]] = {}
    pairs: list[tuple[str, str]] = []

    def cut(sources: list[int], target: int) -> None:
        a, b = fresh_pair()
        pairs.append((a, b))
        new_marks[a] = set(sources)
        new_marks[b] = {target}
        for w in sources:
            f[w] = w

    # Open every oversized component at a non-trivial cycle.
    length = F.cycle_length
    for comp in connected_components(F):
        if len(comp) <= threshold:
            continue
        v = min(x for x in comp if length[x])
        if F.f[v] != v:
            cut([v], F.f[v])

    # Repeatedly cut below elements with oversized iterated preimage sets.
    while True:
        current = FiniteMapping(f=tuple(f), marks={}, signature=Signature())
        pre = current.pre
        big = _strict_preimage_counts(current)
        candidate = None
        for u in current.elements():
            if big[u] <= threshold:
                continue
            if all(big[x] <= threshold for x in pre[u] if x != u):
                candidate = u
                break
        if candidate is None:
            break
        cut(sorted(w for w in pre[candidate] if w != candidate), candidate)

    signature = Signature(
        F.signature.predicates + tuple(name for pair in pairs for name in pair)
    )
    marks = dict(F.marks)
    for name, elems in new_marks.items():
        marks[name] = frozenset(elems)
    F1 = FiniteMapping(f=tuple(f), marks=marks, signature=signature)

    for comp in connected_components(F1):
        if len(comp) > math.ceil(threshold) + 1:
            raise NotResidual(
                f"internal error: component of size {len(comp)} remains after cuts"
            )

    return F1, pairs


def recover(F: FiniteMapping, pairs: Sequence[tuple[str, str]]) -> FiniteMapping:
    """Undo residual cuts in linear time: every element marked A_k points at
    the unique B_k element, everything else keeps its image, and the cut
    predicates are dropped.  The same map as evaluating
    logic.recovery_interpretation on F, which raises the same error when
    some A_k is non-empty and B_k does not hold exactly one element.
    """
    target_of: dict[int, int] = {}
    redirect: dict[int, int] = {}
    for index, (a_name, b_name) in enumerate(pairs):
        sources = sorted(F.marks[a_name])
        if not sources:
            continue
        targets = sorted(F.marks[b_name])
        if len(targets) != 1:
            raise EtaNotFunctional(sources[0], tuple(targets))
        for v in sources:
            if v in redirect:
                raise EtaNotFunctional(
                    v, tuple(sorted({target_of[redirect[v]], targets[0]}))
                )
            redirect[v] = index
        target_of[index] = targets[0]
    f = tuple(
        target_of[redirect[v]] if v in redirect else F.f[v] for v in F.elements()
    )
    dropped = {name for pair in pairs for name in pair}
    kept = tuple(name for name in F.signature.predicates if name not in dropped)
    return FiniteMapping(
        f=f,
        marks={name: F.marks[name] for name in kept},
        signature=Signature(kept),
    )


# ---------------------------------------------------------------------------
# cycle-lengthening product


# Largest product cycle_cut_product builds.
MAX_PRODUCT_SIZE = 2_000_000

# The type marks cycle_cut_product adds, T<k>_cyc<l> and T<k>_acyc, with l
# as group 1; rewire reads them back.  An input predicate of this form is
# rejected, so every such name on a cut product is one the cut added.
TYPE_MARK = re.compile(r"T\d+_(?:cyc(\d+)|acyc)\Z")


def cycle_cut_product(
    F: FiniteMapping, m: int, type_rank: int, table=None
) -> FiniteMapping:
    """Product with a directed m-cycle, tagged with layer and type predicates.

    Domain F x {0..m-1} with f(x, i) = (f(x), i+1 mod m); element (x, i) gets
    the layer mark U_i and the mark T_k... recording the rank-`type_rank`
    local type of x in F.  Type predicate names carry the witness cycle class
    (``_cyc<l>`` when the type forces membership in an l-cycle with
    l <= type_rank + 1, ``_acyc`` otherwise) so that rewiring stays sound for
    structures loaded from files.

    Every cycle of the output has length a multiple of m (hence >= m), and no
    output cycle is shorter than m.  A product of more than MAX_PRODUCT_SIZE
    elements raises BudgetExceeded before any type is computed.

    The types of the input are computed in `table`, or the global one.  An
    input predicate named like a layer mark U0..U{m-1} or like a type mark
    (TYPE_MARK) raises DuplicatePredicate before any type is computed.  So
    the output passes cut_product_layers, and a type table may play its
    root games in layer 0 only; and rewire reads every type mark as one
    this cut added.
    """
    from . import localtypes

    if m < 2:
        raise ValueError("cycle length m must be at least 2")
    if type_rank < 0:
        raise ValueError("type rank must be nonnegative")
    if F.n * m > MAX_PRODUCT_SIZE:
        raise BudgetExceeded(MAX_PRODUCT_SIZE, F.n * m)
    clashes = [f"U{i}" for i in range(m) if f"U{i}" in F.marks]
    clashes += filter(TYPE_MARK.fullmatch, F.signature.predicates)
    if clashes:
        raise DuplicatePredicate(clashes[0])

    types = [localtypes.local_type(F, v, type_rank, table=table) for v in F.elements()]
    order: dict[object, int] = {}
    for t in types:
        if t.key not in order:
            order[t.key] = len(order)

    def type_name(t, v: int) -> str:
        base = f"T{order[t.key]}"
        length = F.cycle_length[v]
        if 0 < length <= type_rank + 1:
            return f"{base}_cyc{length}"
        return f"{base}_acyc"

    names = [type_name(types[v], v) for v in F.elements()]

    n = F.n
    # Element (x, i) is numbered x*m + i.
    f = tuple(F.f[x] * m + ((i + 1) % m) for x in F.elements() for i in range(m))
    marks: dict[str, set[int]] = {}
    for name in F.signature.predicates:
        marks[name] = {x * m + i for x in F.marks[name] for i in range(m)}
    for i in range(m):
        marks[f"U{i}"] = {x * m + i for x in range(n)}
    for x in F.elements():
        marks.setdefault(names[x], set()).update(x * m + i for i in range(m))

    # T indices number types by first appearance, and a type fixes its
    # cycle class, so names in first-appearance order are in index order.
    signature = Signature(
        F.signature.predicates
        + tuple(f"U{i}" for i in range(m))
        + tuple(dict.fromkeys(names))
    )
    return FiniteMapping(
        f=f,
        marks={k: frozenset(v) for k, v in marks.items()},
        signature=signature,
    )


def cut_product_layers(F: FiniteMapping) -> int:
    """The m for which F is an m-layer cut product, or 0 if it is not one.

    m is the largest with U0..U{m-1} declared, and must be at least 2.  F
    is a product when m divides n, element v carries exactly the layer mark
    U_{v mod m}, f(x*m + i) = g(x)*m + (i + 1 mod m) for one g(x), and every
    other mark holds on all of a block x*m .. x*m + m - 1 or on none of it.
    Then shifting every element by s layers, with U_j renamed U_{j+s mod m},
    maps F onto itself, as it does for the output of cycle_cut_product, and
    a type table plays F's root games in layer 0 only.  Two lookups when
    F lacks U0 or U1, else at most one pass over f and the marks.
    """
    marks = F.marks
    m = 0
    while f"U{m}" in marks:
        m += 1
    n = F.n
    if m < 2 or n % m:
        return 0
    layers = {f"U{j}": j for j in range(m)}
    f = F.f
    for start in range(0, n, m):
        # g(x)*m for the block x*m = start, from the image of its layer 0.
        base = f[start] - 1
        if base % m or any(f[start + i] != base + (i + 1) % m for i in range(m)):
            return 0
    for name, elems in marks.items():
        j = layers.get(name)
        if j is not None:
            if len(elems) != n // m or any(v % m != j for v in elems):
                return 0
            continue
        per_block: dict[int, int] = {}
        for v in elems:
            per_block[v // m] = per_block.get(v // m, 0) + 1
        if any(count != m for count in per_block.values()):
            return 0
    return m
