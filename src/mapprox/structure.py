"""Finite mappings: a finite domain, one unary function, unary predicates.

Elements are 0..n-1.  The function is stored as a tuple ``f`` with
``f[v] = image of v``; predicates ("marks") are frozensets of elements, and
the marks of each element are a sorted tuple of names (``mark_sets``).  All
derived notions (Gaifman distance, balls, components, the cyclic part) treat
the structure as the undirected functional graph with edges v -- f(v), and
read the preimage table each structure builds once (``FiniteMapping.pre``).
Cycles are found by one walk per structure, into the cycle table every
reader of cycles reads (``FiniteMapping.cycle_table``).  The in-trees
hanging off the cycles are walked once per structure too, into the
top-down order and component roots every reader of in-trees reads
(``FiniteMapping.forest``): components, heights, residualization and
compression.

Structures are immutable; every operation returns a new mapping.  Equality is
identity (structures are compared through their derived invariants, not field
by field), which also lets type tables cache per-structure computations.

Residualization cuts oversized components and records every cut with a pair
of fresh predicates; `recover` undoes the cuts from those predicates alone.
It makes its cuts in one pass from the leaves up, once each oversized
component's cycle is opened.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice
from operator import add
from typing import Collection, Iterable, Mapping, Optional, Sequence

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
    "near",
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
        given = {name: frozenset(elems) for name, elems in self.marks.items()}
        _check_domain(self.f, given)
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
        their tuples are equal.  Built once by one pass over each non-empty
        extension, picked in C (a witness declares hundreds of predicates
        and holds a few); elements with equal marks share one tuple.
        A tuple, not a frozenset like the extensions, because the type
        kernel keeps these in its values, which the garbage collector must
        not have to scan."""
        names: list[tuple[str, ...]] = [()] * len(self.f)
        for name, elems in compress(self.marks.items(), self.marks.values()):
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

    @cached_property
    def forest(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, root): every element top-down, the cycles as
        `cycle_table` lists them and then each listed element's non-cycle
        preimages in `pre` order, so that f(y) comes before each y off a
        cycle; and the least cycle element of each element's component.
        Built once per structure by one walk down the in-trees; kept apart
        from `cycle_table`, which the type kernel reads alone."""
        orbits, on_cycle = self.cycle_table
        pre, f = self.pre, self.f
        order = [z for orbit in orbits for z in orbit]
        root = [0] * len(f)
        for orbit in orbits:
            for z in orbit:
                root[z] = orbit[0]
        cyclic = len(order)
        for y in order:  # grows as it is read
            order.extend(x for x in pre[y] if not on_cycle[x])
        for y in islice(order, cyclic, None):
            root[y] = root[f[y]]
        return tuple(order), tuple(root)

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


def _check_domain(f: Sequence[int], marks: Mapping[str, Collection[int]]) -> None:
    """Raise what keeps images f and `marks` from being a mapping on
    0..len(f)-1, as `FiniteMapping` does: EmptyDomain, then OutOfRangeImage
    for the first image that is no element, then ElementOutOfRange for the
    first member that is no int, else for the least member outside the
    domain of the first mark that holds one."""
    n = len(f)
    if n == 0:
        raise EmptyDomain("a mapping needs at least one element")
    if not {*map(type, f)} <= {int} or min(f) < 0 or max(f) >= n:
        v = next(v for v, w in enumerate(f) if type(w) is not int or not 0 <= w < n)
        raise OutOfRangeImage(v, f[v], n)
    # Only an int is an element: a bool or float member would be written
    # out as JSON true or 0.0, which no reader takes back.  One pass over
    # all members: a measure file's witnesses hold many small marks.
    if not {*map(type, chain.from_iterable(marks.values()))} <= {int}:
        members = chain.from_iterable(marks.values())
        raise ElementOutOfRange(next(v for v in members if type(v) is not int), n)
    for elems in marks.values():
        if elems and (min(elems) < 0 or max(elems) >= n):
            raise ElementOutOfRange(
                next(v for v in sorted(elems) if not 0 <= v < n), n
            )


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
    return near(F, (v,), r)


def near(F: FiniteMapping, seeds: Iterable[int], r: int) -> frozenset[int]:
    """Elements at Gaifman distance at most r from some seed: one
    breadth-first search from all seeds at once, not one per seed."""
    seen = set(seeds)
    for v in seen:
        F.check_element(v)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    f, pre = F.f, F.pre
    frontier = list(seen)
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
    """Components of the Gaifman graph, ordered by least element: the
    elements grouped by the root `FiniteMapping.forest` gives them."""
    groups: dict[int, list[int]] = {}
    for v, z in enumerate(F.forest[1]):
        groups.setdefault(z, []).append(v)
    return list(map(frozenset, groups.values()))


def cyclic_part(F: FiniteMapping) -> tuple[frozenset[int], dict[int, int]]:
    """The set Z of cyclic elements and the height of every element.

    An element is cyclic iff some forward iterate returns to it.  The height
    of x is its tree distance to Z (0 exactly on Z), one more than f(x)'s
    off Z: one pass down `FiniteMapping.forest`'s order.
    """
    Z = frozenset(v for orbit in F.cycle_table[0] for v in orbit)
    heights = dict.fromkeys(Z, 0)
    f = F.f
    for y in islice(F.forest[0], len(Z), None):
        heights[y] = heights[f[y]] + 1
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
    return _side_by_side([(B.f, B.marks) for B in (first, *rest)], first.signature)


def _side_by_side(parts, signature: Signature) -> FiniteMapping:
    """The mapping of (f, marks) parts side by side, each part's elements
    shifted by the sizes of the parts before it."""
    f: list[int] = []
    marks: dict[str, list[int]] = {}
    for images, extensions in parts:
        shift = len(f)
        f += [w + shift for w in images]
        for name, elems in extensions.items():
            marks.setdefault(name, []).extend([v + shift for v in elems])
    return FiniteMapping(f=tuple(f), marks=marks, signature=signature)


def _tile(G: FiniteMapping, host: int, size: int, copies: int) -> FiniteMapping:
    """G's first `host` elements followed by `copies` copies of its block
    host .. host + size - 1, the first copy being the block itself.

    An image inside the block moves with its copy, and an image into the
    host is kept: the block must have no image in G's later elements.  The
    result's mark_sets are seeded from G's, so copies share G's tuples."""
    f = G.f
    block = list(f[host:host + size])
    step = [size if host <= w else 0 for w in block]
    images = [f[:host], block]
    for _ in range(copies - 1):
        images.append(list(map(add, images[-1], step)))
    marks = {}
    for name, elems in compress(G.marks.items(), G.marks.values()):
        inside = [v for v in elems if host <= v < host + size]
        marks[name] = [v for v in elems if v < host] + [
            v + k * size for k in range(copies) for v in inside
        ]
    tiled = FiniteMapping(
        f=tuple(chain.from_iterable(images)), marks=marks, signature=G.signature
    )
    sets = G.mark_sets
    tiled.__dict__["mark_sets"] = sets[:host] + sets[host:host + size] * copies
    return tiled


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


def residualize(F: FiniteMapping, eps) -> tuple[FiniteMapping, list[tuple[str, str]]]:
    """Cut every oversized component into pieces of at most ceil(eps*n)+1 elements.

    Two kinds of cut, both recorded with fresh predicate pairs (A_k, B_k) so
    the original function is definable from the output:

    * each oversized component whose cycle is non-trivial is opened at its
      lowest-id cycle vertex v: mark v with A_k, mark f(v) with B_k, set
      f(v) := v;
    * then, in one pass from the leaves up, every u whose in-tree, after the
      cuts below it, holds more than eps*n elements besides u is cut below:
      every direct preimage w != u is marked A_j and redirected to itself,
      and u is marked B_j.  Fixed points are skipped as sources: their
      image is unchanged, so no record is needed.

    Returns the residual mapping together with the cut pairs, in cut order;
    recover(residual, pairs) restores the input exactly.

    The pass makes the cuts of the loop it replaced (tests/oracles.py),
    which recounted after every cut and cut below the lowest-id candidate:
    a u with more than eps*n strict iterated preimages none of whose
    direct preimages w != u has that many.  No candidate is an ancestor of
    another (the preimage on the path between them would have too many),
    and a cut below u lowers counts only, at u and its forward iterates.
    So a cut leaves every other candidate a candidate, two cuts commute,
    and every run of candidate cuts until none is left makes the same cuts
    in some order.  The pass is such a run: it reaches u with every cut
    below u made, so size[u] - 1 is u's count and its children are within
    the bound, and it leaves every count within the bound.

    Only the numbering can differ from the loop's: pairs are numbered in
    pass order.  Renaming fresh pairs is a bijection on predicate names,
    which leaves every type partition unchanged, and with it every
    canonical id (first appearance by element), the cut product's T marks,
    realize's blocks, recover's targets and the output; `cut_pairs` lists
    the same names.
    """
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

    # Open every oversized component at its least cycle element, its
    # root; counted in element order, the roots come by least element.
    for v, count in Counter(F.forest[1]).items():
        if count > threshold and F.f[v] != v:
            cut([v], F.f[v])

    # Sized bottom-up over the opened structure, children first.  size[y]
    # counts y's in-tree after the cuts below y.
    opened = FiniteMapping(f=tuple(f), marks={}, signature=Signature())
    on_cycle, pre = opened.cycle_length, opened.pre
    size = [1] * n
    for y in reversed(opened.forest[0]):
        if size[y] - 1 > threshold:
            cut([x for x in pre[y] if not on_cycle[x]], y)
            size[y] = 1
        if not on_cycle[y]:
            size[opened.f[y]] += size[y]

    signature = Signature(
        F.signature.predicates + tuple(name for pair in pairs for name in pair)
    )
    marks = dict(F.marks)
    for name, elems in new_marks.items():
        marks[name] = frozenset(elems)
    F1 = FiniteMapping(f=tuple(f), marks=marks, signature=signature)

    for count in Counter(F1.forest[1]).values():
        if count > math.ceil(threshold) + 1:
            raise NotResidual(
                f"internal error: component of size {count} remains after cuts"
            )

    return F1, pairs


def recover(F: FiniteMapping, pairs: Sequence[tuple[str, str]]) -> FiniteMapping:
    """Undo residual cuts in linear time: every element marked A_k points at
    the unique B_k element, everything else keeps its image, and the cut
    predicates are dropped.  The same map as evaluating the oracle
    tests/oracles.py:recovery_interpretation on F, which raises the same
    error when some A_k is non-empty and B_k does not hold exactly one
    element.
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


def layer_mark(j: int) -> str:
    """U<j>, the mark cycle_cut_product gives layer j of a product."""
    return f"U{j}"


def layer_index(name: str) -> Optional[int]:
    """j when `name` is the layer mark U<j>, j written as layer_mark writes
    it, else None."""
    matched = re.fullmatch(r"U(0|[1-9][0-9]*)", name)
    return int(matched[1]) if matched else None


def _check_cut(F: FiniteMapping, m: int, type_rank: int) -> None:
    """The checks cycle_cut_product(F, m, type_rank) makes before it plays
    any game: m and the type rank in range, the product within
    MAX_PRODUCT_SIZE, and no input predicate named like a mark it adds."""
    if m < 2:
        raise ValueError("cycle length m must be at least 2")
    if type_rank < 0:
        raise ValueError("type rank must be nonnegative")
    if F.n * m > MAX_PRODUCT_SIZE:
        raise BudgetExceeded(MAX_PRODUCT_SIZE, F.n * m)
    clashes = [name for name in map(layer_mark, range(m)) if name in F.marks]
    clashes += filter(TYPE_MARK.fullmatch, F.signature.predicates)
    if clashes:
        raise DuplicatePredicate(clashes[0])


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

    _check_cut(F, m, type_rank)
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
        marks[layer_mark(i)] = {x * m + i for x in range(n)}
    for x in F.elements():
        marks.setdefault(names[x], set()).update(x * m + i for i in range(m))

    # T indices number types by first appearance, and a type fixes its
    # cycle class, so names in first-appearance order are in index order.
    signature = Signature(
        F.signature.predicates
        + tuple(map(layer_mark, range(m)))
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
    while layer_mark(m) in marks:
        m += 1
    n = F.n
    if m < 2 or n % m:
        return 0
    layers = {layer_mark(j): j for j in range(m)}
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
