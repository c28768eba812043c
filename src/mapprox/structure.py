"""Finite mappings: a finite domain, one unary function, unary predicates.

Elements are 0..n-1.  The function is stored as a tuple ``f`` with
``f[v] = image of v``; predicates ("marks") are frozensets of elements.  All
derived notions (Gaifman distance, balls, components, the cyclic part) treat
the structure as the undirected functional graph with edges v -- f(v).

Structures are immutable; every operation returns a new mapping.  Equality is
identity (structures are compared through their derived invariants, not field
by field), which also lets type tables cache per-structure computations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicatePredicate,
    ElementOutOfRange,
    EmptyDomain,
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
    "cycle_lengths",
    "disjoint_union",
    "restrict",
    "mark_element",
    "residualize",
    "cycle_cut_product",
]


@dataclass(frozen=True)
class Signature:
    """Predicate names, in declaration order.  The function symbol is implicit."""

    predicates: tuple[str, ...] = ()

    def __post_init__(self):
        seen = set()
        for name in self.predicates:
            if name in seen:
                raise DuplicatePredicate(name)
            seen.add(name)

    def require(self, name: str) -> None:
        if name not in self.predicates:
            raise UnknownPredicate(name)


@dataclass(frozen=True, eq=False)
class FiniteMapping:
    """An endofunction on 0..n-1 together with unary predicate extensions."""

    f: tuple[int, ...]
    marks: Mapping[str, frozenset[int]] = field(default_factory=dict)
    signature: Signature = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.f)
        if n == 0:
            raise EmptyDomain("a mapping needs at least one element")
        for v, w in enumerate(self.f):
            if not isinstance(w, int) or not 0 <= w < n:
                raise OutOfRangeImage(v, w, n)
        marks = {name: frozenset(elems) for name, elems in self.marks.items()}
        object.__setattr__(self, "marks", marks)
        if self.signature is None:
            object.__setattr__(self, "signature", Signature(tuple(sorted(marks))))
        for name in marks:
            self.signature.require(name)
        for name in self.signature.predicates:
            marks.setdefault(name, frozenset())
        for name, elems in marks.items():
            for v in elems:
                if not 0 <= v < n:
                    raise ElementOutOfRange(v, n)

    @property
    def n(self) -> int:
        return len(self.f)

    def elements(self) -> range:
        return range(len(self.f))

    def check_element(self, v: int) -> None:
        if not 0 <= v < len(self.f):
            raise ElementOutOfRange(v, len(self.f))

    @cached_property
    def mark_sets(self) -> tuple[frozenset[str], ...]:
        """The set of predicate names holding at each element, indexed by
        element.  Built once by one pass over each predicate's extension;
        elements with equal marks share one frozenset."""
        names: list[tuple[str, ...]] = [()] * len(self.f)
        for name in self.signature.predicates:
            for v in self.marks[name]:
                names[v] += (name,)
        shared: dict[tuple[str, ...], frozenset[str]] = {}
        sets = []
        for key in names:
            found = shared.get(key)
            if found is None:
                found = shared[key] = frozenset(key)
            sets.append(found)
        return tuple(sets)

    def marks_of(self, v: int) -> frozenset[str]:
        self.check_element(v)
        return self.mark_sets[v]

    def mark_vector(self, v: int) -> tuple[bool, ...]:
        return tuple(v in self.marks[name] for name in self.signature.predicates)

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
    error for any violation.
    """
    f = tuple(raw.get("f", ()))
    predicates = raw.get("predicates")
    marks = {name: frozenset(elems) for name, elems in raw.get("marks", {}).items()}
    if predicates is None:
        signature = None
    else:
        signature = Signature(tuple(predicates))
        for name in marks:
            signature.require(name)
    return FiniteMapping(f=f, marks=marks, signature=signature)


def preimage(F: FiniteMapping, v: int) -> tuple[int, ...]:
    F.check_element(v)
    return tuple(u for u in F.elements() if F.f[u] == v)


def _preimage_table(F: FiniteMapping) -> list[list[int]]:
    table: list[list[int]] = [[] for _ in F.elements()]
    for u, w in enumerate(F.f):
        table[w].append(u)
    return table


def neighbors(F: FiniteMapping, v: int, pre: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Gaifman neighbors of v: its image and its preimages, excluding v itself."""
    out = set(pre[v] if pre is not None else preimage(F, v))
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
    pre = _preimage_table(F)
    seen = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in neighbors(F, x, pre):
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
    pre = _preimage_table(F)
    seen = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in neighbors(F, x, pre):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def connected_components(F: FiniteMapping) -> list[frozenset[int]]:
    """Components of the Gaifman graph, each reported sorted by least element."""
    pre = _preimage_table(F)
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
            for y in neighbors(F, x, pre):
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
    n = F.n
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    cyclic = [False] * n
    for start in F.elements():
        if color[start]:
            continue
        path = []
        x = start
        while color[x] == 0:
            color[x] = 1
            path.append(x)
            x = F.f[x]
        if color[x] == 1:  # found a new cycle: the tail of `path` from x
            for y in path[path.index(x):]:
                cyclic[y] = True
        for y in path:
            color[y] = 2
    Z = frozenset(v for v in F.elements() if cyclic[v])
    heights = {v: 0 for v in Z}
    pre = _preimage_table(F)
    queue = deque(sorted(Z))
    while queue:
        x = queue.popleft()
        for y in pre[x]:
            if y not in heights:
                heights[y] = heights[x] + 1
                queue.append(y)
    return Z, heights


def cycle_lengths(F: FiniteMapping) -> list[int]:
    """Lengths of all cycles, sorted ascending (fixed points count as length 1)."""
    Z, _ = cyclic_part(F)
    seen = set()
    lengths = []
    for v in sorted(Z):
        if v in seen:
            continue
        length = 0
        x = v
        while x not in seen:
            seen.add(x)
            x = F.f[x]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def disjoint_union(A: FiniteMapping, B: FiniteMapping) -> FiniteMapping:
    """A followed by B with B's elements shifted by |A|; signatures must agree."""
    if not A.same_signature(B):
        raise SignatureMismatch(
            f"cannot union {A.signature.predicates} with {B.signature.predicates}"
        )
    shift = A.n
    f = A.f + tuple(w + shift for w in B.f)
    marks = {
        name: A.marks[name] | frozenset(v + shift for v in B.marks[name])
        for name in A.signature.predicates
    }
    return FiniteMapping(f=f, marks=marks, signature=A.signature)


def restrict(F: FiniteMapping, X: Iterable[int]) -> FiniteMapping:
    """Induced substructure on X, re-indexed ascending.

    Where the image leaves X the function is redirected to the element itself,
    so the result is again a total mapping.
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
    marks = {
        name: frozenset(index[v] for v in F.marks[name] if v in index)
        for name in F.signature.predicates
    }
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


def _strip_predicates(F: FiniteMapping, names: Iterable[str]) -> FiniteMapping:
    drop = set(names)
    keep = tuple(p for p in F.signature.predicates if p not in drop)
    marks = {p: F.marks[p] for p in keep}
    return FiniteMapping(f=F.f, marks=marks, signature=Signature(keep))


# ---------------------------------------------------------------------------
# residualization


def _strict_iterated_preimages(F: FiniteMapping, pre) -> list[set[int]]:
    """E(u): elements with some forward iterate equal to u, u itself excluded."""
    out: list[set[int]] = []
    for u in F.elements():
        seen: set[int] = set()
        queue = deque(pre[u])
        while queue:
            x = queue.popleft()
            if x in seen:
                continue
            seen.add(x)
            queue.extend(pre[x])
        seen.discard(u)
        out.append(seen)
    return out


def residualize(F: FiniteMapping, eps) -> tuple[FiniteMapping, "object"]:
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

    Returns the residual mapping together with the recovery interpretation
    (identity on original predicates, cut predicates dropped) which restores
    the input exactly.
    """
    from fractions import Fraction

    from . import logic

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
    Z, _ = cyclic_part(F)
    for comp in connected_components(F):
        if len(comp) <= threshold:
            continue
        cycle = sorted(v for v in comp if v in Z)
        v = cycle[0]
        if F.f[v] != v:
            cut([v], F.f[v])

    # Repeatedly cut below elements with oversized iterated preimage sets.
    while True:
        current = FiniteMapping(f=tuple(f), marks={}, signature=Signature())
        pre = _preimage_table(current)
        big = _strict_iterated_preimages(current, pre)
        candidate = None
        for u in current.elements():
            if len(big[u]) <= threshold:
                continue
            if all(len(big[x]) <= threshold for x in pre[u] if x != u):
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

    recovery = logic.recovery_interpretation(F.signature.predicates, pairs)
    return F1, recovery


# ---------------------------------------------------------------------------
# cycle-lengthening product


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
    output cycle is shorter than m.
    """
    from . import localtypes

    if m < 2:
        raise ValueError("cycle length m must be at least 2")
    if type_rank < 0:
        raise ValueError("type rank must be nonnegative")

    types = [localtypes.local_type(F, v, type_rank, table=table) for v in F.elements()]
    order: dict[object, int] = {}
    for t in types:
        if t.key not in order:
            order[t.key] = len(order)

    Z, _ = cyclic_part(F)
    cycle_len: dict[int, int] = {}
    for v in sorted(Z):
        if v in cycle_len:
            continue
        orbit = [v]
        x = F.f[v]
        while x != v:
            orbit.append(x)
            x = F.f[x]
        for y in orbit:
            cycle_len[y] = len(orbit)

    def type_name(t, v: int) -> str:
        base = f"T{order[t.key]}"
        length = cycle_len.get(v)
        if length is not None and length <= type_rank + 1:
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
        u_name = f"U{i}"
        if u_name in F.signature.predicates:
            raise DuplicatePredicate(u_name)
        marks[u_name] = {x * m + i for x in range(n)}
    for x in F.elements():
        t_name = names[x]
        if t_name in F.signature.predicates:
            raise DuplicatePredicate(t_name)
        marks.setdefault(t_name, set()).update(x * m + i for i in range(m))

    t_names = sorted(
        {name for name in marks if name not in F.signature.predicates and not name.startswith("U")},
        key=lambda s: int(s[1:].split("_")[0]),
    )
    signature = Signature(
        F.signature.predicates
        + tuple(f"U{i}" for i in range(m))
        + tuple(t_names)
    )
    return FiniteMapping(
        f=f,
        marks={k: frozenset(v) for k, v in marks.items()},
        signature=signature,
    )
