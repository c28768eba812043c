"""Independent oracles: direct game searches and brute-force distances.

Everything here is deliberately naive and shares no code with the package
internals, so the fast implementations can be cross-checked against it on
small inputs.  The exceptions are realize_two_pass, realize's earlier
assignment loop kept as the reference for its block-by-block rewrite: it
reads types through the package's projection, transport and capacity;
the structure JSON writer and reader as they were before witnesses were
written straight from the ball, which build and read structures through
the package's `restrict`, `Signature` and `FiniteMapping`; the measure
and certificate readers as they were before a file's witnesses were read
into one union per predicate tuple, which build one `FiniteMapping` per
witness and type each root there through the package's `local_type` and
read rationals with its `fraction_from_text`; and the
certificate solver and label check as they were before each support type
was derived once per measure, which read the package's balance equations
and types and keep their own Fraction sums and per-element image types; and
compression as it was before it ran in one pass, which repeats a pass of
exact-count sibling classes and nested component forms until a pass drops
nothing, and reads the package's cycle table, heights and `restrict`; the
pipeline's output as it was built before it was tiled from its witness,
through the package's `merge` and `recover`; the map writer as it was
before it worked in chunks, one string per record; residualization as it
was before it cut in one pass, which recounts with
`strict_iterated_preimages` after every cut and reads the package's cycle
table; components and heights as they were before they read the
structure's forest, by the package's `near` search from each element and
a breadth-first search up from the cycle table's cycles; and the
interpretation that defines `recover`'s map by formulas, built from the
package's formula classes for its `apply_interpretation`; and the
distances' classification as it was before each tuple was played in one
ordering, which plays every ordering of every tuple, far pairs included,
on the package's TypeTable and keys it by the package's atom rows.
"""

import functools
import math
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, product

from mapprox.errors import FormatError, RankTooLow, Stuck
from mapprox.fmtp import CompanionCertificate, Violation, _balance_equations
from mapprox.localtypes import (
    TypeMeasure,
    TypeTable,
    adm_minus,
    adm_minus_table,
    atom_row,
    local_type,
    project,
    transport,
)
from mapprox.logic import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Interpretation,
    Not,
    Or,
    Pred,
    Term,
)
from mapprox.mapfile import _NAME, MAP_VERSION, fraction_from_text
from mapprox.realize import merge
from mapprox.structure import near as search_near
from mapprox.structure import (
    FiniteMapping,
    Signature,
    ball,
    cycle_lengths,
    cycle_orbits,
    recover,
    restrict,
)

__all__ = [
    "local_game",
    "global_game",
    "global_tuple_game",
    "brute_ldist",
    "brute_fo_dist",
    "every_ordering_ldist",
    "every_ordering_fo_dist",
    "proximity",
    "near",
    "tuple_histograms",
    "tv",
    "random_clean_formula",
    "residualize_until_stable",
    "components_by_search",
    "cyclic_part_by_bfs",
    "recovery_interpretation",
    "restrict_by_scan",
    "pairwise_measure_tv",
    "column_rank",
    "brute_feasible_point",
    "realize_two_pass",
    "closed_cycle_lengths",
    "cut_length_by_divisors",
    "least_divisor_cut",
    "cut_length_by_scan",
    "least_cut_by_scan",
    "atom_row_scan",
    "twin_moves_from_scratch",
    "hintikka_formula",
    "structure_to_json_by_extensions",
    "type_to_json_by_restrict",
    "structure_from_json_per_predicate",
    "measure_from_json_per_witness",
    "certificate_from_json_per_witness",
    "solve_certificate_by_fractions",
    "verify_upsilon_per_element",
    "compress_until_stable",
    "output_by_merge",
    "dump_map_by_rows",
]


def _atoms_match(F1, t1, F2, t2) -> bool:
    if len(t1) != len(t2):
        return False
    for i in range(len(t1)):
        if F1.marks_of(t1[i]) != F2.marks_of(t2[i]):
            return False
        for j in range(len(t1)):
            if (t1[i] == t1[j]) != (t2[i] == t2[j]):
                return False
            if (F1.f[t1[i]] == t1[j]) != (F2.f[t2[i]] == t2[j]):
                return False
    return True


def _adjacent(F: FiniteMapping, v: int) -> set:
    out = {F.f[v]}
    out.update(u for u in range(F.n) if F.f[u] == v)
    out.discard(v)
    return out


def _local_moves(F: FiniteMapping, tup) -> set:
    moves: set = set()
    for v in tup:
        moves |= _adjacent(F, v)
    return moves


def _game(F1, t1, F2, t2, k, moves, memo) -> bool:
    if not _atoms_match(F1, t1, F2, t2):
        return False
    if k == 0:
        return True
    key = (t1, t2, k)
    found = memo.get(key)
    if found is not None:
        return found
    ok = True
    moves1, moves2 = moves(F1, t1), moves(F2, t2)
    for u in moves1:
        if not any(_game(F1, t1 + (u,), F2, t2 + (w,), k - 1, moves, memo) for w in moves2):
            ok = False
            break
    if ok:
        for w in moves2:
            if not any(_game(F1, t1 + (u,), F2, t2 + (w,), k - 1, moves, memo) for u in moves1):
                ok = False
                break
    memo[key] = ok
    return ok


def local_game(F1, t1, F2, t2, k) -> bool:
    """Duplicator wins the k-round local game from the placed tuples."""
    return _game(F1, tuple(t1), F2, tuple(t2), k, _local_moves, {})


def global_game(A: FiniteMapping, B: FiniteMapping, r: int) -> bool:
    """Duplicator wins the r-round unrestricted game from empty boards."""
    return global_tuple_game(A, (), B, (), r)


def global_tuple_game(F1, t1, F2, t2, k) -> bool:
    """Duplicator wins the k-round unrestricted game from the placed tuples:
    every move may pick any element of the domain."""
    return _game(F1, tuple(t1), F2, tuple(t2), k, lambda F, tup: set(range(F.n)), {})


def tv(a: dict, b: dict) -> Fraction:
    keys = set(a) | set(b)
    gap = sum(
        (abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    )
    return gap / 2


def tuple_histograms(structures, p, r, game=local_game) -> list:
    """Class histograms of all p-tuples of each structure under `game`
    (the local game by default), classes shared across all the structures."""
    reps: list = []

    def class_of(F, tup) -> int:
        for index, (G, rep) in enumerate(reps):
            if game(F, tup, G, rep, r):
                return index
        reps.append((F, tup))
        return len(reps) - 1

    histograms = []
    for F in structures:
        counts: dict[int, int] = {}
        for tup in product(range(F.n), repeat=p):
            c = class_of(F, tup)
            counts[c] = counts.get(c, 0) + 1
        total = F.n**p
        histograms.append({c: Fraction(v, total) for c, v in counts.items()})
    return histograms


def brute_ldist(A, B, p, r) -> Fraction:
    ha, hb = tuple_histograms((A, B), p, r)
    return tv(ha, hb)


def brute_fo_dist(A, B, p, r) -> Fraction:
    """1 when a sentence of rank <= r separates A from B; otherwise the TV
    distance between the global-game class histograms of p-tuples."""
    if not global_game(A, B, r):
        return Fraction(1)
    ha, hb = tuple_histograms((A, B), p, r, global_tuple_game)
    return tv(ha, hb)


def _every_ordering_tv(A, B, p, value) -> Fraction:
    """TV distance between the class histograms of all p-tuples of A and of
    B, each tuple keyed by the atom rows of its proper prefixes and its own
    game value `value(F, tup)`: every ordering of every tuple is played."""
    histograms = []
    for F in (A, B):
        counts = Counter(
            (tuple(atom_row(F.f, F.mark_sets, tup[:i]) for i in range(1, p)), value(F, tup))
            for tup in product(range(F.n), repeat=p)
        )
        histograms.append({key: Fraction(c, F.n**p) for key, c in counts.items()})
    return tv(*histograms)


def every_ordering_ldist(A, B, p, r) -> Fraction:
    """ldist_p^r with every p-tuple played in the package's local game, far
    and reordered tuples included, in one fresh TypeTable and no budget."""
    table = TypeTable()
    return _every_ordering_tv(A, B, p, lambda F, tup: table.nv_value(F, tup, r))


def every_ordering_fo_dist(A, B, p, r) -> Fraction:
    """dist_p^r with every p-tuple played in the package's whole-domain
    game, in one fresh TypeTable and no budget: 1 when the sentence values
    differ."""
    table = TypeTable()
    if table.global_value(A, (), r, None) != table.global_value(B, (), r, None):
        return Fraction(1)
    return _every_ordering_tv(A, B, p, lambda F, tup: table.global_value(F, tup, r, None))


def proximity(F: FiniteMapping, radius: int) -> Fraction:
    """Share of ordered element pairs at Gaifman distance at most radius,
    by breadth-first search from every element."""
    adjacent: list[set] = [set() for _ in range(F.n)]
    for v in range(F.n):
        if F.f[v] != v:
            adjacent[v].add(F.f[v])
            adjacent[F.f[v]].add(v)
    total = 0
    for v in range(F.n):
        depth = {v: 0}
        queue = [v]
        for x in queue:
            if depth[x] < radius:
                for y in adjacent[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        queue.append(y)
        total += len(depth)
    return Fraction(total, F.n * F.n)


def near(F: FiniteMapping, seeds, radius: int) -> frozenset:
    """Elements within Gaifman distance radius of some seed: each of
    radius passes over the edges v -- f(v) lowers either end's distance to
    one more than the other's."""
    depth = [radius + 1] * F.n
    for s in seeds:
        depth[s] = 0
    for _ in range(radius):
        for v in range(F.n):
            w = F.f[v]
            depth[v] = min(depth[v], depth[w] + 1)
            depth[w] = min(depth[w], depth[v] + 1)
    return frozenset(v for v in range(F.n) if depth[v] <= radius)


def random_clean_formula(rng, predicates, free_vars, depth):
    """A random clean formula over the given free variables; quantifiers
    are always guarded by an in-scope variable, so the local rank is at
    most `depth`."""
    scope = list(free_vars)

    def atom(in_scope):
        kind = rng.randrange(3 if predicates else 2)
        if kind == 0:
            return Eq(Term(rng.choice(in_scope)), Term(rng.choice(in_scope)))
        if kind == 1:
            return Eq(Term(rng.choice(in_scope), 1), Term(rng.choice(in_scope)))
        return Pred(rng.choice(predicates), Term(rng.choice(in_scope)))

    def build(in_scope, budget):
        if budget == 0 or rng.random() < 0.3:
            return atom(in_scope)
        kind = rng.randrange(6)
        if kind == 0:
            return Not(build(in_scope, budget - 1))
        if kind <= 3:
            node = (And, Or, Implies)[kind - 1]
            return node(build(in_scope, budget - 1), build(in_scope, budget - 1))
        fresh = f"y{len(in_scope)}_{rng.randrange(1000)}"
        guard = Term(rng.choice(in_scope))
        body = build(in_scope + [fresh], budget - 1)
        node = Exists if kind == 4 else Forall
        return node(fresh, guard, body)

    # free variables must all occur: conjoin a tautology mentioning each
    phi = build(scope, depth)
    for name in scope:
        phi = And(phi, Eq(Term(name), Term(name)))
    return phi


def hintikka_formula(value_of, predicates, nv, m=1):
    """The clean guarded formula of the game value `nv` of a tuple
    x1..xm, true of a tuple exactly when the tuple has that value (the
    Ehrenfeucht-Fraisse theorem; Hintikka formulas as in Libkin, Elements
    of Finite Model Theory, ch. 3).  `value_of(nv)` gives (rank, atom row,
    kid values), the row as (marks, fixed, first equal index, first image
    index, preimage bitmask) over the earlier elements.  The formula is the
    conjunction of the row's atoms, each one or its negation; for each kid,
    some x_i has a neighbour y with the kid's formula; and for each i, every
    neighbour y of x_i is some x_j or has some kid's formula.  Its local
    rank is at most the value's rank."""
    _, row, kids = value_of(nv)
    names, fixed, eq, img, pre = row
    x = Term(f"x{m}")
    earlier = [Term(f"x{j}") for j in range(1, m)]
    parts = [
        Pred(name, x) if name in names else Not(Pred(name, x)) for name in predicates
    ]
    loop = Eq(Term(x.var, 1), x)
    parts.append(loop if fixed else Not(loop))
    # The first equal and first image index fix the atoms with every
    # earlier element: those past the first follow from the earlier rows.
    for j, xj in enumerate(earlier):
        if eq is None or j <= eq:
            same = Eq(x, xj)
            parts.append(same if j == eq else Not(same))
        if img is None or j <= img:
            image = Eq(Term(x.var, 1), xj)
            parts.append(image if j == img else Not(image))
        preimage = Eq(Term(xj.var, 1), x)
        parts.append(preimage if pre >> j & 1 else Not(preimage))
    if kids is not None:
        y = f"x{m + 1}"
        placed = earlier + [x]
        kid_formulas = [hintikka_formula(value_of, predicates, c, m + 1) for c in kids]
        for phi in kid_formulas:
            parts.append(_any(Exists(y, xi, phi) for xi in placed))
        for xi in placed:
            known = [Eq(Term(y), xj) for xj in placed]
            parts.append(Forall(y, xi, _any(known + kid_formulas)))
    phi = parts[0]
    for part in parts[1:]:
        phi = And(phi, part)
    return phi


def _any(formulas):
    formulas = list(formulas)
    phi = formulas[0]
    for other in formulas[1:]:
        phi = Or(phi, other)
    return phi


def atom_row_scan(f, marks, tup):
    """The atoms the last element of `tup` adds over the earlier ones, by
    generator scans: its marks, self-loop flag, first coincidence index,
    image index, and the preimage indices among the earlier elements as a
    bitmask.  None for the empty tuple.  The type kernel's atom row before
    it scanned tuples with `in` and `index`."""
    if not tup:
        return None
    x = tup[-1]
    last = len(tup) - 1
    eq = next((j for j in range(last) if tup[j] == x), None)
    fx = f[x]
    img = next((j for j in range(last) if tup[j] == fx), None)
    pre = sum(1 << j for j in range(last) if f[tup[j]] == x)
    return (marks[x], fx == x, eq, img, pre)


def twin_moves_from_scratch(F: FiniteMapping, x: int, d: int) -> tuple:
    """The type kernel's move entry for x with d rounds left once a
    neighbor is placed, (singles, twin classes), as each table built it for
    itself before the entries were shared per structure, but from scratch
    on every call.  A twin class holds two or more preimages of x off every
    cycle with the same marks and in-trees equal to depth d, each in-tree
    coded as the nested tuple of its marks and its children's sorted codes;
    classes come in order of first preimage, grouped by marks first, and
    the singles are the other preimages followed by f(x)."""
    f, n = F.f, F.n
    pre = [[u for u in range(n) if f[u] == v] for v in range(n)]
    marks = [tuple(sorted(name for name, ext in F.marks.items() if v in ext)) for v in range(n)]

    def on_cycle(y):
        z = f[y]
        for _ in range(n):
            if z == y:
                return True
            z = f[z]
        return False

    def code(y, depth):
        kids = tuple(sorted(code(c, depth - 1) for c in pre[y])) if depth else ()
        return marks[y], kids

    by_marks: dict = {}
    for y in pre[x]:
        by_marks.setdefault(marks[y], []).append(y)
    twins = []
    for group in by_marks.values():
        classes: dict = {}
        for y in group:
            if not on_cycle(y):
                classes.setdefault(code(y, d), []).append(y)
        twins += [tuple(c) for c in classes.values() if len(c) > 1]
    paired = {y for members in twins for y in members}
    singles = tuple(y for y in pre[x] if y not in paired) + (f[x],)
    return singles, tuple(twins)


class UnprunedValues:
    """The type kernel's interning game with every fresh neighbor explored:
    the value of a placed tuple is its last element's atoms plus the set of
    values of its one-element extensions at one rank lower.  Values are
    interned in this object only; `positions` counts the memo entries
    (placed tuple, rank) the game visited in one structure."""

    def __init__(self):
        self._interned: dict = {}
        self._memos: dict = {}

    def _memo(self, F: FiniteMapping):
        entry = self._memos.get(id(F))
        if entry is None:
            pre: list = [[] for _ in range(F.n)]
            for u in range(F.n):
                pre[F.f[u]].append(u)
            entry = self._memos[id(F)] = (F, pre, {})
        return entry

    def value(self, F: FiniteMapping, tup, k: int) -> int:
        _, pre, memo = self._memo(F)
        return self._value(F, pre, memo, tuple(tup), k)

    def positions(self, F: FiniteMapping) -> int:
        return len(self._memo(F)[2])

    def _value(self, F, pre, memo, tup, k) -> int:
        found = memo.get((tup, k))
        if found is not None:
            return found
        f, x, last = F.f, tup[-1], len(tup) - 1
        row = (
            F.marks_of(x),
            f[x] == x,
            next((j for j in range(last) if tup[j] == x), None),
            next((j for j in range(last) if tup[j] == f[x]), None),
            frozenset(j for j in range(last) if f[tup[j]] == x),
        )
        kids = None
        if k > 0:
            ext: set = set()
            for a in tup:
                ext.add(f[a])
                ext.update(pre[a])
            ext -= set(tup)
            kids = frozenset(self._value(F, pre, memo, tup + (y,), k - 1) for y in ext)
        value = self._interned.setdefault((k, row, kids), len(self._interned))
        memo[(tup, k)] = value
        return value


def strict_iterated_preimages(F: FiniteMapping) -> list:
    """E(u) for every u: the elements with some forward iterate equal to u,
    u itself excluded, by one breadth-first search per element."""
    pre: list = [[] for _ in range(F.n)]
    for u in range(F.n):
        pre[F.f[u]].append(u)
    out = []
    for u in range(F.n):
        seen: set = set()
        queue = list(pre[u])
        for x in queue:
            if x not in seen:
                seen.add(x)
                queue.extend(pre[x])
        seen.discard(u)
        out.append(seen)
    return out


def components_by_search(F: FiniteMapping) -> list:
    """`connected_components` by one search with the package's `near` from
    each element no earlier component holds, ordered by least element."""
    seen = [False] * F.n
    components = []
    for v in range(F.n):
        if not seen[v]:
            components.append(search_near(F, (v,), F.n))
            for x in components[-1]:
                seen[x] = True
    return components


def cyclic_part_by_bfs(F: FiniteMapping) -> tuple:
    """`cyclic_part` by breadth-first search up the preimages from the
    cycle table's cycles."""
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


def recovery_interpretation(pairs) -> Interpretation:
    """Interpretation undoing residual cuts: elements marked A_k regain the
    B_k element as image, everything else keeps f; cut predicates dropped.
    structure.recover computes the same map in linear time."""
    x1, x2 = Term("x1"), Term("x2")
    keep: Formula = Eq(Term("x1", 1), x2)
    if not pairs:
        return Interpretation(eta=keep)
    any_cut: Formula = Pred(pairs[0][0], x1)
    for a, _ in pairs[1:]:
        any_cut = Or(any_cut, Pred(a, x1))
    eta: Formula = And(keep, Not(any_cut))
    for a, b in pairs:
        eta = Or(eta, And(Pred(a, x1), Pred(b, x2)))
    dropped = frozenset(name for pair in pairs for name in pair)
    return Interpretation(eta=eta, kappa={}, dropped=dropped)


def residualize_until_stable(F: FiniteMapping, eps):
    """`residualize` as a loop: open each oversized component at its
    lowest-id cycle vertex, then, recounting every element's strict
    iterated preimages after each cut, cut below the lowest-id u with more
    than eps*n of them none of whose direct preimages w != u has that many,
    until no such u is left.  Pairs are numbered in cut order."""
    eps = Fraction(eps)
    threshold = eps * F.n
    existing = set(F.signature.predicates)
    f = list(F.f)
    new_marks: dict = {}
    pairs: list = []
    index = 1

    def cut(sources, target):
        nonlocal index
        while f"A{index}" in existing or f"B{index}" in existing:
            index += 1
        a, b = f"A{index}", f"B{index}"
        index += 1
        pairs.append((a, b))
        new_marks[a] = frozenset(sources)
        new_marks[b] = frozenset({target})
        for w in sources:
            f[w] = w

    length = F.cycle_length
    for comp in components_by_search(F):
        if len(comp) > threshold:
            v = min(x for x in comp if length[x])
            if F.f[v] != v:
                cut([v], F.f[v])

    while True:
        current = FiniteMapping(f=tuple(f))
        pre = current.pre
        big = [len(e) for e in strict_iterated_preimages(current)]
        candidate = next(
            (
                u
                for u in range(F.n)
                if big[u] > threshold
                and all(big[x] <= threshold for x in pre[u] if x != u)
            ),
            None,
        )
        if candidate is None:
            break
        cut(sorted(w for w in pre[candidate] if w != candidate), candidate)

    signature = Signature(
        F.signature.predicates + tuple(name for pair in pairs for name in pair)
    )
    marks = {**F.marks, **new_marks}
    return FiniteMapping(f=tuple(f), marks=marks, signature=signature), pairs


def restrict_by_scan(F: FiniteMapping, X) -> FiniteMapping:
    """Induced substructure on X, re-indexed ascending, images leaving X
    redirected to the element itself, with every predicate's extension
    scanned for kept elements."""
    keep = sorted(set(X))
    index = {v: i for i, v in enumerate(keep)}
    f = tuple(index[F.f[v]] if F.f[v] in index else index[v] for v in keep)
    marks = {
        name: frozenset(index[v] for v in F.marks[name] if v in index)
        for name in F.signature.predicates
    }
    return FiniteMapping(f=f, marks=marks, signature=F.signature)


def pairwise_measure_tv(a, b) -> Fraction:
    """Total variation between two same-rank type measures, matching each
    entry of `a` against the entries of `b` one pair at a time: an entry u
    of b matches t when u's witness has t's value in t's table."""
    diff = Fraction(0)
    matched: set = set()
    for t, mass in a.entries:
        other = Fraction(0)
        for j, (u, mass_b) in enumerate(b.entries):
            if j in matched:
                continue
            if t.nv == t.table.nv_value(u.structure, (u.element,), u.rank):
                other = mass_b
                matched.add(j)
                break
        diff += abs(mass - other)
    for j, (_, mass_b) in enumerate(b.entries):
        if j not in matched:
            diff += mass_b
    return diff / 2


def _row_reduce(matrix) -> tuple[list, list]:
    """Reduced row echelon form of a list of rows over Fractions, and the
    pivot column of each nonzero row."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots: list = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        at = len(pivots)
        found = next((i for i in range(at, len(rows)) if rows[i][col] != 0), None)
        if found is None:
            continue
        rows[at], rows[found] = rows[found], rows[at]
        lead = rows[at][col]
        rows[at] = [v / lead for v in rows[at]]
        for i in range(len(rows)):
            if i != at and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[at])]
        pivots.append(col)
    return rows, pivots


def column_rank(rows, columns) -> int:
    """Rank of the given columns of the matrix `rows`."""
    return len(_row_reduce([[row[j] for j in columns] for row in rows])[1])


def brute_feasible_point(rows, num_vars):
    """A point of {x >= 0 : A x = b}, rows given as (coefficients, b), or
    None when the set is empty.  The set is nonempty exactly when some
    linearly independent columns solve A x = b with x >= 0 (a basic
    feasible solution), so every such column set is tried, smallest first,
    and each is solved by exact elimination."""
    A = [list(coeffs) for coeffs, _ in rows]
    b = [rhs for _, rhs in rows]
    for size in range(min(len(rows), num_vars) + 1):
        for columns in combinations(range(num_vars), size):
            if column_rank(A, columns) < size:
                continue
            reduced, pivots = _row_reduce(
                [[row[j] for j in columns] + [rhs] for row, rhs in zip(A, b)]
            )
            if size in pivots:  # b lies outside the columns' span
                continue
            x = [Fraction(0)] * num_vars
            for i, col in enumerate(pivots):
                x[columns[col]] = reduced[i][-1]
            if all(v >= 0 for v in x):
                return x
    return None


def _closes_short_cycle(g: list, i: int, j: int, cut: int) -> bool:
    """Would the edge i -> j close a cycle of length in (1, cut)?"""
    cur = j
    for steps in range(cut - 1):
        if cur == i:
            return steps > 0
        if g[cur] is None:
            return False
        cur = g[cur]
    return False


def closed_cycle_lengths(F: FiniteMapping, r: int) -> set[int]:
    """The cycle lengths l of F that the pipeline's rewire closes at rank
    r when the cut length allows: 2 <= l <= 2r + 2 and l | lcm(1..2r + 1).
    Each element's cycle is found by walking n steps forward, onto its
    cycle, and then once around it."""
    M = math.lcm(*range(1, 2 * r + 2))
    lengths = set()
    for v in range(F.n):
        x = v
        for _ in range(F.n):
            x = F.f[x]
        length, y = 1, F.f[x]
        while y != x:
            length, y = length + 1, F.f[y]
        lengths.add(length)
    return {l for l in lengths if 2 <= l <= 2 * r + 2 and M % l == 0}


def cut_length_by_divisors(F: FiniteMapping, r: int) -> int:
    """The cut length of the rule the pipeline used before it cut at the
    least multiple: with M = lcm(1..2r + 1), the least divisor d of M with
    d >= 2r + 3 that every length in closed_cycle_lengths(F, r) divides."""
    return least_divisor_cut(closed_cycle_lengths(F, r), r)


def least_divisor_cut(closed, r: int) -> int:
    """cut_length_by_divisors for the closed lengths `closed`: every one
    divides d exactly when their lcm does."""
    M, step = math.lcm(*range(1, 2 * r + 2)), math.lcm(*closed)
    return next(d for d in _divisors(M) if d >= 2 * r + 3 and d % step == 0)


@functools.cache
def _divisors(M: int) -> tuple[int, ...]:
    """The divisors of M, ascending."""
    return tuple(d for d in range(1, M + 1) if M % d == 0)


def cut_length_by_scan(F: FiniteMapping, r: int) -> int:
    """The pipeline's cut length at rank r for the residual F, from its
    definition: scan d upward from max(2r + 3, 6) and return the first d
    that every length in closed_cycle_lengths(F, r) divides."""
    return least_cut_by_scan(closed_cycle_lengths(F, r), r)


def least_cut_by_scan(closed, r: int) -> int:
    """cut_length_by_scan for the closed lengths `closed`."""
    d = max(2 * r + 3, 6)
    while any(d % l for l in closed):
        d += 1
    return d


def realize_two_pass(mu, r: int, multiplier: int = 1) -> FiniteMapping:
    """realize's assignment as it was before it went block by block: one
    label per element, one pool of elements per projected type, and two
    searches per image, the first over targets still short of the count
    their type promises, the second over the cap-typed targets that absorb
    the surplus.  Skips the precondition and post-verification checks and
    raises Stuck with realize's message where the greedy runs dry."""
    entries = mu.entries
    n_elements = multiplier * math.lcm(*(mass.denominator for _, mass in entries))
    cut = r + 2

    block_type: list = []
    block_range: list = []
    kind: list = []
    for index, (tau, mass) in enumerate(entries):
        count = int(n_elements * mass)
        block_type.append(tau)
        block_range.append(range(len(kind), len(kind) + count))
        kind.extend([index] * count)
    assert len(kind) == n_elements

    t1_obj = [project(tau, r) for tau, _ in entries]
    t2_key = [project(transport(tau), r).key for tau, _ in entries]
    fixed_point = []
    for tau, _ in entries:
        witness_structure, w = tau.witness
        fixed_point.append(witness_structure.f[w] == w)

    pools: dict = {}
    for j in range(n_elements):
        pools.setdefault(t1_obj[kind[j]].key, []).append(j)

    bucket_cache: dict = {}

    def buckets_for(source_kind: int) -> list:
        key = (t1_obj[source_kind].key, t2_key[source_kind])
        made = bucket_cache.get(key)
        if made is None:
            grouped: dict = {}
            for j in pools.get(t2_key[source_kind], ()):
                cap = adm_minus(block_type[kind[j]], t1_obj[source_kind])
                if cap > 0:
                    grouped.setdefault(cap, []).append(j)
            made = [[cap, grouped[cap], 0] for cap in sorted(grouped)]
            bucket_cache[key] = made
        return made

    g: list = [None] * n_elements
    counts: dict = {}

    for i in range(n_elements):
        source = kind[i]
        t1_key = t1_obj[source].key
        if fixed_point[source]:
            g[i] = i
            counts[(i, t1_key)] = counts.get((i, t1_key), 0) + 1
            continue
        chosen = None
        for entry in buckets_for(source):
            cap, members, head = entry
            need = cap if cap <= r else r
            while (
                head < len(members)
                and counts.get((members[head], t1_key), 0) >= need
            ):
                head += 1
            entry[2] = head
            for idx in range(head, len(members)):
                j = members[idx]
                if counts.get((j, t1_key), 0) >= need:
                    continue
                if j == i or _closes_short_cycle(g, i, j, cut):
                    continue
                chosen = j
                break
            if chosen is not None:
                break
        if chosen is None:
            for entry in buckets_for(source):
                cap, members, _ = entry
                if cap <= r:
                    continue
                for j in members:
                    if j == i or _closes_short_cycle(g, i, j, cut):
                        continue
                    chosen = j
                    break
                if chosen is not None:
                    break
        if chosen is None:
            pool = pools.get(t2_key[source], [])
            filled = sum(counts.get((j, t1_key), 0) for j in pool)
            raise Stuck(
                i,
                f"element of type id {block_type[source].canonical_id} needs an "
                f"image of projected type id {t1_obj[source].canonical_id}; its "
                f"target pool has {len(pool)} elements holding {filled} "
                f"assignments, and every remaining candidate is saturated or "
                f"would close a cycle shorter than {cut}; a larger multiplier "
                f"usually resolves the cycle guard",
            )
        g[i] = chosen
        counts[(chosen, t1_key)] = counts.get((chosen, t1_key), 0) + 1

    signature = entries[0][0].structure.signature
    marks: dict = {name: set() for name in signature.predicates}
    for index, (tau, _) in enumerate(entries):
        witness_structure, w = tau.witness
        for name in witness_structure.mark_sets[w]:
            marks[name].update(block_range[index])
    return FiniteMapping(
        f=tuple(g),
        marks={name: frozenset(v) for name, v in marks.items()},
        signature=signature,
    )


def structure_to_json_by_extensions(F: FiniteMapping) -> dict:
    """Structure JSON with one sorted member list per predicate, read off
    its extension, and a fresh empty list for each empty one."""
    return {
        "n": F.n,
        "predicates": list(F.signature.predicates),
        "f": list(F.f),
        "marks": {
            name: sorted(elems) if elems else [] for name, elems in F.marks.items()
        },
    }


def type_to_json_by_restrict(t) -> dict:
    """Type JSON whose witness is built as a structure by `restrict` on the
    sorted radius-(rank + 1) ball and then written out."""
    kept = sorted(ball(t.structure, t.element, t.rank + 1))
    return {
        "rank": t.rank,
        "root": kept.index(t.element),
        "witness": structure_to_json_by_extensions(restrict(t.structure, kept)),
    }


def _json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def structure_from_json_per_predicate(data) -> FiniteMapping:
    """Structure JSON read one predicate at a time, each value type-checked
    on its own, with a fresh Signature per call."""
    if not isinstance(data, dict):
        raise FormatError(f"expected a structure object, got {type(data).__name__}")
    try:
        predicates = tuple(data["predicates"])
        f = tuple(data["f"])
        raw_marks = data["marks"]
        marks = {}
        for name in predicates:
            elems = raw_marks[name]
            if elems != []:
                marks[name] = frozenset(elems)
        undeclared = sorted(set(raw_marks).difference(predicates))
    except (KeyError, TypeError) as failure:
        raise FormatError(f"malformed structure: {failure!r}") from None
    if undeclared:
        raise FormatError(f"marks name undeclared predicates {undeclared!r}")
    if "n" in data and not (_json_int(data["n"]) and data["n"] == len(f)):
        raise FormatError(f"n is {data['n']!r} but f has {len(f)} values")
    if not all(_json_int(w) for w in f):
        raise FormatError("function values must be integers")
    if not all(_json_int(v) for elems in marks.values() for v in elems):
        raise FormatError("mark members must be integers")
    return FiniteMapping(f=f, marks=marks, signature=Signature(predicates))


def _structure_per_witness(data, signatures: dict) -> FiniteMapping:
    """One witness read into its own FiniteMapping, the witnesses of one
    file sharing one Signature per predicate tuple through `signatures`."""
    if not isinstance(data, dict):
        raise FormatError(f"expected a structure object, got {type(data).__name__}")
    predicates, f, raw_marks = (data.get(key) for key in ("predicates", "f", "marks"))
    if not (type(predicates) is type(f) is list and isinstance(raw_marks, dict)):
        raise FormatError("structure predicates and f must be arrays, its marks an object")
    predicates, f = tuple(predicates), tuple(f)
    try:
        if raw_marks.keys() != set(predicates):
            missing = [name for name in predicates if name not in raw_marks]
            if missing:
                raise FormatError(f"malformed structure: {KeyError(missing[0])!r}")
            undeclared = sorted(raw_marks.keys() - set(predicates))
            raise FormatError(f"marks name undeclared predicates {undeclared!r}")
        values = raw_marks.values()
        marks = {name: frozenset(elems) for name, elems in raw_marks.items() if elems}
        arrays = {*map(type, values)} <= {list, tuple}
        if not arrays:
            list(map(frozenset, values))
    except TypeError as failure:
        raise FormatError(f"malformed structure: {failure!r}") from None
    if "n" in data and not (type(data["n"]) is int and data["n"] == len(f)):
        raise FormatError(f"n is {data['n']!r} but f has {len(f)} values")
    if not {*map(type, f)} <= {int}:
        raise FormatError("function values must be integers")
    if not {type(v) for elems in marks.values() for v in elems} <= {int}:
        raise FormatError("mark members must be integers")
    if not arrays:
        raise FormatError("mark member lists must be arrays")
    if predicates not in signatures:
        signatures[predicates] = Signature(predicates)
    return FiniteMapping(f=f, marks=marks, signature=signatures[predicates])


def _type_per_witness(data, table, signatures: dict):
    if not isinstance(data, dict):
        raise FormatError(f"expected a type object, got {type(data).__name__}")
    try:
        rank, root = data["rank"], data["root"]
        witness = data["witness"]
    except (KeyError, TypeError) as failure:
        raise FormatError(f"malformed type: {failure!r}") from None
    if type(rank) is not int or rank < 0:
        raise FormatError(f"bad type rank {rank!r}")
    if type(root) is not int:
        raise FormatError(f"bad type root {root!r}")
    witness = _structure_per_witness(witness, signatures)
    return local_type(witness, root, rank, table=table)


def measure_from_json_per_witness(data, table=None) -> TypeMeasure:
    """Measure JSON read one entry at a time, each witness into its own
    FiniteMapping and each root typed there."""
    if not isinstance(data, dict) or data.get("format") != "measure":
        raise FormatError("not a measure file")
    version = data.get("version")
    if type(version) is not int or version != 1:
        raise FormatError(f"unsupported measure version {version!r}")
    rank = data.get("rank")
    if type(rank) is not int or rank < 0:
        raise FormatError(f"bad measure rank {rank!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise FormatError("measure entries must be a list")
    pairs = []
    signatures: dict = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("measure entries must be objects")
        mass = fraction_from_text(entry.get("mass"))
        pairs.append((_type_per_witness(entry.get("type"), table, signatures), mass))
    return TypeMeasure.from_pairs(rank, pairs)


def certificate_from_json_per_witness(data, table=None) -> CompanionCertificate:
    """Certificate JSON whose types are read one witness at a time, as
    measure_from_json_per_witness reads them."""
    if not isinstance(data, dict) or data.get("format") != "certificate":
        raise FormatError("not a certificate file")
    version = data.get("version")
    if type(version) is not int or version != 1:
        raise FormatError(f"unsupported certificate version {version!r}")
    rank, r = data.get("rank"), data.get("r")
    if type(rank) is not int or type(r) is not int:
        raise FormatError("certificate rank and r must be integers")
    raw_types = data.get("types")
    if not isinstance(raw_types, list):
        raise FormatError("certificate types must be a list")
    signatures: dict = {}
    types = [_type_per_witness(item, table, signatures) for item in raw_types]
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise FormatError("certificate entries must be a list")
    entries = []
    for entry in raw_entries:
        if not isinstance(entry, dict):
            raise FormatError("certificate entries must be objects")
        refs = entry.get("tau"), entry.get("t")
        if not all(type(ref) is int and 0 <= ref < len(types) for ref in refs):
            raise FormatError(f"bad certificate entry {entry!r}")
        tau, t = (types[ref] for ref in refs)
        entries.append((tau, t, fraction_from_text(entry.get("s"))))
    return CompanionCertificate(R=rank, r=r, entries=tuple(entries))


def solve_certificate_by_fractions(mu, r: int):
    """The certificate solver with every sum taken in Fractions, on the
    balance equations `_balance_equations` builds: the same entries in the
    same order, or the same Violation."""
    if mu.rank < 2 * r + 1:
        raise RankTooLow(f"certificates need measure rank >= {2 * r + 1}")
    universe, proj, _, equations = _balance_equations(mu, r)
    taus = [tau for tau, *_ in proj]
    masses = [mass for *_, mass in proj]
    zero = Fraction(0)
    entries = []
    for (j1, j2), (flow, forced, free) in equations.items():
        t1, t2 = universe[j1], universe[j2]
        lhs = sum((masses[i] for i in flow), zero)
        pinned = sum((count * masses[i] for i, count in forced), zero)
        entries.extend((taus[i], t1, Fraction(count)) for i, count in forced)
        remainder = lhs - pinned
        if not free:
            if remainder != 0:
                return Violation(
                    check="balance",
                    detail=(
                        f"flow into {t1!r} from {t2!r}-typed mass is "
                        f"forced to {pinned}, needed {lhs}"
                    ),
                    t1=t1,
                    t2=t2,
                    lhs=lhs,
                    rhs=pinned,
                )
            continue
        floor = r * sum(masses[i] for i, _ in free)
        if remainder < floor:
            return Violation(
                check="balance",
                detail=(
                    f"flow into {t1!r} from {t2!r}-typed mass is at "
                    f"least {pinned + floor}, but the left side is {lhs}"
                ),
                t1=t1,
                t2=t2,
                lhs=lhs,
                rhs=pinned + floor,
            )
        head = Fraction(r) + (remainder - floor) / masses[free[0][0]]
        values = [head] + [Fraction(r)] * (len(free) - 1)
        entries.extend((taus[i], t1, s) for (i, _), s in zip(free, values) if s)
    return CompanionCertificate(R=mu.rank, r=r, entries=tuple(entries))


def verify_upsilon_per_element(F: FiniteMapping, upsilon: dict, r: int) -> bool:
    """verify_upsilon with each element's image check made on its own: the
    label's image type typed afresh from its witness (no transport memo)
    and compared with the image's label projected, per (label, image
    projection) pair."""
    for v in F.elements():
        if v not in upsilon:
            raise ValueError(f"upsilon must be total; element {v} is missing")
        if upsilon[v].rank < 2 * r + 1:
            raise RankTooLow(
                f"labels must have rank >= {2 * r + 1}, got {upsilon[v].rank}"
            )

    for length in cycle_lengths(F):
        if 1 < length <= r + 1:
            return False

    for v in F.elements():
        witness_structure, w = upsilon[v].witness
        if F.mark_sets[v] != witness_structure.mark_sets[w]:
            return False

    plus_cache = {}
    for v in F.elements():
        tau = upsilon[v]
        image_t = project(upsilon[F.f[v]], r)
        key = (tau.key, image_t.key)
        ok = plus_cache.get(key)
        if ok is None:
            W, w = tau.witness
            image = local_type(W, W.f[w], tau.rank - 1, tau.table)
            ok = plus_cache[key] = project(image, r).key == image_t.key
        if not ok:
            return False

    pre = F.pre
    for v in F.elements():
        actual = {}
        for u in pre[v]:
            low = project(upsilon[u], r).key
            actual[low] = actual.get(low, 0) + 1
        forced = adm_minus_table(upsilon[v], r)
        for t_key in forced.keys() | actual.keys():
            if min(r, forced.get(t_key, 0)) != min(r, actual.get(t_key, 0)):
                return False
    return True


def _sibling_classes(F: FiniteMapping, pre, layers: list) -> dict:
    """Equivalence class of every tree element, refined layer by layer.

    Deepest layer first: two elements are equivalent when they carry the
    same marks and their preimages realize each deeper class with exactly
    the same multiplicities.  Classes are interned as integers.
    """
    interned: dict = {}
    cls: dict = {}
    for layer in reversed(layers[1:]):
        for z in layer:
            children = tuple(sorted(Counter(cls[x] for x in pre[z]).items()))
            key = (F.mark_sets[z], children)
            code = interned.get(key)
            if code is None:
                code = len(interned)
                interned[key] = code
            cls[z] = code
    return cls


def _component_form(F: FiniteMapping, heights: dict, kept: set, cycle, members) -> tuple:
    """Canonical value of one component restricted to the kept elements,
    given as its cycle and its kept members.

    Trees are canonicalized bottom-up with sorted child forms; the cycle
    contributes the lexicographically minimal rotation of its per-vertex
    forms, read along the function.  Equal forms mean isomorphic kept
    components.
    """
    pre = F.pre
    form: dict = {}
    for x in sorted(members, key=lambda v: -heights[v]):
        if heights[x] == 0:
            continue
        child_forms = sorted(
            form[c] for c in pre[x] if c in kept and heights[c] == heights[x] + 1
        )
        form[x] = (F.mark_sets[x], tuple(child_forms))
    ring = []
    for z in cycle:
        child_forms = sorted(
            form[c] for c in pre[z] if c in kept and heights.get(c) == 1
        )
        ring.append((F.mark_sets[z], tuple(child_forms)))
    doubled = ring + ring
    size = len(ring)
    return min(tuple(doubled[i : i + size]) for i in range(size))


def _prune_once(F: FiniteMapping, r: int) -> FiniteMapping:
    orbits = cycle_orbits(F)
    if r == 0:
        return restrict(F, orbits[0])
    Z, heights = cyclic_part_by_bfs(F)
    pre = F.pre

    depth = max(heights.values())
    layers: list = [[] for _ in range(depth + 1)]
    for v in F.elements():
        layers[heights[v]].append(v)
    for layer in layers:
        layer.sort()

    cls = _sibling_classes(F, pre, layers)

    kept = set(Z)
    for i in range(1, depth + 1):
        for y in layers[i - 1]:
            if y not in kept:
                continue
            groups: dict = {}
            for x in pre[y]:
                if heights[x] == i:
                    groups.setdefault(cls[x], []).append(x)
            for members in groups.values():
                members.sort()
                kept.update(members[:r])

    # The least element of the cycle below each element, layer by layer.
    anchor_of = {z: orbit[0] for orbit in orbits for z in orbit}
    for layer in layers[1:]:
        for x in layer:
            anchor_of[x] = anchor_of[F.f[x]]
    members: dict = {orbit[0]: [] for orbit in orbits}
    for x in kept:
        members[anchor_of[x]].append(x)

    by_form: dict = {}
    for orbit in orbits:
        shape = _component_form(F, heights, kept, orbit, members[orbit[0]])
        by_form.setdefault(shape, []).append(orbit[0])

    final = [x for anchors in by_form.values() for a in anchors[:r] for x in members[a]]
    return restrict(F, final)


def compress_until_stable(F: FiniteMapping, r: int) -> FiniteMapping:
    """`standard_r_approximation` by repeated passes: each keeps the whole
    cyclic part of a kept component, the r lowest-id preimages of each
    exact-count sibling class under a kept element, and the r components
    with the least cycle element per nested component form.  Pruning deep
    multiplicities can merge sibling classes that exact counts kept apart,
    so the pass repeats until nothing is dropped."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    while True:
        reduced = _prune_once(F, r)
        if reduced.n == F.n:
            return reduced
        F = reduced


def output_by_merge(residual, stripped, copies: int, pairs) -> FiniteMapping:
    """The pipeline's output built in full: the residual host and `copies`
    stripped copies merged, then recovered."""
    return recover(merge(residual, stripped, copies), pairs)


def dump_map_by_rows(F: FiniteMapping) -> str:
    """The map file text built one record string at a time, then joined."""
    for name in F.signature.predicates:
        if not _NAME.match(name):
            raise FormatError(f"predicate name {name!r} is not writable")
    rows = [
        f"mapfile {MAP_VERSION}",
        f"n {F.n}",
        " ".join(["predicates", *F.signature.predicates]),
    ]
    for v, (image, marks) in enumerate(zip(F.f, F.mark_sets)):
        rows.append(f"{v} -> {image} [{' '.join(marks)}]")
    return "\n".join(rows) + "\n"
