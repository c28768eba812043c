"""Global r-equivalence and the convergence pseudometrics.

Two structures are r-equivalent when the second player wins the r-round
back-and-forth game with unrestricted moves.  As with local types, the game
is decided by interning values: the value of a placed tuple is the atom row
of its last element plus the set of values of all one-element extensions,
here ranging over the whole domain.  Values of tuples from both structures
are interned in one shared registry, so equal values mean mutual mirroring.

The pseudometrics follow: dist_p^r is the total variation distance between
the two structures' distributions of r-round game classes of p-tuples (every
rank-r definable event is a union of classes, so the supremum over formulas
is attained there), and ldist_p^r is the same with the local game.

The class of a p-tuple is its game value together with the atom rows of its
proper prefixes.  A value records only the atoms its last element adds over
the earlier ones, so without the prefix rows the marks and self-loop of an
earlier element would be lost: fixed points 0 and 1 with U = {0} and with
U = {0, 1} would give their pairs (0, 1) one class.

At p = 2, ldist splits the pairs by Gaifman distance (Gaifman 1982; Hanf
1965).  A far pair, at distance at least r + 2, needs no game:

- Every local move is adjacent to a placed element, so the placed elements
  split into the part around a and the part around b.  After i moves on
  a's side and j <= r - i on b's, the parts are at distance at least
  r + 2 - i - j >= 2, so no atom links them: every move is pinned to one
  side by its atoms.  Duplicator composes the two one-sided strategies,
  and Spoiler may spend all r rounds on either side.  So the class of a
  far pair (a, b) is the pair of rank-r root classes (s, t) of a and b,
  and distinct (s, t) give distinct classes.
- A near pair, at distance d <= r + 1, shows its link within d - 1 <= r
  moves: Spoiler places a shortest path from a to b, whose atoms no far
  pair can mirror.  So no near pair shares a class with a far one.

ldist therefore takes each element's root value, plays the pair game only
for b in the radius-(r+1) ball of a (a itself included), and counts the far
pairs with roots (s, t) as count[s] * count[t] minus the near pairs with
those roots.  Its budget at p = 2 counts the work it does: n plus the ball
sizes, summed as the balls are built, and BudgetExceeded is raised as soon
as the sum passes the budget, before any game is played.  At p = 1 and
p >= 3, and in dist_p^r, whose unrestricted moves reach past any ball,
every p-tuple is enumerated and the budget bounds n^p.  dist_p^r is 1 when
a sentence of rank r separates the structures, and then no tuple is
enumerated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceeded, SignatureMismatch
from .localtypes import TypeTable, atom_row, global_table
from .structure import FiniteMapping, ball

GAME_BUDGET = 1_000_000


class _GlobalValues:
    """Interned r-round game values with unrestricted extension moves."""

    def __init__(self, budget: int = GAME_BUDGET):
        self.budget = budget
        self.ops = 0
        self._intern: dict[tuple, int] = {}
        self._memo: dict[tuple, int] = {}

    def _spend(self, amount: int = 1) -> None:
        self.ops += amount
        if self.ops > self.budget:
            raise BudgetExceeded(self.budget, self.ops)

    def _intern_value(self, key: tuple) -> int:
        found = self._intern.get(key)
        if found is None:
            found = len(self._intern)
            self._intern[key] = found
        return found

    def value(self, F: FiniteMapping, tup: tuple[int, ...], k: int) -> int:
        return self._value(F, F.mark_sets, tup, k)

    def _value(self, F, marks, tup, k) -> int:
        key = (id(F), tup, k)
        found = self._memo.get(key)
        if found is not None:
            return found
        self._spend()
        row = atom_row(F.f, marks, tup)
        if k == 0:
            value = self._intern_value((0, row, None))
        else:
            placed = set(tup)
            kids = frozenset(
                self._value(F, marks, tup + (x,), k - 1)
                for x in F.elements()
                if x not in placed
            )
            value = self._intern_value((k, row, kids))
        self._memo[key] = value
        return value


def ef_equivalent(
    A: FiniteMapping, B: FiniteMapping, r: int, budget: int = GAME_BUDGET
) -> bool:
    """Whether no sentence of quantifier rank <= r separates A from B."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    values = _GlobalValues(budget)
    return values.value(A, (), r) == values.value(B, (), r)


def _tuple_classes(F: FiniteMapping, p: int, value) -> Counter:
    """Counts of the classes of all p-tuples of F, each keyed by the atom
    rows of its proper prefixes and its game value `value(tup)`."""
    f, marks = F.f, F.mark_sets
    return Counter(
        (tuple(atom_row(f, marks, tup[:i]) for i in range(1, p)), value(tup))
        for tup in itertools.product(F.elements(), repeat=p)
    )


def _near_balls(F: FiniteMapping, radius: int, budget: int) -> list[frozenset[int]]:
    """Every element's ball of the given radius, raising BudgetExceeded as
    soon as n plus the ball sizes so far passes `budget`."""
    spent = F.n
    if spent > budget:
        raise BudgetExceeded(budget, spent)
    balls = []
    for a in F.elements():
        near = ball(F, a, radius)
        spent += len(near)
        if spent > budget:
            raise BudgetExceeded(budget, spent)
        balls.append(near)
    return balls


def _pair_classes(
    F: FiniteMapping, r: int, table: TypeTable, balls: list[frozenset[int]]
) -> Counter:
    """Counts of the rank-r local classes of all ordered pairs of F: near
    pairs (b in the radius-(r+1) ball of a) play their game, far pairs are
    counted from the roots' classes."""
    f, marks = F.f, F.mark_sets
    roots = [table.nv_value(F, (a,), r) for a in F.elements()]
    counts: Counter = Counter()
    near_roots: Counter = Counter()
    for a, near in enumerate(balls):
        row, s = atom_row(f, marks, (a,)), roots[a]
        for b in near:
            counts["near", row, table.nv_value(F, (a, b), r)] += 1
            near_roots[s, roots[b]] += 1
    root_counts = Counter(roots)
    for s, count_s in root_counts.items():
        for t, count_t in root_counts.items():
            far = count_s * count_t - near_roots[s, t]
            if far:
                counts["far", s, t] = far
    return counts


def _tv(a: dict, total_a: int, b: dict, total_b: int) -> Fraction:
    """TV distance between the class counts a (out of total_a tuples) and
    b (out of total_b)."""
    gap = sum(
        abs(a.get(k, 0) * total_b - b.get(k, 0) * total_a) for k in a.keys() | b.keys()
    )
    return Fraction(gap, 2 * total_a * total_b)


def ldist(
    A: FiniteMapping,
    B: FiniteMapping,
    p: int,
    r: int,
    table: Optional[TypeTable] = None,
    budget: int = GAME_BUDGET,
) -> Fraction:
    """TV distance between the distributions of local-game classes of
    p-tuples drawn uniformly from each structure."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    if p < 1:
        raise ValueError("ldist needs p >= 1")
    table = table or global_table()
    if p == 2:
        balls = [_near_balls(F, r + 1, budget) for F in (A, B)]
        counts = [_pair_classes(F, r, table, near) for F, near in zip((A, B), balls)]
    else:
        if A.n**p > budget or B.n**p > budget:
            raise BudgetExceeded(budget, max(A.n, B.n) ** p)
        counts = [
            _tuple_classes(F, p, lambda tup, F=F: table.nv_value(F, tup, r))
            for F in (A, B)
        ]
    return _tv(counts[0], A.n**p, counts[1], B.n**p)


def fo_dist(
    A: FiniteMapping, B: FiniteMapping, p: int, r: int, budget: int = GAME_BUDGET
) -> Fraction:
    """sup over p-variable formulas of quantifier rank <= r of the pairing gap.

    1 as soon as a sentence of rank <= r separates A from B; the p-tuples
    are enumerated, and n^p counted against the budget, only otherwise."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    values = _GlobalValues(budget)
    if values.value(A, (), r) != values.value(B, (), r):
        return Fraction(1)
    if p == 0:
        return Fraction(0)
    if A.n**p > budget or B.n**p > budget:
        raise BudgetExceeded(budget, max(A.n, B.n) ** p)
    counts = [
        _tuple_classes(F, p, lambda tup, F=F: values.value(F, tup, r))
        for F in (A, B)
    ]
    return _tv(counts[0], A.n**p, counts[1], B.n**p)


def dist_fo_truncated(
    A: FiniteMapping, B: FiniteMapping, K: int, budget: int = GAME_BUDGET
) -> tuple[Fraction, Fraction]:
    """Partial sum of sum_{p,r} 2^-(p+r) dist_p^r over p+r <= K, with the
    exact tail bound sum_{p+r>K} 2^-(p+r) = (K+3)/2^K as the upper gap."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    lower = Fraction(0)
    for s in range(K + 1):
        for p in range(s + 1):
            lower += Fraction(1, 2**s) * fo_dist(A, B, p, s - p, budget)
    tail = Fraction(K + 3, 2**K)
    return lower, lower + tail
