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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceeded, SignatureMismatch
from .localtypes import TypeTable, atom_row, global_table
from .structure import FiniteMapping

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


def _histogram(values_of) -> dict[int, Fraction]:
    hist: dict[int, Fraction] = {}
    total = 0
    for v in values_of:
        hist[v] = hist.get(v, 0) + 1
        total += 1
    return {v: Fraction(c, total) for v, c in hist.items()}


def _tv(a: dict[int, Fraction], b: dict[int, Fraction]) -> Fraction:
    keys = set(a) | set(b)
    return sum((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), Fraction(0)) / 2


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
    if A.n**p > budget or B.n**p > budget:
        raise BudgetExceeded(budget, max(A.n, B.n) ** p)
    hists = []
    for F in (A, B):
        hists.append(
            _histogram(
                table.nv_value(F, tup, r)
                for tup in itertools.product(F.elements(), repeat=p)
            )
        )
    return _tv(hists[0], hists[1])


def fo_dist(
    A: FiniteMapping, B: FiniteMapping, p: int, r: int, budget: int = GAME_BUDGET
) -> Fraction:
    """sup over p-variable formulas of quantifier rank <= r of the pairing gap."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    values = _GlobalValues(budget)
    separated = values.value(A, (), r) != values.value(B, (), r)
    if p == 0:
        return Fraction(1 if separated else 0)
    if A.n**p > budget or B.n**p > budget:
        raise BudgetExceeded(budget, max(A.n, B.n) ** p)
    hists = []
    for F in (A, B):
        hists.append(
            _histogram(
                values.value(F, tup, r)
                for tup in itertools.product(F.elements(), repeat=p)
            )
        )
    tv = _tv(hists[0], hists[1])
    return max(tv, Fraction(1)) if separated else tv


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
