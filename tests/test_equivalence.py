"""Global game equivalence and the local/FO pseudometrics."""

import random
from fractions import Fraction

import pytest

from helpers import cycle, fixed_point, seeded, star
from mapprox.equivalence import (
    dist_fo_truncated,
    ef_equivalent,
    fo_dist,
    ldist,
)
from mapprox.errors import BudgetExceeded, SignatureMismatch
from mapprox.structure import FiniteMapping
from oracles import brute_ldist, global_game


def relabel(F: FiniteMapping, perm) -> FiniteMapping:
    f = [0] * F.n
    for v in F.elements():
        f[perm[v]] = perm[F.f[v]]
    marks = {
        name: frozenset(perm[v] for v in ext) for name, ext in F.marks.items()
    }
    return FiniteMapping(f=tuple(f), marks=marks)


class TestEfEquivalent:
    def test_self(self):
        F = seeded(12, 0)
        assert ef_equivalent(F, F, 3)

    def test_isomorphic_cycles(self):
        F = cycle(5)
        G = relabel(F, (2, 4, 1, 0, 3))
        assert ef_equivalent(F, G, 4)

    def test_wide_stars_agree_at_low_rank(self):
        assert ef_equivalent(star(100), star(2), 2)

    def test_narrow_star_separated(self):
        assert not ef_equivalent(star(2), star(1), 2)

    def test_signature_checked(self):
        with pytest.raises(SignatureMismatch):
            ef_equivalent(fixed_point({"P": frozenset({0})}), fixed_point(), 1)

    def test_matches_direct_game_search(self):
        rng = random.Random(21)
        for trial in range(20):
            A = seeded(rng.randrange(2, 6), trial, Fraction(1, 2))
            B = seeded(rng.randrange(2, 6), 77 + trial, Fraction(1, 2))
            for r in (0, 1, 2):
                assert ef_equivalent(A, B, r) == global_game(A, B, r), (trial, r)


class TestLdist:
    def test_fixed_point_vs_cycle(self):
        F = FiniteMapping(f=(1, 2, 0))
        assert ldist(F, FiniteMapping(f=(0,)), 1, 0) == 1

    def test_star_sizes(self):
        assert ldist(star(3), star(4), 1, 1) == Fraction(1, 20)

    def test_isomorphic_is_zero(self):
        F = cycle(5)
        assert ldist(F, relabel(F, (4, 2, 0, 1, 3)), 2, 2) == 0

    def test_pair_inside_a_twin_in_tree(self):
        # In A, 1 and 2 are interchangeable siblings under the fixed point
        # 0, with in-trees {1, 3} and {2, 4}; in B, 0 has the siblings 1, 2
        # and 5, and 2 and 5 have one child each.  From the pair (0, 3),
        # which has an element inside the in-tree of 1 in A, the siblings
        # are not interchangeable.
        A = FiniteMapping(f=(0, 0, 0, 1, 2))
        B = FiniteMapping(f=(0, 0, 0, 2, 5, 0))
        for r in (1, 2):
            assert ldist(A, B, 2, r) == brute_ldist(A, B, 2, r)

    def test_needs_positive_p(self):
        with pytest.raises(ValueError):
            ldist(cycle(3), cycle(3), 0, 1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            ldist(seeded(40, 0), seeded(40, 1), 3, 1, budget=1000)

    def test_matches_formula_supremum(self):
        rng = random.Random(33)
        for trial in range(15):
            A = seeded(rng.randrange(2, 6), trial, Fraction(1, 2))
            B = seeded(rng.randrange(2, 6), 55 + trial, Fraction(1, 2))
            for p, r in ((1, 0), (1, 1), (1, 2), (2, 1)):
                assert ldist(A, B, p, r) == brute_ldist(A, B, p, r), (trial, p, r)


class TestFoDist:
    def test_sentence_gap(self):
        F = FiniteMapping(f=(1, 2, 0))
        assert fo_dist(F, FiniteMapping(f=(0,)), 0, 1) == 1

    def test_zero_rank_zero_vars(self):
        assert fo_dist(cycle(3), cycle(4), 0, 0) == 0

    def test_isomorphic_is_zero(self):
        F = cycle(5)
        assert fo_dist(F, relabel(F, (1, 3, 0, 4, 2)), 2, 3) == 0

    def test_dominates_ldist(self):
        # local formulas are a subset of the clean ones
        rng = random.Random(40)
        for trial in range(10):
            A = seeded(rng.randrange(3, 7), trial, Fraction(1, 2))
            B = seeded(rng.randrange(3, 7), 99 + trial, Fraction(1, 2))
            for p, r in ((1, 1), (2, 1)):
                assert fo_dist(A, B, p, r) >= ldist(A, B, p, r)


class TestTruncatedSeries:
    def test_isomorphic_lower_zero(self):
        F = cycle(5)
        G = relabel(F, (3, 1, 4, 2, 0))
        lower, upper = dist_fo_truncated(F, G, 4)
        assert lower == 0
        assert upper == Fraction(7, 16)

    def test_brackets_tighten(self):
        A, B = seeded(5, 2), seeded(6, 3)
        prev_lower, prev_upper = Fraction(0), Fraction(4)
        for K in (0, 1, 2, 3, 4):
            lower, upper = dist_fo_truncated(A, B, K)
            assert prev_lower <= lower <= upper <= prev_upper
            assert upper - lower == Fraction(K + 3, 2**K)
            prev_lower, prev_upper = lower, upper

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dist_fo_truncated(cycle(3), cycle(3), -1)
