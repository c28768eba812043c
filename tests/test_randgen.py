"""Seeded generation: the generator itself, mappings, cycle statistics."""

import math
import time
from fractions import Fraction

import pytest

from helpers import structurally_equal
from mapprox.errors import EmptyDomain
from mapprox.randgen import SplitMix64, cycle_statistics, random_mapping


class TestSplitMix64:
    def test_reference_vector(self):
        rng = SplitMix64(1234567)
        assert [rng.next64() for _ in range(4)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
            0x3FBEF740E9177B3F,
        ]

    def test_state_masked(self):
        assert SplitMix64(1 << 70).state == 0
        assert SplitMix64(-1).state == (1 << 64) - 1

    def test_below_range_and_determinism(self):
        a, b = SplitMix64(99), SplitMix64(99)
        draws = [a.below(10) for _ in range(200)]
        assert draws == [b.below(10) for _ in range(200)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10

    def test_below_degenerate(self):
        assert SplitMix64(0).below(1) == 0

    def test_below_validates(self):
        rng = SplitMix64(0)
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.below((1 << 64) + 1)


class TestRandomMapping:
    def test_deterministic(self):
        A = random_mapping(30, 7, {"U": Fraction(1, 3)})
        B = random_mapping(30, 7, {"U": Fraction(1, 3)})
        assert structurally_equal(A, B)

    def test_needs_elements(self):
        with pytest.raises(EmptyDomain):
            random_mapping(0, 1)

    def test_images_in_range(self):
        F = random_mapping(25, 3)
        assert all(0 <= w < 25 for w in F.f)

    def test_density_extremes(self):
        F = random_mapping(20, 5, {"A": Fraction(0), "B": Fraction(1)})
        assert F.marks["A"] == frozenset()
        assert F.marks["B"] == frozenset(range(20))

    def test_density_validated(self):
        with pytest.raises(ValueError):
            random_mapping(5, 0, {"U": Fraction(3, 2)})

    def test_predicate_order_kept(self):
        F = random_mapping(5, 0, {"B": Fraction(1, 2), "A": Fraction(1, 2)})
        assert F.signature.predicates == ("B", "A")

    def test_stream_stability(self):
        # images never depend on the predicates; each predicate's decisions
        # never depend on densities declared after it
        base = random_mapping(40, 11)
        one = random_mapping(40, 11, {"U": Fraction(1, 4)})
        two = random_mapping(40, 11, {"U": Fraction(1, 4), "V": Fraction(1, 2)})
        assert base.f == one.f == two.f
        assert one.marks["U"] == two.marks["U"]

    def test_degenerate_density_still_draws(self):
        filler = random_mapping(40, 11, {"U": Fraction(0), "V": Fraction(1, 2)})
        live = random_mapping(40, 11, {"U": Fraction(1, 4), "V": Fraction(1, 2)})
        assert filler.marks["V"] == live.marks["V"]


class TestCycleStatistics:
    def test_exact_column(self):
        rows = cycle_statistics(2000, 1, 3, seed=1)
        exact = {r: e for r, _, e in rows}
        assert exact[1] == 1
        assert exact[2] == Fraction(1999, 4000)
        assert exact[3] == Fraction(2000 * 1999 * 1998, 3 * 2000**3)

    def test_empirical_near_exact(self):
        rows = cycle_statistics(60, 400, 2, seed=9)
        for _, empirical, exact in rows:
            assert abs(empirical - exact) <= exact / 4

    def test_exact_column_is_the_falling_factorial_formula(self):
        for n in (5, 30):
            rows = cycle_statistics(n, 3, 40, seed=2)
            assert [r for r, _, _ in rows] == list(range(1, 41))
            for r, _, exact in rows:
                assert exact == Fraction(math.prod(range(n - r + 1, n + 1)), r * n**r)

    def test_lengths_far_past_n_cost_no_powers(self):
        # Past r = n the exact mean is 0; the product formula multiplied
        # r - n - 1 large negative factors and built n**r for it, which
        # took minutes here.
        start = time.perf_counter()
        rows = cycle_statistics(5, 1, 20_000)
        assert time.perf_counter() - start < 5
        assert len(rows) == 20_000
        assert all(exact == 0 for _, _, exact in rows[5:])

    def test_r_max_does_not_shift_samples(self):
        one = cycle_statistics(25, 50, 1, seed=4)
        three = cycle_statistics(25, 50, 3, seed=4)
        assert one[0] == three[0]

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            cycle_statistics(10, 0, 1)
        with pytest.raises(ValueError):
            cycle_statistics(10, 1, 0)
