"""Bounded-size cores preserving the rank-r theory."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    bushy,
    cycle,
    every_marking,
    fixed_point,
    many_cycles,
    marked_fan,
    marked_path,
    path,
    seeded,
    star,
    structurally_equal,
)
from mapprox.compress import standard_r_approximation
from mapprox.equivalence import ef_equivalent
from mapprox.randgen import random_mapping
from mapprox.structure import FiniteMapping, disjoint_union
from oracles import compress_until_stable

compress_module = importlib.import_module("mapprox.compress")


def copies(F, k):
    out = F
    for _ in range(k - 1):
        out = disjoint_union(out, F)
    return out


class TestFrozenShapes:
    def test_wide_star_collapses(self):
        out = standard_r_approximation(star(100), 2)
        assert out.n == 3
        assert structurally_equal(out, star(2))

    def test_repeated_components_collapse(self):
        out = standard_r_approximation(copies(cycle(3), 5), 2)
        assert out.n == 6

    def test_cycle_untouched(self):
        F = cycle(3)
        assert structurally_equal(standard_r_approximation(F, 3), F)

    def test_rank_zero_keeps_least_cycle(self):
        F = disjoint_union(cycle(4), fixed_point())
        out = standard_r_approximation(F, 0)
        assert out.n == 4

    def test_distinct_siblings_survive(self):
        # 3 -> 1 -> 0 <- 2: the two preimages of 0 differ one layer deeper
        F = FiniteMapping(f=(0, 0, 0, 1))
        out = standard_r_approximation(F, 1)
        assert out.n == 4

    def test_marked_components_kept_apart(self):
        F = disjoint_union(
            cycle(3, {"U": frozenset({0})}), copies(cycle(3, {"U": frozenset()}), 2)
        )
        out = standard_r_approximation(F, 1)
        assert out.n == 6
        assert len(out.marks["U"]) == 1

    def test_marked_siblings_kept_apart(self):
        F = star(10, {"U": frozenset({1, 2, 3})})
        out = standard_r_approximation(F, 1)
        assert out.n == 3
        assert len(out.marks["U"]) == 1

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            standard_r_approximation(cycle(3), -1)


class TestInvariants:
    def test_equivalent_never_larger_idempotent(self):
        rng = random.Random(17)
        for trial in range(15):
            F = seeded(rng.randrange(2, 30), trial, Fraction(1, 3))
            for r in (1, 2):
                out = standard_r_approximation(F, r)
                assert out.n <= F.n
                assert ef_equivalent(F, out, r)
                again = standard_r_approximation(out, r)
                assert structurally_equal(again, out)

    def test_saturated_multiplicity(self):
        # beyond r copies the exact count is invisible, so the core is stable
        a = standard_r_approximation(copies(cycle(3), 3), 2)
        b = standard_r_approximation(copies(cycle(3), 7), 2)
        assert structurally_equal(a, b)
        wide = standard_r_approximation(star(40), 2)
        assert structurally_equal(wide, standard_r_approximation(star(4), 2))

    def test_higher_rank_keeps_more(self):
        F = copies(star(9), 4)
        sizes = [standard_r_approximation(F, r).n for r in (1, 2, 3)]
        assert sizes == sorted(sizes)


def assert_same_as_oracle(F, ranks):
    for r in ranks:
        assert structurally_equal(
            standard_r_approximation(F, r), compress_until_stable(F, r)
        ), (F.f, F.marks, r)


class TestOnePass:
    """One pass over capped sibling counts against the prune-until-stable
    loop it replaced."""

    def test_every_small_mapping(self):
        # Every function, not one per isomorphism class: lowest ids win.
        for n in range(1, 6):
            for f in itertools.product(range(n), repeat=n):
                markings = every_marking(f, ("U",)) if n <= 4 else [FiniteMapping(f=f)]
                for F in markings:
                    assert_same_as_oracle(F, range(4))

    def test_seeded_random_inputs(self):
        # Bushy inputs take the loop 2 to 4 passes at r = 1 and 2.
        rng = random.Random(25)
        for seed in range(1500):
            assert_same_as_oracle(bushy(seed), (rng.randrange(4),))
            F = random_mapping(rng.randrange(1, 120), seed, {"U": Fraction(1, 4)})
            assert_same_as_oracle(F, (rng.randrange(4),))

    @pytest.mark.parametrize("build", [marked_path, marked_fan])
    def test_deep_and_wide(self, build):
        assert_same_as_oracle(build(9), (1, 2, 3))

    def test_long_path_large_star_and_many_cycles(self):
        for F in (path(4000), star(20_000), many_cycles(1), many_cycles(2)):
            assert_same_as_oracle(F, (1, 2, 3))

    @pytest.mark.parametrize("F,r", [(star(100), 2), (seeded(60, 5), 1)])
    def test_one_restrict_per_call(self, monkeypatch, F, r):
        calls = []
        real = compress_module.restrict

        def counted(G, X):
            calls.append(G)
            return real(G, X)

        monkeypatch.setattr(compress_module, "restrict", counted)
        standard_r_approximation(F, r)
        assert calls == [F]
