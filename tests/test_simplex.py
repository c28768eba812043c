"""The exact phase-1 simplex against a brute-force basic-solution search."""

import itertools
import random
from fractions import Fraction

import pytest

from mapprox.simplex import solve_equalities
from oracles import brute_feasible_point, column_rank


def assert_matches_oracle(rows, num_vars):
    x = solve_equalities(rows, num_vars)
    expected = brute_feasible_point(rows, num_vars)
    assert (x is None) == (expected is None), rows
    if x is None:
        return
    assert len(x) == num_vars
    for coeffs, rhs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) == rhs, rows
    assert all(v >= 0 for v in x), rows
    support = [j for j in range(num_vars) if x[j] != 0]
    assert column_rank([coeffs for coeffs, _ in rows], support) == len(support), rows


def test_every_small_system():
    # Every 2x3 system with entries in {-1, 0, 1} and right sides in
    # {-1, 0, 1, 2}, duplicated and zero rows included.
    entries = (-1, 0, 1)
    rows = list(itertools.product(entries, repeat=3))
    for first, second in itertools.product(rows, repeat=2):
        for b1, b2 in itertools.product((-1, 0, 1, 2), repeat=2):
            assert_matches_oracle([(first, Fraction(b1)), (second, Fraction(b2))], 3)


@pytest.mark.parametrize("duplicated", [False, True])
def test_seeded_systems(duplicated):
    # 3x5 systems; with a duplicated row one constraint is redundant, so an
    # artificial variable can stay basic at 0 after phase 1 and has to be
    # driven out of the basis or left on its all-zero row.
    rng = random.Random(11 + duplicated)
    feasible = 0
    for _ in range(300):
        rows = [
            ([Fraction(rng.randint(-2, 2)) for _ in range(5)], Fraction(rng.randint(-2, 3)))
            for _ in range(3)
        ]
        if duplicated:
            rows[2] = rows[rng.randrange(2)]
        assert_matches_oracle(rows, 5)
        feasible += solve_equalities(rows, 5) is not None
    assert 0 < feasible < 300


def test_no_rows_and_row_width():
    assert solve_equalities([], 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        solve_equalities([([1, 2], Fraction(1))], 3)
