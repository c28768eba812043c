"""Exact-rational linear feasibility.

Phase-1 simplex over Fractions: find x >= 0 with A x = b, or report that no
such x exists.  Bland's smallest-index rule on entering and leaving columns
guarantees termination; artificial variables never re-enter the basis.
The tableau is dense, rows x (variables + rows) Fractions, and every pivot
rewrites all of it; fmtp.approximate_measure keeps its LPs within
LP_MAX_CELLS = 12,000 rows-times-variables cells, which allows hundreds of
variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def solve_equalities(
    rows: Sequence[tuple[Sequence[Fraction], Fraction]], num_vars: int
) -> Optional[list[Fraction]]:
    """A basic feasible solution of {x >= 0 : A x = b}, or None."""
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * num_vars

    width = num_vars + m + 1
    tableau: list[list[Fraction]] = []
    for i, (coeffs, b) in enumerate(rows):
        if len(coeffs) != num_vars:
            raise ValueError(f"row {i} has {len(coeffs)} coefficients")
        coeffs = [Fraction(c) for c in coeffs]
        b = Fraction(b)
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        row = coeffs + [Fraction(0)] * m + [b]
        row[num_vars + i] = Fraction(1)
        tableau.append(row)
    basis = [num_vars + i for i in range(m)]

    # Reduced costs for minimizing the artificial sum: start from the
    # column sums since the initial basis is exactly the artificials.
    cost = [Fraction(0)] * width
    for j in range(width):
        cost[j] = sum(tableau[i][j] for i in range(m))
    for j in range(num_vars, num_vars + m):
        cost[j] -= 1

    def pivot(row_i: int, col_j: int) -> None:
        row = tableau[row_i]
        inv = Fraction(1) / row[col_j]
        tableau[row_i] = row = [c * inv for c in row]
        for i in range(m):
            if i != row_i and tableau[i][col_j]:
                factor = tableau[i][col_j]
                other = tableau[i]
                tableau[i] = [a - factor * b for a, b in zip(other, row)]
        if cost[col_j]:
            factor = cost[col_j]
            for j in range(width):
                cost[j] -= factor * row[j]
        basis[row_i] = col_j

    while True:
        entering = next((j for j in range(num_vars) if cost[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise ArithmeticError("phase-1 objective cannot be unbounded")
        pivot(leaving, entering)

    if cost[-1] != 0:
        return None

    # Drive leftover artificials out of the basis; all-zero rows are
    # redundant constraints and their artificials stay basic at value 0.
    for i in range(m):
        if basis[i] >= num_vars:
            col = next((j for j in range(num_vars) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    solution = [Fraction(0)] * num_vars
    for i, var in enumerate(basis):
        if var < num_vars:
            solution[var] = tableau[i][-1]
    return solution
