"""Exact rational LP feasibility via a revised phase-1 simplex with Bland's rule.

The system is  sum_j x_j * col_j == rhs,  x >= 0,  with m rows.  The simplex
keeps only the m x m basis inverse and never lists the columns: each step
hands its candidate separator y to a pricing callback, which returns the
first column, in the caller's order, with y . col < 0.  linear_system prices
every type that way with a knapsack DP.  Everything is exact (Fraction), and
Bland's rule, with artificial columns after every real one in both the
entering choice and the ratio-test ties, guarantees termination.  At a
positive phase-1 optimum y is a Farkas witness: y . col >= 0 for every column
and y . rhs < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import InvariantViolation


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    #: exact non-negative solution (length = number of columns) when feasible
    solution: tuple[Fraction, ...] | None
    #: separating vector (length = number of rows) when infeasible
    separator: tuple[Fraction, ...] | None


def phase_one(
    rhs: Sequence[int], price: Callable[[tuple[Fraction, ...]], tuple[Any, Sequence[int]] | None]
) -> tuple[dict[Any, Fraction], None] | tuple[None, tuple[Fraction, ...]]:
    """Decide {x >= 0 : sum_j x_j * col_j == rhs} != {} over the columns that
    price(y) returns as (key, col); keys compare in the caller's order.

    Returns (the non-zero basic values by key, None) or (None, separator y),
    each self-checked.
    """
    m = len(rhs)
    sign = [-1 if r < 0 else 1 for r in rhs]
    inverse = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    value = [Fraction(abs(r)) for r in rhs]
    # (0, key, col) for a priced column, (1, i, None) for the artificial of row i
    basis: list[tuple[int, Any, Sequence[int] | None]] = [(1, i, None) for i in range(m)]

    while True:
        # phase-1 multipliers: the inverse rows of the basic artificials, summed
        pi = [sum((inverse[r][c] for r in range(m) if basis[r][0]), Fraction(0)) for c in range(m)]
        y = tuple(-pi[i] * sign[i] for i in range(m))
        found = price(y)
        if found is not None:
            key, col = found
            enter, column = (0, key, col), [sign[i] * col[i] for i in range(m)]
        else:
            # an artificial column has reduced cost 1 - pi_i
            row = next((i for i in range(m) if pi[i] > 1), None)
            if row is None:
                break
            enter, column = (1, row, None), [int(i == row) for i in range(m)]
        u = [sum(a * b for a, b in zip(inverse[r], column) if b) for r in range(m)]
        leave = -1
        best: Fraction | None = None
        for r in range(m):
            if u[r] > 0:
                ratio = value[r] / u[r]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            # can only happen for an unbounded phase-1, which is impossible
            raise InvariantViolation("phase-1 simplex became unbounded")
        piv = u[leave]
        inverse[leave] = [v / piv for v in inverse[leave]]
        value[leave] /= piv
        for r in range(m):
            if r != leave and u[r]:
                f = u[r]
                inverse[r] = [a - f * p for a, p in zip(inverse[r], inverse[leave])]
                value[r] -= f * value[leave]
        basis[leave] = enter

    if sum(value[r] for r in range(m) if basis[r][0]) == 0:
        solution = {basis[r][1]: value[r] for r in range(m) if not basis[r][0] and value[r]}
        # self-check: non-negative and exactly solves the original system
        if any(v < 0 for v in solution.values()):
            raise InvariantViolation("simplex returned a negative solution")
        for i in range(m):
            total = sum(value[r] * col[i] for r, (art, _, col) in enumerate(basis) if not art)
            if total != rhs[i]:
                raise InvariantViolation("simplex returned a non-solution")
        return solution, None
    if sum(a * b for a, b in zip(y, rhs)) >= 0:
        raise InvariantViolation("separator fails the rhs")
    return None, y


def feasible_nonnegative(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> FeasibilityResult:
    """Decide {x >= 0 : sum_j x_j * columns[j] == rhs} != {} exactly.

    columns are given column-wise; all entries are integers.  Pricing scans
    the columns in order.
    """
    m = len(rhs)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length does not match rhs length")

    def first_below(y: Sequence[Fraction]) -> tuple[int, Sequence[int]] | None:
        for j, col in enumerate(columns):
            if sum(a * b for a, b in zip(y, col) if b) < 0:
                return j, col
        return None

    solution, separator = phase_one(rhs, first_below)
    if separator is not None:
        return FeasibilityResult(False, None, separator)
    x = tuple(solution.get(j, Fraction(0)) for j in range(len(columns)))
    return FeasibilityResult(True, x, None)
