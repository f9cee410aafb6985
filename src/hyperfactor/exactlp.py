"""Exact rational LP feasibility via a revised phase-1 simplex with Bland's rule.

The system is  sum_j x_j * col_j == rhs,  x >= 0,  with m rows and integer
data.  The simplex keeps only the m x m basis inverse and never lists the
columns: each step hands its candidate separator, scaled to integers, to a
pricing callback, which returns the first column, in the caller's order,
with y . col < 0.  linear_system prices every type that way with a knapsack
DP.  The pivots are fraction-free (Bareiss 1968): the basis inverse is kept
as its integer adjugate over the basis determinant, so every step is exact
integer arithmetic.  Bland's rule, with artificial columns after every real
one in both the entering choice and the ratio-test ties, guarantees
termination.  At a positive phase-1 optimum y is a Farkas witness:
y . col >= 0 for every column and y . rhs < 0.  It is returned with its
denominators cleared, and a feasible vertex as its values times det: every
number that leaves the kernel is an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Any, Callable, Sequence

from .errors import InvariantViolation


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    #: integer separating vector (length = number of rows) when infeasible
    separator: tuple[int, ...] | None


def _integers(values: Sequence[Any], what: str) -> list[int]:
    ints = list(map(int, values))
    if ints != [*values]:
        raise ValueError(f"{what} has a non-integer entry")
    return ints


def phase_one(
    rhs: Sequence[int], price: Callable[[tuple[int, ...]], tuple[Any, Sequence[int]] | None]
) -> tuple[dict[Any, int], int, None] | tuple[None, None, tuple[int, ...]]:
    """Decide {x >= 0 : sum_j x_j * col_j == rhs} != {} over the columns that
    price(y) returns as (key, col); keys compare in the caller's order.  rhs
    and every column are integers; y is the separator times the (positive)
    basis determinant, so it has the separator's signs.

    Returns (the non-zero basic values times det by key, det, None), or
    (None, None, y // gcd(det, *y)) the cleared separator; each self-checked.
    """
    rhs = _integers(rhs, "rhs")
    m = len(rhs)
    sign = [-1 if r < 0 else 1 for r in rhs]
    # the basis inverse is adj / det with det > 0, and the basic values are
    # value / det; a pivot keeps every entry an integer (Sylvester's identity)
    adj = [[int(r == c) for c in range(m)] for r in range(m)]
    det = 1
    value = [abs(r) for r in rhs]
    # (0, key, col) for a priced column, (1, i, None) for the artificial of row i
    basis: list[tuple[int, Any, Sequence[int] | None]] = [(1, i, None) for i in range(m)]

    while True:
        # phase-1 multipliers times det: the adj rows of the basic artificials, summed
        arts = [adj[r] for r in range(m) if basis[r][0]]
        pi = list(map(sum, zip(*arts))) if arts else [0] * m
        y = tuple(-pi[i] * sign[i] for i in range(m))
        found = price(y)
        if found is not None:
            key, col = found
            col = _integers(col, "column")
            enter, column = (0, key, col), [sign[i] * col[i] for i in range(m)]
        else:
            # an artificial column has reduced cost 1 - pi_i / det
            row = next((i for i in range(m) if pi[i] > det), None)
            if row is None:
                break
            enter, column = (1, row, None), [int(i == row) for i in range(m)]
        u = [sum(map(mul, adj[r], column)) for r in range(m)]
        # ratio test value[r] / u[r], compared by cross-multiplication
        leave = -1
        for r in range(m):
            if u[r] > 0:
                if leave < 0:
                    leave = r
                    continue
                here, there = value[r] * u[leave], value[leave] * u[r]
                if here < there or (here == there and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            # can only happen for an unbounded phase-1, which is impossible
            raise InvariantViolation("phase-1 simplex became unbounded")
        piv, prow, pval = u[leave], adj[leave], value[leave]
        for r in range(m):
            if r == leave:
                continue
            f = u[r]
            if f:
                adj[r] = [(piv * a - f * p) // det for a, p in zip(adj[r], prow)]
                value[r] = (piv * value[r] - f * pval) // det
            elif piv != det:
                adj[r] = [piv * a // det for a in adj[r]]
                value[r] = piv * value[r] // det
        det = piv
        basis[leave] = enter

    if sum(value[r] for r in range(m) if basis[r][0]) == 0:
        solution = {basis[r][1]: value[r] for r in range(m) if not basis[r][0] and value[r]}
        # self-check: non-negative and exactly solves the original system
        if any(v < 0 for v in solution.values()):
            raise InvariantViolation("simplex returned a negative solution")
        for i in range(m):
            total = sum(value[r] * col[i] for r, (art, _, col) in enumerate(basis) if not art)
            if total != rhs[i] * det:
                raise InvariantViolation("simplex returned a non-solution")
        return solution, det, None
    if sum(a * b for a, b in zip(y, rhs)) >= 0:
        raise InvariantViolation("separator fails the rhs")
    g = math.gcd(det, *y)
    return None, None, tuple(v // g for v in y)


def feasible_nonnegative(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> FeasibilityResult:
    """Decide {x >= 0 : sum_j x_j * columns[j] == rhs} != {} exactly.

    columns are given column-wise and must be integers; pricing scans them
    in order.
    """
    if any(len(col) != len(rhs) for col in columns):
        raise ValueError("column length does not match rhs length")
    _integers(list(chain.from_iterable(columns)), "column")

    def first_below(y: Sequence[int]) -> tuple[int, Sequence[int]] | None:
        for j, col in enumerate(columns):
            if sum(map(mul, y, col)) < 0:
                return j, col
        return None

    *_, separator = phase_one(rhs, first_below)
    return FeasibilityResult(separator is None, separator)
