"""Exact rational LP feasibility via a phase-1 simplex with Bland's rule.

Everything runs on fractions.Fraction, so there is no rounding anywhere and
Bland's pivoting rule guarantees termination.  The single entry point decides
whether a system  sum_j x_j * col_j == rhs,  x >= 0  has a rational solution
and, when it does not, extracts a separating vector from the optimal simplex
multipliers (a Farkas witness: y.col_j >= 0 for every column, y.rhs < 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    #: exact non-negative solution (length = number of columns) when feasible
    solution: tuple[Fraction, ...] | None
    #: separating vector (length = number of rows) when infeasible
    separator: tuple[Fraction, ...] | None


def feasible_nonnegative(columns: Sequence[Sequence[int]], rhs: Sequence[int]) -> FeasibilityResult:
    """Decide {x >= 0 : sum_j x_j * columns[j] == rhs} != {} exactly.

    columns are given column-wise; all entries are integers.  The returned
    solution or separator is self-checked against the input before returning.
    """
    m = len(rhs)
    nvar = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length does not match rhs length")

    # orient every row so its right-hand side is non-negative
    sign = [-1 if rhs[i] < 0 else 1 for i in range(m)]
    b = [Fraction(sign[i] * rhs[i]) for i in range(m)]

    # tableau rows: x columns | artificial identity | rhs
    width = nvar + m + 1
    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(sign[i] * columns[j][i]) for j in range(nvar)]
        row += [Fraction(1 if t == i else 0) for t in range(m)]
        row.append(b[i])
        rows.append(row)
    basis = [nvar + i for i in range(m)]

    # phase-1 objective: minimise the sum of artificials.  obj holds reduced
    # costs; its last cell is minus the current objective value.
    obj = [Fraction(0)] * width
    for j in range(width):
        s = sum(rows[i][j] for i in range(m))
        c = Fraction(1) if j >= nvar and j < nvar + m else Fraction(0)
        obj[j] = c - s
    obj[-1] = -sum(b)

    while True:
        enter = -1
        for j in range(nvar + m):  # Bland: lowest eligible index
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # can only happen for an unbounded phase-1, which is impossible
            raise InvariantViolation("phase-1 simplex became unbounded")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * p for a, p in zip(obj, rows[leave])]
        basis[leave] = enter

    value = -obj[-1]
    if value == 0:
        x = [Fraction(0)] * nvar
        for i, bv in enumerate(basis):
            if bv < nvar:
                x[bv] = rows[i][-1]
        # self-check: non-negative and exactly solves the original system
        if any(v < 0 for v in x):
            raise InvariantViolation("simplex returned a negative solution")
        for i in range(m):
            total = sum(x[j] * columns[j][i] for j in range(nvar))
            if total != rhs[i]:
                raise InvariantViolation("simplex returned a non-solution")
        return FeasibilityResult(True, tuple(x), None)

    # infeasible: simplex multipliers u_i = 1 - reduced cost of artificial i
    # satisfy u.col_j <= 0 and u.b = value > 0; negate and undo row signs.
    y = [-(Fraction(1) - obj[nvar + i]) * sign[i] for i in range(m)]
    for j in range(nvar):
        if sum(y[i] * columns[j][i] for i in range(m)) < 0:
            raise InvariantViolation("separator fails a column")
    if sum(y[i] * rhs[i] for i in range(m)) >= 0:
        raise InvariantViolation("separator fails the rhs")
    return FeasibilityResult(False, None, tuple(y))
