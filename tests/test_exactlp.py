"""Tests for the exact rational feasibility kernel."""

from fractions import Fraction

import pytest

from hyperfactor.errors import InvariantViolation
from hyperfactor.exactlp import feasible_nonnegative, phase_one


def _recheck(columns, rhs, result):
    if result.feasible:
        x = result.solution
        assert all(v >= 0 for v in x)
        for i in range(len(rhs)):
            assert sum(x[j] * columns[j][i] for j in range(len(columns))) == rhs[i]
    else:
        y = result.separator
        for col in columns:
            assert sum(a * b for a, b in zip(y, col)) >= 0
        assert sum(a * b for a, b in zip(y, rhs)) < 0


def test_feasible_simple():
    columns = [[1], [2]]
    rhs = [3]
    result = feasible_nonnegative(columns, rhs)
    assert result.feasible
    _recheck(columns, rhs, result)


def test_infeasible_negative_rhs():
    columns = [[1]]
    rhs = [-1]
    result = feasible_nonnegative(columns, rhs)
    assert not result.feasible
    _recheck(columns, rhs, result)


def test_infeasible_inconsistent_rows():
    # the single variable would need to be 1 and 2 at once
    columns = [[1, 1]]
    rhs = [1, 2]
    result = feasible_nonnegative(columns, rhs)
    assert not result.feasible
    _recheck(columns, rhs, result)


def test_empty_columns():
    assert feasible_nonnegative([], [0, 0]).feasible
    result = feasible_nonnegative([], [1])
    assert not result.feasible
    _recheck([], [1], result)


def test_fractional_data():
    columns = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1)]]
    rhs = [Fraction(1, 4), Fraction(3, 2)]
    result = feasible_nonnegative(columns, rhs)
    assert result.feasible
    _recheck(columns, rhs, result)
    assert result.solution[0] == Fraction(1, 2)
    assert result.solution[1] == Fraction(1)


def test_requires_mixing():
    # x1*(2,1) + x2*(1,2) = (4,5) has the unique solution (1,2)
    columns = [[2, 1], [1, 2]]
    rhs = [4, 5]
    result = feasible_nonnegative(columns, rhs)
    assert result.feasible
    assert tuple(result.solution) == (Fraction(1), Fraction(2))


def test_exhaustive_tiny_systems():
    """Compare against brute-force rational feasibility on a small grid.

    For 2x2 systems with entries in 0..2 a non-negative solution exists iff
    some x on a fine grid hits the rhs exactly; instead of a grid we check
    via case analysis: try all vertex bases exactly.
    """
    from itertools import product

    def brute(columns, rhs):
        # try x with a single nonzero, then pairs solved exactly
        ncols = len(columns)
        if all(v == 0 for v in rhs):
            return True
        for j in range(ncols):
            col = columns[j]
            ratios = {Fraction(rhs[i], col[i]) for i in range(2) if col[i]}
            zeros_ok = all(rhs[i] == 0 for i in range(2) if not col[i])
            if len(ratios) == 1 and zeros_ok and next(iter(ratios)) >= 0:
                return True
        for a in range(ncols):
            for b in range(a + 1, ncols):
                ca, cb = columns[a], columns[b]
                det = ca[0] * cb[1] - ca[1] * cb[0]
                if det == 0:
                    continue
                xa = Fraction(rhs[0] * cb[1] - rhs[1] * cb[0], det)
                xb = Fraction(ca[0] * rhs[1] - ca[1] * rhs[0], det)
                if xa >= 0 and xb >= 0:
                    return True
        return False

    entries = (0, 1, 2)
    for c1 in product(entries, repeat=2):
        for c2 in product(entries, repeat=2):
            for rhs in product((0, 1, 3), repeat=2):
                columns = [list(c1), list(c2)]
                result = feasible_nonnegative(columns, list(rhs))
                assert result.feasible == brute(columns, rhs), (columns, rhs)
                _recheck(columns, list(rhs), result)


def test_unbounded_phase_one_raises():
    # a column that improves nothing has no leaving row
    with pytest.raises(InvariantViolation, match="unbounded"):
        phase_one([1], lambda y: (0, [0]))
