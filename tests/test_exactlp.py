"""Tests for the exact rational feasibility kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfactor.errors import InvariantViolation
from hyperfactor.exactlp import FeasibilityResult, feasible_nonnegative, phase_one


def _recheck(columns, rhs, result):
    """A feasible result must have a solution, which phase_one finds as ints
    over det and this checks; an infeasible one an integer separator, which
    this checks."""
    if result.feasible:
        solution, det, separator = phase_one(rhs, _scanning(columns))
        assert separator is None and type(det) is int and det > 0
        x = [solution.get(j, 0) for j in range(len(columns))]
        assert all(type(v) is int and v >= 0 for v in x)
        for i in range(len(rhs)):
            assert sum(x[j] * columns[j][i] for j in range(len(columns))) == rhs[i] * det
    else:
        y = result.separator
        assert all(isinstance(v, int) for v in y)
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
    """The kernel takes ints only; a column with any other entry is refused
    before any pivot, even one that would never enter the basis."""
    columns = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError, match="column has a non-integer entry"):
        feasible_nonnegative(columns, [0, 0])
    with pytest.raises(ValueError, match="column has a non-integer entry"):
        feasible_nonnegative([[1], [Fraction(1, 3)]], [1])
    with pytest.raises(ValueError, match="rhs has a non-integer entry"):
        feasible_nonnegative([[1, 2]], [Fraction(1, 4), 1])
    # the package's one int rule: an integral Fraction, a float or a bool is no int
    for entry in (Fraction(2), 2.0, True):
        with pytest.raises(ValueError, match="column has a non-integer entry"):
            feasible_nonnegative([[entry]], [4])
        with pytest.raises(ValueError, match="rhs has a non-integer entry"):
            feasible_nonnegative([[2]], [entry])


def test_requires_mixing():
    # x1*(2,1) + x2*(1,2) = (4,5) has the unique solution (1,2)
    columns = [[2, 1], [1, 2]]
    rhs = [4, 5]
    assert feasible_nonnegative(columns, rhs).feasible
    # over det = 3, the determinant of the two columns
    assert phase_one(rhs, _scanning(columns)) == ({0: 3, 1: 6}, 3, None)


def test_phase_one_returns_a_fractional_vertex_as_ints_over_det():
    """x = 1/2 solves 2x = 1: phase_one returns the value 1 over det 2."""
    solution, det, separator = phase_one([1], _scanning([[2]]))
    assert (solution, det, separator) == ({0: 1}, 2, None)
    assert all(type(v) is int for v in (*solution.values(), det))


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


def _reference_phase_one(rhs, price):
    """The revised phase-1 simplex on a Fraction basis inverse, step for step
    the pivots of phase_one: the differential oracle for its integer kernel."""
    m = len(rhs)
    sign = [-1 if r < 0 else 1 for r in rhs]
    inverse = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    value = [Fraction(abs(r)) for r in rhs]
    basis = [(1, i, None) for i in range(m)]
    while True:
        pi = [sum((inverse[r][c] for r in range(m) if basis[r][0]), Fraction(0)) for c in range(m)]
        y = tuple(-pi[i] * sign[i] for i in range(m))
        found = price(y)
        if found is not None:
            key, col = found
            enter, column = (0, key, col), [sign[i] * col[i] for i in range(m)]
        else:
            row = next((i for i in range(m) if pi[i] > 1), None)
            if row is None:
                break
            enter, column = (1, row, None), [int(i == row) for i in range(m)]
        u = [sum(a * b for a, b in zip(inverse[r], column) if b) for r in range(m)]
        leave, best = -1, None
        for r in range(m):
            if u[r] > 0:
                ratio = value[r] / u[r]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        assert leave >= 0
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
        return {basis[r][1]: value[r] for r in range(m) if not basis[r][0] and value[r]}, None
    return None, y


def _scanning(columns):
    def price(y):
        for j, col in enumerate(columns):
            if sum(a * b for a, b in zip(y, col)) < 0:
                return j, col
        return None

    return price


@st.composite
def _integer_systems(draw):
    m = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), max_size=8))
    rhs = draw(st.lists(st.integers(-5, 9), min_size=m, max_size=m))
    return columns, rhs


@settings(max_examples=400, deadline=None)
@given(_integer_systems())
def test_phase_one_matches_the_fraction_reference(system):
    """The same solution as the Fraction tableau, once divided by det, and its
    separator times the lcm of the separator's denominators."""
    columns, rhs = system
    solution, det, separator = phase_one(rhs, _scanning(columns))
    ref_solution, ref_separator = _reference_phase_one(rhs, _scanning(columns))
    if ref_solution is None:
        assert solution is None and det is None
    else:
        assert {j: Fraction(v, det) for j, v in solution.items()} == ref_solution
    if ref_separator is None:
        assert separator is None
    else:
        scale = math.lcm(*(v.denominator for v in ref_separator))
        assert separator == tuple(v * scale for v in ref_separator)
    _recheck(columns, rhs, FeasibilityResult(separator is None, separator))
    _recheck(columns, rhs, feasible_nonnegative(columns, rhs))


def test_phase_one_refuses_non_integer_data():
    with pytest.raises(ValueError, match="rhs has a non-integer entry"):
        phase_one([Fraction(1, 2)], lambda y: None)
    with pytest.raises(ValueError, match="column has a non-integer entry"):
        phase_one([1], lambda y: (0, [Fraction(1, 3)]))
