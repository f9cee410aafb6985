"""Tests for the exact rational feasibility kernel."""

import math
from fractions import Fraction
from itertools import product

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
        phase_one([1], lambda y: ((0, [0]), lambda: (0, [0])))


def _reference_phase_one(rhs, price, pivots=None):
    """The revised phase-1 simplex on a Fraction basis inverse, step for step
    the pivots of phase_one: Dantzig's column enters, or Bland's when
    Dantzig's steps zero.  It is the differential oracle for the integer
    kernel, and it fails on a basis it has been in before, which is how a
    cycle would show.  Each pivot's kind ("dantzig", "bland" or
    "artificial") is appended to pivots when given."""
    m = len(rhs)
    sign = [-1 if r < 0 else 1 for r in rhs]
    inverse = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
    value = [Fraction(abs(r)) for r in rhs]
    basis = [(1, i, None) for i in range(m)]
    seen = set()

    def ratio(column):
        u = [sum(a * b for a, b in zip(inverse[r], column) if b) for r in range(m)]
        leave, best = -1, None
        for r in range(m):
            if u[r] > 0:
                here = value[r] / u[r]
                if best is None or here < best or (here == best and basis[r] < basis[leave]):
                    best, leave = here, r
        assert leave >= 0
        return u, leave, best

    while True:
        state = frozenset((kind, key) for kind, key, _ in basis)
        assert state not in seen, "the simplex returned to a basis"
        seen.add(state)
        pi = [sum((inverse[r][c] for r in range(m) if basis[r][0]), Fraction(0)) for c in range(m)]
        y = tuple(-pi[i] * sign[i] for i in range(m))
        found = price(y)
        if found is not None:
            (key, col), bland = found
            kind, enter = "dantzig", (0, key, col)
            u, leave, best = ratio([sign[i] * col[i] for i in range(m)])
            if best == 0:
                bland_key, bland_col = bland()
                if bland_key != key:
                    kind, enter = "bland", (0, bland_key, bland_col)
                    u, leave, best = ratio([sign[i] * bland_col[i] for i in range(m)])
        else:
            row = next((i for i in range(m) if pi[i] > 1), None)
            if row is None:
                break
            kind, enter = "artificial", (1, row, None)
            u, leave, best = ratio([int(i == row) for i in range(m)])
        if pivots is not None:
            pivots.append(kind)
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
    """The pricing of phase_one's contract by a scan of the listed columns:
    the first column of least y . col, and a function that returns the
    first with y . col < 0."""

    def price(y):
        costs = [sum(a * b for a, b in zip(y, col)) for col in columns]
        negative = [j for j, cost in enumerate(costs) if cost < 0]
        if not negative:
            return None
        dantzig = costs.index(min(costs))
        return (dantzig, columns[dantzig]), lambda: (negative[0], columns[negative[0]])

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
        phase_one([1], lambda y: ((0, [Fraction(1, 3)]), lambda: (0, [Fraction(1, 3)])))


def test_blands_column_enters_where_dantzigs_steps_zero():
    """rhs (1, 0) starts degenerate: the artificial of row 2 is basic at 0.
    Dantzig's column (0, 3), of reduced cost -3, would step zero on row 2,
    so Bland's, (1, 0) at -1, enters instead and steps 1.  The next pricing
    sees that basis, y = (0, -1), where Dantzig's column would have left
    y = (-3, 0).  Then Dantzig's column is also Bland's, and enters at a
    zero step.  The outcome is the Fraction reference's."""
    columns, rhs = [[1, 0], [0, 3]], [1, 0]
    scan = _scanning(columns)
    seen, asked = [], []

    def spy(y):
        seen.append(y)
        found = scan(y)
        if found is None:
            return None
        dantzig, bland = found

        def blands():
            asked.append(len(seen))
            return bland()

        return dantzig, blands

    assert phase_one(rhs, spy) == ({0: 3}, 3, None)
    assert seen == [(-1, -1), (0, -1), (0, 0)]
    assert asked == [1, 2]
    pivots = []
    assert _reference_phase_one(rhs, scan, pivots) == ({0: 1}, None)
    assert pivots == ["bland", "dantzig"]


def _small_grid():
    """Every system of two rows, three columns with entries in 0..2, and a
    rhs in {0, 1, 2}^2."""
    entries = list(product(range(3), repeat=2))
    for columns in product(entries, repeat=3):
        for rhs in entries:
            yield [list(col) for col in columns], list(rhs)


def test_small_systems_match_the_reference_through_blands_steps():
    """On the whole grid, phase_one equals the Fraction reference, which
    never returns to a basis, and feasible_nonnegative's scan gives the
    same separator; Bland's column takes the place of Dantzig's
    in 1,823 of its pivots, in 1,667 of its 6,561 systems."""
    fallbacks = systems = 0
    for columns, rhs in _small_grid():
        pivots = []
        solution, det, separator = phase_one(rhs, _scanning(columns))
        ref_solution, ref_separator = _reference_phase_one(rhs, _scanning(columns), pivots)
        if ref_solution is None:
            scale = math.lcm(*(v.denominator for v in ref_separator))
            assert separator == tuple(v * scale for v in ref_separator), (columns, rhs)
        else:
            assert {j: Fraction(v, det) for j, v in solution.items()} == ref_solution, (columns, rhs)
        assert feasible_nonnegative(columns, rhs) == FeasibilityResult(separator is None, separator)
        fallbacks += pivots.count("bland")
        systems += "bland" in pivots
    assert (fallbacks, systems) == (1823, 1667)


@st.composite
def _degenerate_systems(draw):
    """Systems whose pivots often step zero: a rhs with zero entries, and
    columns drawn, with repeats, from a few small ones."""
    m = draw(st.integers(2, 4))
    rhs = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    pool = draw(st.lists(st.lists(st.integers(-1, 2), min_size=m, max_size=m), min_size=1, max_size=4))
    columns = draw(st.lists(st.sampled_from(pool), max_size=8))
    return columns, rhs


@settings(max_examples=400, deadline=None)
@given(_degenerate_systems())
def test_degenerate_systems_match_the_fraction_reference(system):
    """phase_one terminates on every degenerate system, as the reference
    does without returning to a basis, with the reference's outcome; so
    does feasible_nonnegative, whose scan prices as _scanning does."""
    columns, rhs = system
    solution, det, separator = phase_one(rhs, _scanning(columns))
    ref_solution, ref_separator = _reference_phase_one(rhs, _scanning(columns))
    if ref_solution is None:
        scale = math.lcm(*(v.denominator for v in ref_separator))
        assert solution is None and separator == tuple(v * scale for v in ref_separator)
    else:
        assert {j: Fraction(v, det) for j, v in solution.items()} == ref_solution
    assert feasible_nonnegative(columns, rhs) == FeasibilityResult(separator is None, separator)
    _recheck(columns, rhs, FeasibilityResult(separator is None, separator))
