"""Tests for the level-counting system, LP dichotomy and integer search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import LevelSet, binomial, iter_types
from hyperfactor import linear_system
from hyperfactor.errors import SearchLimitExceeded
from hyperfactor.exactlp import FeasibilityResult
from hyperfactor.linear_system import (
    CertificateCheck,
    FarkasCertificate,
    build_system,
    check_certificate,
    integer_search_small,
    lp_feasible,
    solution_residual,
    verify_certificate,
)


def test_build_system_uniform_pairs():
    system = build_system(4, LevelSet.of([2]))
    assert system.types == ((0, 2),)
    assert system.b == (0, 6)


def test_build_system_full_range():
    system = build_system(7, LevelSet.full(3))
    assert len(system.types) == 8
    assert system.b == (7, 21, 35)
    system = build_system(18, LevelSet.full(6))
    assert len(system.types) == 199
    assert system.b[5] == 18564
    assert system.b == tuple(binomial(18, i) for i in range(1, 7))


def test_build_system_sparse_b_zeros():
    system = build_system(12, LevelSet.of([2, 4]))
    assert system.b == (0, 66, 0, 495)
    assert all(lam[0] == lam[2] == 0 for lam in system.types)


def test_solution_residual():
    levels = LevelSet.full(3)
    solution = {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41}
    assert solution_residual(12, levels, solution) == (0, 0, 0)
    short = {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 40}
    assert solution_residual(12, levels, short) == (0, 0, -4)
    with pytest.raises(ValueError):
        solution_residual(12, levels, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        solution_residual(12, levels, {(3, 0, 3): -1})


def test_verify_certificate_examples():
    system = build_system(7, LevelSet.full(3))
    check = verify_certificate(system, FarkasCertificate((2, Fraction(1, 2), -1)))
    assert check.ok
    assert check.b_dot_y == Fraction(-21, 2)

    system18 = build_system(18, LevelSet.full(6))
    check = verify_certificate(system18, FarkasCertificate((3, 3, 3, 1, -1, 0)))
    assert check.ok
    assert check.b_dot_y == -2547


def test_verify_certificate_rejects():
    system = build_system(7, LevelSet.full(3))
    check = verify_certificate(system, FarkasCertificate((2, Fraction(1, 2), -2)))
    assert not check.ok
    assert check.violating_type == (1, 0, 2)
    # non-separating vector: all rows fine but b.y >= 0
    check = verify_certificate(system, FarkasCertificate((1, 1, 1)))
    assert not check.ok
    assert check.violating_type is None
    assert check.b_dot_y > 0
    with pytest.raises(ValueError):
        verify_certificate(system, FarkasCertificate((1, 1)))


def _streamed_check(n, levels, cert):
    """Reference Farkas check: stream the type rows in canonical order."""
    y = cert.y
    if len(y) != levels.k:
        raise ValueError(f"certificate length {len(y)} != k={levels.k}")
    for lam in iter_types(n, levels):
        if sum(c * y[i] for i, c in enumerate(lam)) < 0:
            return CertificateCheck(False, lam, Fraction(0))
    b_dot = sum(binomial(n, i) * y[i - 1] for i in levels)
    return CertificateCheck(b_dot < 0, None, b_dot)


@st.composite
def _certificate_instances(draw):
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n))
    lower = draw(st.sets(st.integers(1, k - 1))) if k > 1 else set()
    levels = LevelSet.of(lower | {k})
    # mostly small negative entries, so that both verdicts and both kinds of
    # failure occur
    entry = st.builds(Fraction, st.integers(-2, 4), st.sampled_from([1, 2, 3]))
    y = draw(st.lists(entry, min_size=k, max_size=k))
    return n, levels, FarkasCertificate(tuple(y))


@settings(max_examples=400, deadline=None)
@given(_certificate_instances())
def test_check_certificate_matches_row_streaming(instance):
    n, levels, cert = instance
    assert check_certificate(n, levels, cert) == _streamed_check(n, levels, cert)


def test_check_certificate_edge_cases():
    # no (7, {2, 4})-type exists: every y satisfies the row condition
    levels = LevelSet.of([2, 4])
    check = check_certificate(7, levels, FarkasCertificate((0, 1, 0, -1)))
    assert check == CertificateCheck(True, None, Fraction(-14))
    check = check_certificate(7, levels, FarkasCertificate((0, -1, 0, -1)))
    assert check == CertificateCheck(True, None, Fraction(-56))
    check = check_certificate(7, levels, FarkasCertificate((0, 1, 0, 1)))
    assert check == CertificateCheck(False, None, Fraction(56))
    with pytest.raises(ValueError, match="exceeds ground size"):
        check_certificate(3, LevelSet.full(4), FarkasCertificate((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="certificate length"):
        check_certificate(7, levels, FarkasCertificate((1, 1, 1)))


def test_lp_feasible_outcomes():
    feasible_cases = [(12, 3), (11, 3), (6, 2), (9, 2)]
    for n, k in feasible_cases:
        out = lp_feasible(build_system(n, LevelSet.full(k)))
        assert out.feasible and out.solution is not None and out.certificate is None
    infeasible_cases = [(18, 6), (7, 3), (10, 3), (9, 4), (10, 4)]
    for n, k in infeasible_cases:
        system = build_system(n, LevelSet.full(k))
        out = lp_feasible(system)
        assert not out.feasible and out.certificate is not None
        assert verify_certificate(system, out.certificate).ok
        # certificates are scaled to integers
        assert all(v.denominator == 1 for v in out.certificate.y)


def test_lp_solution_is_exact():
    system = build_system(12, LevelSet.full(3))
    out = lp_feasible(system)
    res = [-b for b in system.b]
    for lam, v in out.solution.items():
        assert v >= 0
        for i, c in enumerate(lam):
            res[i] += c * v
    assert all(r == 0 for r in res)


def test_integer_search_finds_and_refutes():
    system = build_system(12, LevelSet.full(3))
    sol = integer_search_small(system)
    assert sol is not None
    assert not any(solution_residual(system.n, system.levels, sol))

    assert integer_search_small(build_system(7, LevelSet.full(3))) is None
    assert integer_search_small(build_system(18, LevelSet.full(6))) is None
    assert integer_search_small(build_system(10, LevelSet.full(4))) is None


def _without_cone_prune(monkeypatch):
    """Answer every cone test of the search with "contained", which turns
    the exact rational prune off."""
    contained = FeasibilityResult(True, None, None)
    monkeypatch.setattr(linear_system, "feasible_nonnegative", lambda columns, rhs: contained)


def test_integer_search_with_and_without_relaxation_prune(monkeypatch):
    for n, k in [(7, 3), (9, 3), (9, 4), (11, 3), (12, 3), (12, 4)]:
        system = build_system(n, LevelSet.full(k))
        a = integer_search_small(system)
        with monkeypatch.context() as m:
            _without_cone_prune(m)
            b = integer_search_small(system)
        assert (a is None) == (b is None), (n, k)
        if a is not None:
            assert not any(solution_residual(system.n, system.levels, a))
            assert not any(solution_residual(system.n, system.levels, b))


def test_relaxation_prune_is_load_bearing(monkeypatch):
    """Refuting (10, {1..4}) by budgets alone needs millions of nodes; the
    exact rational cone prune collapses it to a handful."""
    system = build_system(10, LevelSet.full(4))
    assert integer_search_small(system) is None
    _without_cone_prune(monkeypatch)
    with pytest.raises(SearchLimitExceeded):
        integer_search_small(system, node_limit=200_000)


def test_integer_search_type_limit(monkeypatch):
    system = build_system(18, LevelSet.full(6))
    monkeypatch.setattr(linear_system, "SEARCH_TYPE_LIMIT", 10)
    with pytest.raises(ValueError):
        integer_search_small(system)
