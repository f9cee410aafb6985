"""Tests for the level-counting system, LP dichotomy and integer search."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import (
    LevelSet,
    binomial,
    canonical_key,
    count_types,
    enumerate_types,
    iter_types,
)
import hyperfactor.linear_system as linear_system
from hyperfactor.decide import Status, decide, decide_general
from hyperfactor.errors import InvariantViolation, SearchLimitExceeded
from hyperfactor.exactlp import FeasibilityResult, feasible_nonnegative, phase_one
from hyperfactor.linear_system import (
    CertificateCheck,
    FarkasCertificate,
    LinearSystem,
    build_system,
    check_certificate,
    first_negative_type,
    integer_search_small,
    lp_feasible,
    solution_residual,
    verify_certificate,
)
from test_exactlp import _reference_phase_one, _scanning


def test_build_system_uniform_pairs():
    system = build_system(4, LevelSet.of([2]))
    assert enumerate_types(4, system.levels) == [(0, 2)]
    assert system.b == (0, 6)


def test_build_system_full_range():
    system = build_system(7, LevelSet.full(3))
    assert len(enumerate_types(7, system.levels)) == 8
    assert system.b == (7, 21, 35)
    system = build_system(18, LevelSet.full(6))
    assert len(enumerate_types(18, system.levels)) == 199
    assert system.b[5] == 18564
    assert system.b == tuple(binomial(18, i) for i in range(1, 7))


def test_build_system_sparse_b_zeros():
    system = build_system(12, LevelSet.of([2, 4]))
    assert system.b == (0, 66, 0, 495)
    assert all(lam[0] == lam[2] == 0 for lam in enumerate_types(12, system.levels))


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
    with pytest.raises(ValueError, match=r"is not an int: Fraction\(4, 1\)"):
        solution_residual(12, levels, {(3, 0, 3): Fraction(4), (0, 3, 2): 22, (0, 0, 4): 41})
    for flag in (True, False):
        with pytest.raises(ValueError, match=rf"\(0, 1\) is not an int: {flag}$"):
            solution_residual(2, LevelSet.full(2), {(0, 1): flag})


def _over_one_den(values):
    """Rational values as (ints, den), over the lcm den of their denominators."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    return tuple(int(v * den) for v in values), den


def test_verify_certificate_examples():
    system = build_system(7, LevelSet.full(3))
    cert = FarkasCertificate((4, 1, -2), 2)  # (2, 1/2, -1)
    check = verify_certificate(system, cert)
    assert check.ok
    assert Fraction(check.b_dot_y, cert.den) == Fraction(-21, 2)

    system18 = build_system(18, LevelSet.full(6))
    check = verify_certificate(system18, FarkasCertificate((3, 3, 3, 1, -1, 0)))
    assert check.ok
    assert check.b_dot_y == -2547


def test_verify_certificate_rejects():
    system = build_system(7, LevelSet.full(3))
    check = verify_certificate(system, FarkasCertificate((4, 1, -4), 2))
    assert not check.ok
    assert check.violating_type == (1, 0, 2)
    # non-separating vector: all rows fine but b.y >= 0
    check = verify_certificate(system, FarkasCertificate((1, 1, 1)))
    assert not check.ok
    assert check.violating_type is None
    assert check.b_dot_y > 0
    with pytest.raises(ValueError):
        verify_certificate(system, FarkasCertificate((1, 1)))


@pytest.mark.parametrize(
    "y, den",
    [
        ((Fraction(1, 2), -1), 1),
        ((Fraction(2), -1), 1),  # integral, yet not an int
        ((2.0, -1), 1),
        ((True, -1), 1),
        ((2, -1), 0),
        ((2, -1), -2),
        ((2, -1), True),
        ((2, -1), 2.0),
    ],
)
def test_certificate_refuses_a_non_int_entry_or_den(y, den):
    with pytest.raises(ValueError, match="certificate is not ints over a den >= 1"):
        FarkasCertificate(y, den)


def test_certificate_is_reduced_by_the_gcd():
    """Equal rational vectors give equal certificates, as Fractions would."""
    assert FarkasCertificate((2, -2), 2) == FarkasCertificate((1, -1))
    assert FarkasCertificate((6, 3, 0), 9) == FarkasCertificate([2, 1, 0], 3)
    cert = FarkasCertificate((4, 1, -2), 2)
    assert (cert.y, cert.den) == ((4, 1, -2), 2)
    assert FarkasCertificate((0, 0), 5) == FarkasCertificate((0, 0))


def _streamed_check(n, levels, cert):
    """Reference Farkas check: stream the type rows in canonical order."""
    y = cert.y
    if len(y) != levels.k:
        raise ValueError(f"certificate length {len(y)} != k={levels.k}")
    for lam in iter_types(n, levels):
        if sum(c * y[i] for i, c in enumerate(lam)) < 0:
            return CertificateCheck(False, lam, 0)
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
    return n, levels, FarkasCertificate(*_over_one_den(y))


@settings(max_examples=400, deadline=None)
@given(_certificate_instances())
def test_check_certificate_matches_row_streaming(instance):
    n, levels, cert = instance
    assert check_certificate(n, levels, cert) == _streamed_check(n, levels, cert)


def test_check_certificate_edge_cases():
    # no (7, {2, 4})-type exists: every y satisfies the row condition
    levels = LevelSet.of([2, 4])
    check = check_certificate(7, levels, FarkasCertificate((0, 1, 0, -1)))
    assert check == CertificateCheck(True, None, -14)
    check = check_certificate(7, levels, FarkasCertificate((0, -1, 0, -1)))
    assert check == CertificateCheck(True, None, -56)
    check = check_certificate(7, levels, FarkasCertificate((0, 1, 0, 1)))
    assert check == CertificateCheck(False, None, 56)
    with pytest.raises(ValueError, match="exceeds ground size"):
        check_certificate(3, LevelSet.full(4), FarkasCertificate((1, 1, 1, 1)))
    with pytest.raises(ValueError, match="certificate length"):
        check_certificate(7, levels, FarkasCertificate((1, 1, 1)))


def _reference_first_negative_type(n, levels, w):
    """first_negative_type as it was before its DP was tightened: weights
    scaled through a dict, every row built over every remainder."""
    scale = math.lcm(*(v.denominator for v in w))
    weight = {j: int(v * scale) for j, v in zip(levels, w)}
    desc = sorted(levels, reverse=True)
    # best[idx][rem]: least sum of c_j * weight[j] over the levels desc[idx:]
    # with sum of j * c_j == rem; None when no such multiplicities exist
    best: list[list[int | None]] = [[None] * (n + 1) for _ in range(len(desc) + 1)]
    best[len(desc)][0] = 0
    for idx in range(len(desc) - 1, -1, -1):
        j = desc[idx]
        row, below = best[idx], best[idx + 1]
        for rem in range(n + 1):
            cell = below[rem]
            if rem >= j and row[rem - j] is not None:
                more = row[rem - j] + weight[j]
                if cell is None or more < cell:
                    cell = more
            row[rem] = cell
    least = best[0][n]
    if least is None or least >= 0:
        return None
    # canonical order takes the most parts of the largest level first, so the
    # first negative type takes, level by level, the largest multiplicity
    # whose best completion is still negative
    lam = [0] * levels.k
    rem, acc = n, 0
    for idx, j in enumerate(desc):
        below = best[idx + 1]
        for c in range(rem // j, -1, -1):
            tail = below[rem - c * j]
            if tail is not None and acc + c * weight[j] + tail < 0:
                break
        else:
            raise InvariantViolation(f"knapsack walk found no negative type for n={n}")
        lam[j - 1] = c
        rem -= c * j
        acc += c * weight[j]
    return tuple(lam)


def _reference_check_certificate(n, levels, cert):
    """check_certificate as it was before it cleared denominators: the DP on
    the Fraction entries y_i / den, and b . y as a sum of Fraction products."""
    y = [Fraction(v, cert.den) for v in cert.y]
    if len(y) != levels.k:
        raise ValueError(f"certificate length {len(y)} != k={levels.k}")
    levels.check_against_ground(n)
    lam = _reference_first_negative_type(n, levels, [y[j - 1] for j in levels])
    if lam is not None:
        return CertificateCheck(False, lam, Fraction(0))
    b_dot = sum(binomial(n, i) * y[i - 1] for i in levels)
    return CertificateCheck(b_dot < 0, None, b_dot)


@st.composite
def _knapsack_levels(draw):
    """(n, levels) with n <= 64: one level, dividing n or not; a smallest
    level of at least 2 that does not divide n; a full range; or any set."""
    kind = draw(st.sampled_from(["single", "coarse", "range", "any"]))
    if kind == "coarse":
        low = draw(st.integers(2, 32))
        r = draw(st.integers(1, low - 1))
        n = draw(st.integers(1, (64 - r) // low)) * low + r
        higher = draw(st.sets(st.integers(low + 1, n))) if n > low else set()
        return n, LevelSet.of(higher | {low})
    n = draw(st.integers(1, 64))
    if kind == "single":
        divides = [j for j in range(1, n + 1) if n % j == 0]
        other = [j for j in range(1, n + 1) if n % j]
        pool = draw(st.sampled_from([p for p in (divides, other) if p]))
        return n, LevelSet.of([draw(st.sampled_from(pool))])
    k = draw(st.integers(1, n))
    if kind == "range":
        return n, LevelSet.full(k)
    lower = draw(st.sets(st.integers(1, k - 1))) if k > 1 else set()
    return n, LevelSet.of(lower | {k})


def _knapsack_weights(count):
    """count weights, all of one kind: small ints, Fractions with mixed
    denominators, both mixed, large ints, or non-negative Fractions; the
    small kinds include zeros."""
    small = st.integers(-3, 4)
    fraction = st.builds(Fraction, small, st.sampled_from([1, 2, 3, 4, 6, 7]))
    entry = st.sampled_from(
        [
            small,
            fraction,
            st.one_of(small, fraction),
            st.integers(-(10**20), 10**20),
            st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3, 5])),
        ]
    )
    return entry.flatmap(lambda e: st.lists(e, min_size=count, max_size=count))


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_first_negative_type_matches_the_reference(data):
    n, levels = data.draw(_knapsack_levels())
    w = data.draw(_knapsack_weights(len(levels.levels)))
    expected = _reference_first_negative_type(n, levels, w)
    ints, _ = _over_one_den(w)
    assert first_negative_type(n, levels, list(ints)) == expected
    assert first_negative_type(n, levels, ints) == expected


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_check_certificate_matches_the_reference(data):
    """The whole CertificateCheck, b . y over den included, equals the
    Fraction check's, also when y's entries off the levels carry
    denominators."""
    n, levels = data.draw(_knapsack_levels())
    on_levels = dict(zip(levels, data.draw(_knapsack_weights(len(levels.levels)))))
    off = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 5]))
    y = [on_levels[i] if i in on_levels else data.draw(off) for i in range(1, levels.k + 1)]
    cert = FarkasCertificate(*_over_one_den(y))
    check = check_certificate(n, levels, cert)
    assert type(check.b_dot_y) is int
    check = CertificateCheck(check.ok, check.violating_type, Fraction(check.b_dot_y, cert.den))
    assert check == _reference_check_certificate(n, levels, cert)


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
        assert out.certificate.den == 1


def test_lp_solution_is_exact():
    system = build_system(12, LevelSet.full(3))
    out = lp_feasible(system)
    res = [-b * out.det for b in system.b]
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


def test_integer_search_checks_its_witness():
    """A hand-built system whose targets are all 0 is met by the empty
    solution, which leaves (6, {1, 2}) short of all its sets."""
    system = LinearSystem(6, LevelSet.full(2), (0, 0))
    with pytest.raises(InvariantViolation, match=r"search residual \(-6, -15\) for n=6"):
        integer_search_small(system)


def _without_cone_prune(monkeypatch):
    """Answer every cone test of the search with "contained", which turns
    the exact rational prune off."""
    contained = FeasibilityResult(True, None)
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
        integer_search_small(system)


def test_integer_search_type_limit(monkeypatch):
    system = build_system(18, LevelSet.full(6))
    monkeypatch.setattr(linear_system, "SEARCH_TYPE_LIMIT", 10)
    with pytest.raises(SearchLimitExceeded):
        integer_search_small(system)


@pytest.mark.parametrize(
    "n, levels, nodes, found",
    [
        (17, (3, 4, 5, 6), 686, True),
        (19, (3, 4, 5), 133, True),
        (20, (3, 4, 5, 6, 7), 132, True),
        (12, (1, 2, 3, 4, 5, 6, 7), 66, True),
        # 188 types, refuted by the cone test at the root
        (21, (1, 2, 4, 5, 6, 7), 1, False),
    ],
)
def test_integer_search_node_counts(monkeypatch, n, levels, nodes, found):
    """The search settles in exactly `nodes` nodes: one fewer raises."""
    system = build_system(n, LevelSet(levels))
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", nodes)
    solution = integer_search_small(system)
    if found:
        assert not any(solution_residual(n, system.levels, solution))
    else:
        assert solution is None
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", nodes - 1)
    with pytest.raises(SearchLimitExceeded):
        integer_search_small(system)


#: Non-range sets the manifest records as settled by the LP, half of them
#: infeasible and half rationally feasible.
_LP_SETS = [
    (21, (1, 2, 3, 4, 5, 7)), (28, (1, 2, 3, 5, 6, 7)), (29, (1, 2, 4, 5, 6)),
    (31, (1, 4, 5, 6, 7, 8)), (32, (1, 2, 3, 5, 8)), (32, (1, 2, 5, 6, 7, 8)),
    (32, (1, 3, 5, 6, 7, 8)), (35, (1, 2, 4, 6, 7)), (39, (1, 2, 6, 7, 8)),
    (40, (1, 2, 3, 4, 6, 7, 8)), (40, (1, 2, 4, 6, 7, 8)), (40, (1, 3, 4, 7, 8)),
    (20, (1, 2, 3, 4, 6, 7)), (27, (1, 2, 3, 6, 7)), (29, (1, 3, 4, 5, 6)),
    (31, (1, 2, 3, 7, 8)), (31, (1, 3, 4, 5, 7, 8)), (32, (1, 2, 4, 5, 6, 8)),
    (34, (1, 2, 3, 5, 6, 7)), (34, (1, 2, 5, 6, 7)), (34, (2, 3, 4, 5, 6, 7)),
    (35, (1, 2, 5, 6, 7)), (35, (2, 3, 4, 5, 6, 7)), (39, (1, 2, 3, 7, 8)),
]


def _dp_instances():
    """Every range with n <= 14, and _LP_SETS."""
    instances = [(n, LevelSet.full(k)) for n in range(1, 15) for k in range(1, n + 1)]
    return instances + [(n, LevelSet.of(levels)) for n, levels in _LP_SETS]


def test_dp_pricing_matches_scan_pricing():
    """lp_feasible prices all types with the knapsack DP; the same simplex
    pricing by scanning the listed types must take the same pivots, so the
    solution and the separator on the levels are identical."""
    outcomes = set()
    for n, levels in _dp_instances():
        system = build_system(n, levels)
        types = enumerate_types(n, levels)
        rows = [l - 1 for l in levels]
        columns = [[lam[i] for i in rows] for lam in types]
        rhs = [system.b[i] for i in rows]
        scan = feasible_nonnegative(columns, rhs)
        out = lp_feasible(system)
        assert out.feasible == scan.feasible, (n, levels)
        if scan.feasible:
            solution, det, _ = phase_one(rhs, _scanning(columns))
            assert out.solution == {types[j]: v for j, v in solution.items()}, (n, levels)
            assert out.det == det, (n, levels)
        else:
            y = [0] * levels.k
            for pos, i in enumerate(rows):
                y[i] = scan.separator[pos]
            assert out.certificate.y == tuple(y), (n, levels)
        outcomes.add((levels.is_full_range(), out.feasible))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def _fraction_lcm_certificate(n, levels):
    """The certificate as lp_feasible built it while phase_one returned its
    separator as Fractions: the separator of the Fraction tableau, priced by
    the knapsack DP, placed on its levels and multiplied by the lcm of its
    denominators."""

    def price(y):
        lam = first_negative_type(n, levels, _over_one_den(y)[0])
        if lam is None:
            return None
        return (canonical_key(lam), lam), [lam[j - 1] for j in levels]

    _, separator = _reference_phase_one([binomial(n, j) for j in levels], price)
    by_level = dict(zip(levels, separator))
    y = [by_level.get(j, Fraction(0)) for j in range(1, levels.k + 1)]
    return FarkasCertificate(_over_one_den(y)[0])


def test_lp_certificate_matches_the_fraction_lcm_construction():
    """On every set the suite refutes with the LP, lp_feasible's certificate
    is the one the Fraction separator and an lcm give: the ranges with
    n <= 14 and _LP_SETS, and the non-range sets with k <= 8, n <= 64 and
    more than 5,000 types that decide_general refutes with the simplex."""
    refuted = []
    for n, levels in _dp_instances():
        out = lp_feasible(build_system(n, levels))
        if not out.feasible:
            refuted.append((n, levels, out.certificate))
    swept = len(refuted)
    for n in range(9, 65):
        for k in range(2, 9):
            for bits in range(2 ** (k - 1)):
                levels = LevelSet.of([j for j in range(1, k) if bits >> (j - 1) & 1] + [k])
                if levels.is_full_range() or count_types(n, levels) <= 5000:
                    continue
                v = decide_general(n, levels)
                if v.family == "simplex-derived":
                    refuted.append((n, levels, v.certificate))
    assert len(refuted) - swept == 13
    for n, levels, cert in refuted:
        assert cert == _fraction_lcm_certificate(n, levels), (n, levels)


def test_lp_outcomes_pin_blands_pivots():
    """Outcomes the earlier dense tableau produced, over every type listed.
    Each one changes if an artificial column may not re-enter or if ratio
    ties stop going to the first basic column in canonical order."""
    certificates = {
        (5, (1, 2, 4)): (2, -1, 0, -1),
        (7, (1, 2, 3, 4, 6)): (3, -1, 2, -2, 0, -2),
        (9, (1, 2, 4, 5, 6)): (4, -1, 0, -2, 2, -2),
        (11, (2, 3, 4, 6, 7)): (0, 3, -1, 1, 0, -1, -1),
        (29, (1, 2, 4, 5, 6)): (14, -1, 0, -2, 12, -3),
    }
    for (n, levels), y in certificates.items():
        out = lp_feasible(build_system(n, LevelSet.of(levels)))
        assert out.certificate == FarkasCertificate(y), (n, levels)
    out = lp_feasible(build_system(10, LevelSet.of([1, 2, 4, 6])))
    assert {lam: Fraction(v, out.det) for lam, v in out.solution.items()} == {
        (0, 0, 0, 1, 0, 1): 190, (0, 2, 0, 0, 0, 1): Fraction(35, 2),
        (4, 0, 0, 0, 0, 1): Fraction(5, 2), (0, 1, 0, 2, 0, 0): 10,
    }


def test_lp_rechecks_its_certificate(monkeypatch):
    monkeypatch.setattr(
        linear_system, "check_certificate", lambda n, levels, cert: CertificateCheck(False, None, 0)
    )
    with pytest.raises(InvariantViolation, match="failed validation"):
        lp_feasible(build_system(7, LevelSet.full(3)))


def test_lp_feasibility_of_a_full_range_matches_decide():
    """The paper's theorem by a second road: the exact LP knows no closed
    form, yet the range {1..k} is LP-feasible exactly when decide calls it
    factorable, for every n <= 64 and k <= 10."""
    counts = {True: 0, False: 0}
    for n in range(2, 65):
        for k in range(1, min(n, 10) + 1):
            feasible = lp_feasible(build_system(n, LevelSet.full(k))).feasible
            assert feasible == (decide(n, k).status is Status.FACTORABLE), (n, k)
            counts[feasible] += 1
    assert counts == {True: 300, False: 294}
