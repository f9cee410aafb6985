"""Tests for the decision procedures and the construction pipeline."""

import hashlib
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import LevelSet, binomial, canonical_key
from hyperfactor.constructors import (
    Block,
    Realization,
    construct_general_L_div,
)
import hyperfactor.decide as decide_module
from hyperfactor.decide import (
    DEFAULT_MAX_GROUND,
    Status,
    _realize,
    check_evolution_size,
    construct,
    decide,
    decide_general,
    plan,
)
from hyperfactor.cli import main
from hyperfactor.factorization import Factorization
from hyperfactor.flow import run
import hyperfactor.linear_system as linear_system
from hyperfactor.errors import InvariantViolation, LimitExceeded, NotFactorableError
from hyperfactor.fileformat import write_factorization
from hyperfactor.linear_system import (
    build_system,
    check_certificate,
    lp_feasible,
    solution_residual,
    verify_certificate,
)
from hyperfactor.verifier import check_verify_size, verify_factorization
from test_combinatorics import count_types
from test_linear_system import exhaustive_search

#: the reason of a verdict witnessed by the exact LP's integral vertex
VERTEX = "integral vertex of the exact LP"
#: the reason of a verdict witnessed by the floor of a fractional vertex, completed
COMPLETED = "floor of the LP vertex, completed by an exact search"


def test_decide_divisible():
    v = decide(12, 3)
    assert v.status is Status.FACTORABLE
    assert v.reason.startswith("divisible case")
    assert decide(24, 6).status is Status.FACTORABLE
    assert decide(6, 2).status is Status.FACTORABLE


def test_decide_near_divisible():
    v = decide(11, 3)
    assert v.status is Status.FACTORABLE
    assert v.reason.startswith("near-divisible case")
    assert decide(9, 2).status is Status.FACTORABLE
    assert decide(20, 7).status is Status.FACTORABLE
    assert decide(27, 7).status is Status.FACTORABLE


def test_decide_residue_obstruction():
    v = decide(7, 3)
    assert v.status is Status.NOT_FACTORABLE
    assert "residue obstruction" in v.reason
    assert "residue-mid-tight" in v.reason
    assert v.certificate is not None and v.certificate_levels == (1, 2, 3)
    assert verify_certificate(build_system(7, LevelSet.full(3)), v.certificate).ok


def test_decide_below_thresholds():
    v = decide(18, 6)
    assert v.status is Status.NOT_FACTORABLE
    assert "below the divisible threshold" in v.reason
    assert tuple(map(int, v.certificate.y)) == (3, 3, 3, 1, -1, 0)
    assert verify_certificate(build_system(18, LevelSet.full(6)), v.certificate).ok

    v = decide(26, 9)
    assert v.status is Status.NOT_FACTORABLE
    assert "below the near-divisible threshold" in v.reason
    assert verify_certificate(build_system(26, LevelSet.full(9)), v.certificate).ok


def test_decide_trivial_conventions():
    assert decide(5, 1).status is Status.FACTORABLE
    assert decide(1, 1).status is Status.FACTORABLE
    v = decide(5, 5)
    assert v.status is Status.FACTORABLE
    assert v.reason.startswith("the whole ground set forms one factor")


def test_decide_complement_reduction():
    v = decide(10, 7)
    assert v.status is Status.FACTORABLE
    assert v.reason.startswith("complement pairing reduces to levels 1..2:")
    assert decide(10, 9).status is Status.FACTORABLE
    # the reduction target can be infeasible; the certificate then lives on it
    v = decide(13, 9)
    assert v.status is Status.NOT_FACTORABLE
    assert v.certificate_levels == (1, 2, 3)
    assert verify_certificate(build_system(13, LevelSet.full(3)), v.certificate).ok
    # k = n always lands on an empty reduction target, hence factorable
    v = decide(13, 13)
    assert v.status is Status.FACTORABLE
    assert v.reason.startswith("the whole ground set forms one factor")


def test_decide_input_validation():
    with pytest.raises(ValueError):
        decide(0, 1)
    with pytest.raises(ValueError):
        decide(65, 3)
    with pytest.raises(ValueError):
        decide(5, 0)
    with pytest.raises(ValueError):
        decide(5, 6)


def test_decide_general_delegates_full_range():
    a = decide_general(12, LevelSet.full(3))
    b = decide(12, 3)
    assert a.status is b.status and a.reason == b.reason


def test_decide_general_divisible_pairing():
    v = decide_general(12, LevelSet.of([2, 4]))
    assert v.status is Status.FACTORABLE
    assert v.reason == "divisible level-pairing construction"
    assert v.solution == {(0, 2, 0, 2): 33, (0, 0, 0, 3): 143}


def test_decide_general_certificates():
    v = decide_general(11, LevelSet.of([2, 3, 4]))
    assert v.status is Status.NOT_FACTORABLE
    assert "sparse-2-3-4-minus-one" in v.reason
    assert verify_certificate(build_system(11, LevelSet.of([2, 3, 4])), v.certificate).ok

    v = decide_general(7, LevelSet.of([2]))
    assert v.status is Status.NOT_FACTORABLE
    assert "sparse-minus-one-gap" in v.reason

    v = decide_general(14, LevelSet.of([2, 4]))
    assert v.status is Status.NOT_FACTORABLE
    assert "sparse-residue-mid" in v.reason


def test_decide_general_search_outcomes():
    # no certificate family survives validation at this size; the LP refutes it
    v = decide_general(10, LevelSet.of([2, 3, 4]))
    assert v.status is Status.NOT_FACTORABLE and not v.search_exhausted
    assert v.family == "simplex-derived" and v.certificate_levels == (2, 3, 4)
    assert v.certificate.y == (0, 4, 1, -2)
    assert check_certificate(10, LevelSet.of([2, 3, 4]), v.certificate).ok

    v = decide_general(11, LevelSet.of([2, 3]))
    assert v.status is Status.FACTORABLE
    assert v.solution is not None
    assert not any(solution_residual(11, LevelSet.of([2, 3]), v.solution))

    # no admissible sizes at all
    v = decide_general(6, LevelSet.of([4]))
    assert v.status is Status.NOT_FACTORABLE and not v.search_exhausted
    assert v.certificate.y == (0, 0, 0, -1)
    assert check_certificate(6, LevelSet.of([4]), v.certificate).ok


def test_decide_general_limit_overrides(monkeypatch):
    # the LP's vertex is fractional here, so its floor needs a completion, and
    # the completion's node limit leaves the LP-feasible set undecided
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 0)
    v = decide_general(11, LevelSet.of([1, 2, 3, 4, 7]))
    assert v.status is Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL
    assert v.reason == "rationally feasible, but no integral witness: the completion search exceeded 0 nodes"
    assert v.certificate is None and v.solution is None


def test_a_node_limit_of_zero_leaves_no_integral_vertex_undecided(monkeypatch):
    """Every non-range level set with 3 <= n <= 11 under a node limit of 0:
    an integral vertex takes no node, so only the completed sets turn
    undecided, and every other verdict stays as it is."""
    sets = [
        (n, LevelSet.of(j for j in range(1, n + 1) if bits >> (j - 1) & 1))
        for n in range(3, 12)
        for bits in range(1, 2 ** n)
    ]
    sets = [(n, levels) for n, levels in sets if not levels.is_full_range()]
    before = [decide_general(n, levels) for n, levels in sets]
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 0)
    moved = []
    for (n, levels), v in zip(sets, before):
        after = decide_general(n, levels)
        if v.reason == COMPLETED:
            assert after.status is Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL, (n, levels)
            moved.append((n, levels.levels))
        else:
            assert after == v, (n, levels)
    assert sum(v.reason == VERTEX for v in before) == 452
    assert moved == [
        (11, (1, 2, 3, 5, 6)), (11, (1, 2, 3, 4, 7)), (11, (1, 2, 3, 11)),
        (11, (1, 2, 3, 5, 6, 11)), (11, (1, 2, 3, 4, 7, 11)),
    ]


def test_decide_general_past_the_old_type_limit():
    """Every non-range set with k <= 8, n <= 64 and more than 5,000 types: the
    LP lists no types, so it runs on all 40 of them that reach it, and the
    integer stage on its vertex witnesses every one of them that is feasible."""
    reached = Counter()
    undecided = []
    swept = 0
    for n in range(9, 65):
        for k in range(2, 9):
            for bits in range(2 ** (k - 1)):
                levels = LevelSet.of([j for j in range(1, k) if bits >> (j - 1) & 1] + [k])
                if levels.is_full_range() or count_types(n, levels) <= 5000:
                    continue
                swept += 1
                v = decide_general(n, levels)
                if v.certificate is not None:
                    assert check_certificate(n, levels, v.certificate).ok, (n, levels)
                if v.reason in (VERTEX, COMPLETED):
                    assert not any(solution_residual(n, levels, v.solution)), (n, levels)
                    assert min(v.solution.values()) >= 1, (n, levels)
                    reached[v.status] += 1
                elif v.status is Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL:
                    undecided.append((n, levels.levels))
                    reached[v.status] += 1
                elif v.family == "simplex-derived":
                    reached[v.status] += 1
    assert swept == 392
    assert reached == {Status.NOT_FACTORABLE: 13, Status.FACTORABLE: 27}
    assert undecided == []


def test_every_fractional_vertex_up_to_k_8_is_completed():
    """Every non-range set with k <= 8 and n <= 64, 14,298 sets: each feasible
    one that no closed form settles is witnessed by the LP's vertex, 739 by
    an integral vertex and 293 by a completed floor, with no zero
    multiplicity and a zero residual; none is undecided."""
    reasons = Counter()
    for n in range(1, 65):
        for k in range(1, min(n, 8) + 1):
            for bits in range(2 ** (k - 1)):
                levels = LevelSet.of([j for j in range(1, k) if bits >> (j - 1) & 1] + [k])
                if levels.is_full_range():
                    continue
                v = decide_general(n, levels)
                reasons[v.reason if v.status is Status.FACTORABLE else v.status] += 1
                if v.reason == COMPLETED:
                    assert not any(solution_residual(n, levels, v.solution)), (n, levels)
                    assert min(v.solution.values()) >= 1, (n, levels)
                    assert v.blocks[0].solution is v.solution
    assert reasons == {
        Status.NOT_FACTORABLE: 11899,
        "divisible level-pairing construction": 1367,
        VERTEX: 739,
        COMPLETED: 293,
    }


def test_decide_general_search_faults_propagate(monkeypatch):
    """A fault inside the integer stage is an error, not an undecided verdict."""

    def faulty(*args, **kwargs):
        raise InvariantViolation("simulated enumeration fault")

    monkeypatch.setattr(linear_system, "iter_types", faulty)
    with pytest.raises(InvariantViolation, match="simulated enumeration fault"):
        decide_general(10, LevelSet.of([1, 2, 4, 6]))


def test_an_integral_vertex_is_checked_before_it_is_a_witness(monkeypatch, capsys):
    """A vertex with one multiplicity off by one is an error, never FACTORABLE."""
    real = linear_system.lp_feasible

    def off_by_one(system):
        outcome = real(system)
        lam = next(iter(outcome.solution))
        # one more unit of the multiplicity, which is over det
        bumped = outcome.solution[lam] + outcome.det
        return replace(outcome, solution={**outcome.solution, lam: bumped})

    monkeypatch.setattr(decide_module, "lp_feasible", off_by_one)
    with pytest.raises(InvariantViolation, match=r"LP vertex residual \(0, 1, 3\) for n=11"):
        decide_general(11, LevelSet.of([2, 3]))
    assert main(["decide", "--n", "11", "--levels", "2,3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\ninternal error: LP vertex residual (0, 1, 3) for n=11 levels=(2, 3)\n")


def test_a_vertex_of_whole_fractions_gives_int_multiplicities():
    levels = LevelSet.of([2, 3])
    outcome = lp_feasible(build_system(11, levels))
    assert outcome.solution == {(0, 1, 3): 55 * outcome.det}
    v = decide_general(11, levels)
    assert v.reason == VERTEX
    assert v.solution == {(0, 1, 3): 55}
    assert all(type(m) is int for m in v.solution.values())
    assert v.blocks[0].solution is v.solution


def test_every_small_vertex_witness_builds():
    """Every level set with n <= 11: each FACTORABLE verdict, ranges, pairings
    and LP witnesses alike, goes through construct, which verifies the
    factorization it returns.  Under Dantzig's rule no set with n <= 10 has
    a fractional vertex, so n = 11 brings the five completed floors."""
    reasons = Counter()
    factors = Counter()
    digest = hashlib.sha256()
    for n in range(1, 12):
        for bits in range(1, 2 ** n):
            levels = LevelSet.of(j for j in range(1, n + 1) if bits >> (j - 1) & 1)
            v = decide_general(n, levels)
            reason = "range" if levels.is_full_range() else v.reason
            reasons[reason if v.status is Status.FACTORABLE else v.status] += 1
            if v.status is not Status.FACTORABLE:
                continue
            fact = construct(n, levels)
            factors[reason] += len(fact.factors)
            digest.update(repr((n, levels.levels, fact.factors)).encode())
    assert reasons == {
        Status.NOT_FACTORABLE: 3508,
        "range": 59,
        "divisible level-pairing construction": 59,
        VERTEX: 452,
        COMPLETED: 5,
    }
    assert factors == {
        "range": 9949,
        "divisible level-pairing construction": 1724,
        VERTEX: 119599,
        COMPLETED: 1867,
    }
    assert digest.hexdigest() == (
        "a3e320f04ad6acbbe2125b36db759160e1ab4e630ffa862286efc7b08329b53d"
    )


def _range_factorable(n: int, k: int) -> bool:
    """The characterization of factorable ranges {1..k}, written out apart
    from decide."""
    if k == 1 or n == 1:
        return True
    if k == n:
        return _range_factorable(n, n - 1)
    if 2 * k >= n:
        return k == n - 1 or _range_factorable(n, n - k - 1)
    if n % k == 0:
        return n >= k * (k - 2)
    return n % k == k - 1 and n >= k * ((k + 1) // 2 - 1) - 1


def test_plan_solves_every_factorable_range():
    """decide has blocks for (n, k), n <= 64, exactly when the range is
    factorable.  Every block has a zero residual, the lifted blocks on the
    ground n + 1 = 65 included, and the levels the blocks cover on the ground n
    partition {1..k}."""
    grounds = set()
    for n in range(1, 65):
        for k in range(1, n + 1):
            blocks = decide(n, k).blocks
            assert (blocks is None) == (not _range_factorable(n, k)), (n, k)
            if blocks is None:
                continue
            assert plan(n, LevelSet.full(k)) == list(blocks)
            covered = Counter()
            for block in blocks:
                assert not any(solution_residual(block.n, block.levels, block.solution)), (n, k)
                grounds.add(block.n)
                levels = block.levels.levels
                if block.realization is Realization.LIFT:
                    # as in project_lift: a lifted s-set loses the element n + 1 or not
                    assert block.n == n + 1
                    covered.update(levels)
                    covered.update(s - 1 for s in levels if s > 1)
                else:
                    assert block.n == n
                    covered.update(levels)
                if block.realization is Realization.COMPLEMENT_PAIRS:
                    # sizes n-j..j for the top level j of the range it pairs off
                    assert levels == tuple(range(n - levels[-1], levels[-1] + 1)), (n, k)
                elif sum(block.solution.values()) == 1:
                    # one partition: the n singletons or the whole set
                    assert levels in ((1,), (n,)), (n, k)
            assert covered == Counter(range(1, k + 1)), (n, k)
    assert 65 in grounds


def test_every_factorable_range_has_pinned_blocks():
    """The blocks of each FACTORABLE range (n, k), n <= 64, hashed one line per
    block: range, ground, levels, realization and every type's multiplicity in
    canonical order.  Any change to a closed form or the dispatch moves it."""
    digest = hashlib.sha256()
    ranges = 0
    for n in range(1, 65):
        for k in range(1, n + 1):
            verdict = decide(n, k)
            if verdict.status is not Status.FACTORABLE:
                continue
            ranges += 1
            for b in verdict.blocks:
                levels = ",".join(map(str, b.levels.levels))
                line = f"{n} {k}|{b.n}|{levels}|{b.realization.value}|"
                line += ";".join(
                    ",".join(map(str, lam)) + f":{b.solution[lam]}"
                    for lam in sorted(b.solution, key=canonical_key)
                )
                digest.update((line + "\n").encode())
    assert ranges == 635
    assert digest.hexdigest() == (
        "8e7faa4834712fda8bea5249b017763482933de84d544bedb7447c87c3f91414"
    )


def test_near_divisible_remainder_must_be_factorable(monkeypatch, capsys):
    """A top block whose remainder range is infeasible is an internal error,
    not a usage error: the pairs of 7-sets of 14 solve their own block, and
    (14, {1..6}) fails the residue test."""
    top = Block(14, LevelSet.of([7]), {(0,) * 6 + (2,): binomial(14, 7) // 2}, Realization.FLOW)
    monkeypatch.setattr(decide_module, "construct_minus1", lambda n, k: top)
    with pytest.raises(InvariantViolation, match="near-divisible remainder infeasible"):
        decide(14, 3)
    assert main(["decide", "--n", "14", "--k", "3"]) == 4
    assert "internal error: (n=14, k=3): near-divisible remainder infeasible" in (
        capsys.readouterr().err
    )


def test_construct_full_range_small():
    fact = construct(6, LevelSet.full(3))
    assert fact.levels == (1, 2, 3)
    assert len(fact.factors) == sum(binomial(5, j - 1) for j in (1, 2, 3))
    assert verify_factorization(fact) == []


def test_construct_arbitrary_levels():
    fact = construct(12, levels=LevelSet.of([2, 4]))
    assert fact.levels == (2, 4)
    assert len(fact.factors) == binomial(11, 1) + binomial(11, 3)
    assert verify_factorization(fact) == []


def test_construct_full_range_via_levels_argument():
    fact = construct(9, levels=LevelSet.full(2))
    assert fact.levels == (1, 2)
    assert verify_factorization(fact) == []


def test_construct_rejects_and_limits():
    with pytest.raises(NotFactorableError):
        construct(18, LevelSet.full(6))
    with pytest.raises(NotFactorableError):
        construct(7, LevelSet.full(3))
    with pytest.raises(NotFactorableError):
        construct(11, levels=LevelSet.of([2, 3, 4]))
    with pytest.raises(LimitExceeded):
        construct(20, LevelSet.full(4))  # factorable, but the evolution cap is 18 by default
    # a k where the levels go is refused by name, and plan checks the ground
    with pytest.raises(ValueError, match="levels must be a LevelSet, got 2"):
        construct(9, 2)
    with pytest.raises(ValueError, match="ground size must be an int in 1..64, got 0"):
        construct(0, LevelSet.full(1))


def test_levels_must_be_a_level_set():
    """A plain tuple of levels is refused by name, not met by an AttributeError."""
    refusal = r"levels must be a LevelSet, got \(1, 2\)"
    for call in (decide_general, plan):
        with pytest.raises(ValueError, match=refusal):
            call(12, (1, 2))
    with pytest.raises(ValueError, match=refusal):
        construct(12, levels=(1, 2))


def test_a_faulty_inner_block_fails_the_final_check(monkeypatch):
    """Complement pairs check nothing of the factorization they extend:
    construct's one verification of the whole result refuses a fault there."""
    def short_run(*args, **kwargs):
        fact = run(*args, **kwargs)
        return Factorization(fact.n, fact.levels, fact.factors[1:])

    monkeypatch.setattr(decide_module, "flow_run", short_run)
    with pytest.raises(InvariantViolation, match="constructed factorization failed verification"):
        construct(6, LevelSet.full(3))


def test_construct_twenty_up_to_seven():
    """(20, {1..7}) lifts to a flow on 21 elements: 43,796 factors, a clean
    verifier pass and fixed bytes, well inside two minutes."""
    start = time.perf_counter()
    fact = construct(20, LevelSet.full(7), max_ground_size=21)
    elapsed = time.perf_counter() - start
    assert len(fact.factors) == 43_796
    assert verify_factorization(fact) == []
    assert hashlib.sha256(write_factorization(fact).encode("utf-8")).hexdigest() == (
        "6c989600d472502bdcc7b42345533898ac93f398ac513737a303377869823621"
    )
    assert elapsed < 120.0, f"took {elapsed:.1f} s (pin: 120 s)"


def test_both_sides_of_the_sharp_threshold_at_six_for_n_divisible_by_six():
    """The paper's theorem is sharp at k = 6 for 6 | n: (18, {1..6}) is
    refuted with a certificate that passes the check, and (24, {1..6}), the
    next such n, is built from one flow on 24 elements: 44,552 factors, a
    clean verifier pass and fixed bytes, in about 12 s and 100 MiB with
    Python 3.11."""
    refuted = decide(18, 6)
    assert refuted.status is Status.NOT_FACTORABLE
    assert check_certificate(18, LevelSet(refuted.certificate_levels), refuted.certificate).ok
    start = time.perf_counter()
    fact = construct(24, LevelSet.full(6), max_ground_size=24)
    elapsed = time.perf_counter() - start
    assert len(fact.factors) == 44_552
    assert verify_factorization(fact) == []
    assert hashlib.sha256(write_factorization(fact).encode("utf-8")).hexdigest() == (
        "854bf96d993c6397b26fd311ebbb5f13e826d7f4dde5df2e8ecd67e23db7b007"
    )
    assert elapsed < 120.0, f"took {elapsed:.1f} s (pin: 120 s)"


def test_realize_puts_a_top_block_before_its_sub_range():
    """The odd-k top blocks need n >= 20, above the default ground limit, so
    the same join runs here on a small top block: level 4 of [12] over 1..3."""
    four = LevelSet.of([4])
    top = Block(12, four, construct_general_L_div(12, four), Realization.FLOW)
    fact = Factorization(12, (1, 2, 3, 4), _realize(12, [top] + plan(12, LevelSet.full(3)), None))
    assert verify_factorization(fact) == []
    n_top = binomial(12, 4) // 3
    assert all(len(factor) == 3 for factor in fact.factors[:n_top])
    assert len(fact.factors) == n_top + len(construct(12, LevelSet.full(3)).factors)


def test_construct_refuses_a_lift_before_any_flow():
    """(11, {1..3}) is a flow block on 11 ahead of a lift to 12: the lift is
    built first, so the work limit 11 refuses the blocks before any flow
    step runs."""
    assert [b.n for b in plan(11, LevelSet.full(3))][-1] == 12
    records = []
    with pytest.raises(LimitExceeded, match="ground size 12 exceeds the evolution work limit 11"):
        construct(11, LevelSet.full(3), max_ground_size=11, trace=records.append)
    assert records == []


def test_check_evolution_size():
    """The work limit refuses more than one partition past max_ground_size;
    one partition is n one-arc steps, so the limit skips it, but never the
    64-element bit-mask cap."""
    with pytest.raises(LimitExceeded, match="ground size 19 exceeds the evolution work limit 18"):
        check_evolution_size(19, 2, DEFAULT_MAX_GROUND)
    with pytest.raises(LimitExceeded, match="ground size 5 exceeds the evolution work limit 4"):
        check_evolution_size(5, 2, 4)
    # the override direction also works
    check_evolution_size(5, 2, 5)
    for n in (19, 5):
        check_evolution_size(n, 1, 4)
    with pytest.raises(LimitExceeded, match="exceeds the 64-element bit-mask cap"):
        check_evolution_size(65, 1, 64)


def test_a_lost_block_fails_the_check_against_the_levels_asked(monkeypatch):
    """The last block of (16, {1..14}) is the n singletons.  A plan that
    loses it still makes a valid factorization of levels 2..14, so only a
    check against the levels asked for refuses it."""
    blocks = plan(16, LevelSet.full(14))
    assert blocks[-1].levels.levels == (1,) and sum(blocks[-1].solution.values()) == 1
    monkeypatch.setattr(decide_module, "plan", lambda n, levels: blocks[:-1])
    with pytest.raises(InvariantViolation, match="level 1: 0 distinct sets appear, expected 16"):
        construct(16, LevelSet.full(14))


def test_construct_sweep_small():
    """Every feasible full-range instance with n <= 10 builds and verifies."""
    built = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            v = decide(n, k)
            if v.status is Status.FACTORABLE:
                fact = construct(n, LevelSet.full(k))
                assert verify_factorization(fact) == []
                built += 1
            else:
                with pytest.raises(NotFactorableError):
                    construct(n, LevelSet.full(k))
    assert built >= 30


def test_decide_matches_exhaustive_search_small():
    """Arithmetic verdicts agree with brute-force integer search, n <= 11."""
    for n in range(2, 12):
        for k in range(2, n + 1):
            v = decide(n, k)
            system = build_system(n, LevelSet.full(k))
            witness = exhaustive_search(system, 2_000_000)
            assert (witness is not None) == (v.status is Status.FACTORABLE), (n, k)


@st.composite
def _non_range_instances(draw):
    n = draw(st.integers(2, 12))
    levels = draw(st.sets(st.integers(1, n), min_size=1, max_size=4).map(LevelSet.of))
    return n, levels


@settings(max_examples=300, deadline=None)
@given(_non_range_instances().filter(lambda inst: not inst[1].is_full_range()))
def test_decide_general_agrees_with_exhaustive_search(instance):
    """Every verdict on a non-range level set carries a checked witness or
    certificate, and its status matches a search with a larger node budget."""
    n, levels = instance
    verdict = decide_general(n, levels)
    witness = exhaustive_search(build_system(n, levels), 2_000_000)
    if witness is None:
        assert verdict.status is Status.NOT_FACTORABLE, (n, levels)
    else:
        assert verdict.status is Status.FACTORABLE, (n, levels)
        assert not any(solution_residual(n, levels, verdict.solution))
    if verdict.certificate is not None:
        cert_levels = LevelSet(verdict.certificate_levels)
        assert check_certificate(n, cert_levels, verdict.certificate).ok
    elif verdict.status is Status.NOT_FACTORABLE:
        assert verdict.search_exhausted, (n, levels)
    if verdict.search_exhausted:
        assert lp_feasible(build_system(n, levels)).feasible, (n, levels)


def _census(instances, factorable=None):
    """Decide every (n, levels) given that is not a full range: none is
    undecided, every NOT_FACTORABLE verdict carries a certificate that
    passes check_certificate, and every witness has a zero residual and no
    zero multiplicity.  Returns the status counts and a sha256 over
    (n, L, status, family) of all of them.  A list passed as factorable
    gets (n, levels, blocks) of each FACTORABLE verdict."""
    digest = hashlib.sha256()
    statuses = Counter()
    for n, levels in instances:
        if levels.is_full_range():
            continue
        v = decide_general(n, levels)
        statuses[v.status] += 1
        if v.status is Status.NOT_FACTORABLE:
            assert v.certificate is not None, (n, levels)
            cert_levels = LevelSet(v.certificate_levels)
            assert check_certificate(n, cert_levels, v.certificate).ok, (n, levels)
        else:
            assert v.status is Status.FACTORABLE, (n, levels)
            assert not any(solution_residual(n, levels, v.solution)), (n, levels)
            assert min(v.solution.values()) >= 1, (n, levels)
            if factorable is not None:
                factorable.append((n, levels, v.blocks))
        digest.update(f"{n} {levels.levels} {v.status.value} {v.family}\n".encode())
    return statuses, digest.hexdigest()


def test_census_of_every_level_set_up_to_n_12(monkeypatch):
    """Every non-range level set with 2 <= n <= 12, with the cone test
    unbound everywhere in the package, passes _census's checks."""

    def no_cone_test(*args):
        raise AssertionError("a decide path ran a cone test")

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperfactor.") and hasattr(module, "feasible_nonnegative"):
            monkeypatch.setattr(module, "feasible_nonnegative", no_cone_test)
    statuses, digest = _census(
        (n, LevelSet.of(j for j in range(1, n + 1) if bits >> (j - 1) & 1))
        for n in range(2, 13)
        for bits in range(1, 2 ** n)
    )
    assert statuses == {Status.FACTORABLE: 1153, Status.NOT_FACTORABLE: 6947}
    assert digest == "a483f992d3f4997ca359b267b6293d88dc8af290c14d38145c560cd6a24df501"


def _refusals(n, levels, blocks):
    """Which of construct's limits refuse the plan `blocks` of (n, levels),
    by construct's own checks and with no flow run: the evolution limits on
    each flow and lift block at the default work limit, and the verifier's
    cap, each checked whatever the other says."""
    refused = set()
    try:
        for b in reversed(blocks):
            if b.realization is not Realization.COMPLEMENT_PAIRS:
                check_evolution_size(b.n, sum(b.solution.values()), DEFAULT_MAX_GROUND)
    except LimitExceeded:
        refused.add("work limit")
    try:
        check_verify_size(n, levels.levels)
    except LimitExceeded:
        refused.add("verifier cap")
    return frozenset(refused)


def test_census_of_every_level_set_of_at_most_two_levels_up_to_n_64():
    """Every non-range level set L with |L| <= 2 and 2 <= n <= 64 passes
    _census's checks.  Of its FACTORABLE sets, 244 build at the default
    limits, and every set past the verifier's cap is also past the work
    limit."""
    factorable = []
    statuses, digest = _census(
        (
            (n, LevelSet.of({low, high}))
            for n in range(2, 65)
            for low in range(1, n + 1)
            for high in range(low, n + 1)
        ),
        factorable,
    )
    assert statuses == {Status.FACTORABLE: 2038, Status.NOT_FACTORABLE: 43595}
    assert digest == "270c5c7862596994b89b6a95675765fbcac925f48847779b9cbc1789e57b0f41"
    assert Counter(_refusals(n, levels, blocks) for n, levels, blocks in factorable) == {
        frozenset(): 244,
        frozenset({"work limit"}): 634,
        frozenset({"work limit", "verifier cap"}): 1160,
    }


def test_every_small_negative_verdict_is_certified():
    """Every non-range set with k <= 7 and 3 <= n <= 16: the exact LP runs
    before the search, so each negative verdict carries a checked certificate."""
    swept = negative = 0
    for n in range(3, 17):
        for k in range(2, min(7, n) + 1):
            for bits in range(2 ** (k - 1) - 1):
                levels = LevelSet.of([j for j in range(1, k) if bits >> (j - 1) & 1] + [k])
                swept += 1
                v = decide_general(n, levels)
                if v.status is not Status.NOT_FACTORABLE:
                    continue
                negative += 1
                assert v.certificate is not None, (n, levels)
                cert_levels = LevelSet(v.certificate_levels)
                assert check_certificate(n, cert_levels, v.certificate).ok, (n, levels)
    assert (swept, negative) == (1298, 1017)
