"""Tests for the closed-form solution families and certificate families."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import hyperfactor
from hyperfactor.cli import main
from hyperfactor.combinatorics import LevelSet, binomial
import hyperfactor.constructors as constructors
from hyperfactor.constructors import (
    Realization,
    certificate_with_branch,
    construct_div,
    construct_general_L_div,
    construct_minus1,
)
from hyperfactor.decide import decide, plan
from hyperfactor.errors import InvariantViolation, NotFactorableError
from hyperfactor.linear_system import (
    FarkasCertificate,
    build_system,
    solution_residual,
    verify_certificate,
)


def _shape(n, k):
    return [(b.n, b.levels.levels, b.realization) for b in plan(n, LevelSet.full(k))]


def test_plan_dispatch():
    flow, lift = Realization.FLOW, Realization.LIFT
    assert _shape(12, 3) == [(12, (1, 2, 3), flow)]
    assert _shape(24, 6) == [(24, (1, 2, 3, 4, 5, 6), flow)]
    assert _shape(9, 2) == [(10, (2,), lift)]
    assert _shape(11, 3) == [(12, (1, 3), lift)]
    # odd k, t = 1: the a/b/c top block over levels 5..7, then 1..4 by lifting
    assert _shape(27, 7) == [(27, (5, 6, 7), flow), (28, (2, 4), lift)]
    # odd k, t = 0: the r/s/t top block over levels 4..7, then 1..3 by lifting
    assert _shape(20, 7) == [(20, (4, 5, 6, 7), flow), (21, (1, 3), lift)]


def test_plan_rejects_infeasible():
    for n, k in [(18, 6), (7, 3), (13, 5), (26, 9)]:
        with pytest.raises(NotFactorableError):
            plan(n, LevelSet.full(k))
    for n, k in [(7, 3), (13, 5), (26, 9), (6, 3)]:
        with pytest.raises(ValueError):
            construct_minus1(n, k)


def test_construct_div_values():
    assert construct_div(6, 2) == {(2, 2): 3, (0, 3): 3}
    assert construct_div(8, 2) == {(2, 3): 4, (0, 4): 4}
    assert construct_div(12, 3) == {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41}


def test_construct_div_edge_case():
    sol = construct_div(24, 6)
    assert sol == {
        (6, 0, 0, 0, 0, 3): 4,
        (0, 3, 0, 0, 0, 3): 92,
        (0, 0, 2, 0, 0, 3): 1012,
        (0, 0, 0, 1, 4, 0): 10626,
        (0, 0, 0, 0, 0, 4): 32818,
    }
    assert solution_residual(24, LevelSet.full(6), sol) == (0,) * 6


def test_construct_div_rejects():
    with pytest.raises(ValueError):
        construct_div(13, 3)
    with pytest.raises(ValueError):
        construct_div(18, 6)
    with pytest.raises(ValueError):
        construct_div(6, 3)


def test_construct_div_zero_residual_sweep():
    for k in range(2, 7):
        for n in range(2 * k + 1, 27):
            if n % k == 0 and n >= k * (k - 2):
                sol = construct_div(n, k)
                assert solution_residual(n, LevelSet.full(k), sol) == (0,) * k
                assert all(m >= 0 for m in sol.values())


def test_construct_general_L_div():
    assert construct_general_L_div(12, LevelSet.of([2, 4])) == {
        (0, 2, 0, 2): 33,
        (0, 0, 0, 3): 143,
    }
    assert construct_general_L_div(8, LevelSet.of([1, 4])) == {
        (4, 0, 0, 1): 2,
        (0, 0, 0, 2): 34,
    }
    assert construct_general_L_div(6, LevelSet.of([3])) == {(0, 0, 2): 10}
    assert construct_general_L_div(12, LevelSet.of([6])) == {
        (0, 0, 0, 0, 0, 2): 462
    }
    assert construct_general_L_div(10, LevelSet.of([2])) == {(0, 5): 9}
    # lambda_k would go negative: not applicable
    assert construct_general_L_div(8, LevelSet.of([3, 4])) is None
    # k does not divide n: not applicable
    assert construct_general_L_div(13, LevelSet.of([2, 4])) is None


def test_pairing_leaves_a_positive_level_k_remainder():
    """_pairing's level-k remainder C(n, k) - sum of lam_k * mult is never
    negative.  Each level l < k with lam_k = n/k - l/gcd(k, l) >= 0 adds a
    term >= 0 (a negative lam_k returns None first), so the remainder is
    least when L holds every such level; for every k | n <= 65, the grounds
    a pairing or its lift takes, that least remainder is still >= 1."""
    least = []
    for n in range(1, 66):
        for k in (k for k in range(1, n + 1) if n % k == 0):
            every = [l for l in range(1, k) if n // k - l // gcd(k, l) >= 0]
            covered = sum(
                (n // k - l // gcd(k, l)) * (binomial(n, l) // (k // gcd(k, l))) for l in every
            )
            least.append((binomial(n, k) - covered, n, k))
            assert constructors._pairing(n, LevelSet.of([*every, k])) is not None
    assert len(least) == 284
    assert min(least) == (1, 1, 1)
    assert sorted(least)[:2] == [(1, 1, 1), (1, 2, 2)]


def test_every_pairing_a_range_builds_is_a_vector(monkeypatch):
    """construct_div and _lift_block use _pairing's vector unchecked: each
    lam_k = n/k - l/gcd(k, l) it needs is >= 0.  Off the divisible edge point,
    n >= k(k-1) > l for every level l < k; the edge's lower levels stop at
    k-3 < n/k = k-2.  A lift's ground is n+1 = k((k-1)/2 + t) with
    t >= (k-3)/2, so (n+1)/k >= k-2 >= l for its odd levels, or k and its
    levels are even, so l/gcd(k, l) <= l/2 <= k/2 - 1 <= (n+1)/k by the
    threshold.  decide over every range with n <= 64 builds 89 divisible
    pairings and 98 lifts, on grounds up to 65, and each is a vector."""
    pairing = constructors._pairing
    built = set()

    def recorded(n, levels):
        solution = pairing(n, levels)
        assert solution is not None, (n, levels)
        built.add((n, levels.levels))
        return solution

    monkeypatch.setattr(constructors, "_pairing", recorded)
    for n in range(1, 65):
        for k in range(1, n + 1):
            decide(n, k)
    assert len(built) == 89 + 98
    assert max(n for n, _ in built) == 65


def test_a_block_checks_its_solution_when_built():
    """A flow or lift Block refuses a vector that does not solve its system,
    naming the residual, or the residual's ValueError; complement pairs are
    not checked."""
    levels = LevelSet.full(3)
    good = construct_div(12, 3)
    assert constructors.Block(12, levels, good, Realization.FLOW).solution is good
    for realization in (Realization.FLOW, Realization.LIFT):
        with pytest.raises(InvariantViolation) as exc:
            constructors.Block(12, levels, {**good, (0, 0, 4): 42}, realization)
        assert str(exc.value) == "construction residual (0, 0, 4) for n=12 levels=(1, 2, 3)"
        with pytest.raises(InvariantViolation) as exc:
            constructors.Block(12, levels, {**good, (0, 0, 3): 1}, realization)
        assert str(exc.value) == (
            "construction of n=12 levels=(1, 2, 3): "
            "solution key is not an (n, levels)-type: (0, 0, 3)"
        )
        assert isinstance(exc.value.__cause__, ValueError)
    # a lift's ground may be 65
    lift = construct_minus1(64, 5)
    assert (lift.n, lift.realization) == (65, Realization.LIFT)
    top = (0, 0, 0, 0, 13)
    with pytest.raises(InvariantViolation, match=r"^construction residual \(0, 0, 0, 0, 13\) for n=65 "):
        constructors.Block(65, lift.levels, {**lift.solution, top: lift.solution[top] + 1}, Realization.LIFT)
    pairs = constructors.Block(12, LevelSet.of([1]), {}, Realization.COMPLEMENT_PAIRS)
    assert pairs.solution == {}


def test_construct_minus1_lifts():
    block = construct_minus1(11, 3)
    assert block.realization is Realization.LIFT
    assert block.n == 12 and block.levels == LevelSet.of([1, 3])
    assert block.solution == {(3, 0, 3): 4, (0, 0, 4): 52}

    block = construct_minus1(9, 2)
    assert block.realization is Realization.LIFT
    assert block.n == 10 and block.levels == LevelSet.of([2])
    assert block.solution == {(0, 5): 9}

    block = construct_minus1(15, 4)
    assert block.realization is Realization.LIFT
    assert block.n == 16 and block.levels == LevelSet.of([2, 4])
    assert solution_residual(16, LevelSet.of([2, 4]), block.solution) == (0,) * 4


def test_construct_minus1_abc():
    block = construct_minus1(27, 7)
    assert block.realization is Realization.FLOW
    assert block.n == 27
    assert block.levels == LevelSet.of([5, 6, 7])
    assert block.solution == {
        (0, 0, 0, 0, 4, 0, 1): 17940,
        (0, 0, 0, 0, 3, 2, 0): 2990,
        (0, 0, 0, 0, 0, 1, 3): 290030,
    }
    assert solution_residual(27, block.levels, block.solution) == (0,) * 7
    # k = 9 instance is also exactly integral; the rest is the range 1..6
    block9 = construct_minus1(53, 9)
    assert block9.levels.levels[0] - 1 == 6
    assert solution_residual(53, block9.levels, block9.solution) == (0,) * 9


def test_construct_minus1_rst():
    block = construct_minus1(20, 7)
    assert block.realization is Realization.FLOW
    assert block.levels.levels[0] - 1 == 3
    assert block.levels == LevelSet.of([4, 5, 6, 7])
    assert block.solution == {
        (0, 0, 0, 0, 0, 1, 2): 37791,
        (0, 0, 0, 0, 4, 0, 0): 2907,
        (0, 0, 0, 1, 2, 1, 0): 969,
        (0, 0, 0, 2, 1, 0, 1): 1938,
    }
    assert solution_residual(20, block.levels, block.solution) == (0,) * 7


def test_odd_tail_frozen_values():
    # k = 7, t = 0: n = 20 and m = 1, so the tail has a_0, a_1 = A and b_1 = B
    tail = constructors._odd_tail_block(20, 7, 0)
    assert tail.realization is Realization.FLOW
    assert (tail.n, tail.levels) == (20, LevelSet.of([4, 5, 6, 7]))
    x_type, a0_type, a1_type, b1_type = tail.solution
    # x is the one top type of the tail, with a part of size 7
    assert x_type == (0, 0, 0, 0, 0, 1, 2)
    x, a0, big_a, big_b = (tail.solution[t] for t in (x_type, a0_type, a1_type, b1_type))
    assert (x, a0 + big_a + big_b) == (37791, 5814)  # (x, y)
    assert (big_a, big_b) == (969, 1938)
    assert (a0, big_a) == (2907, 969)  # a; b is (big_b,)
    assert tail == construct_minus1(20, 7)


def test_closed_forms_solve_for_every_odd_k_to_63():
    """Every odd tail (odd k in 7..63, every t) and the a/b/c block at n = k^2 - 3k - 1."""
    built = 0
    for k in range(7, 64, 2):
        for t in range(0, (k - 7) // 2 + 1):
            block = construct_minus1((k * k - k - 2) // 2 + t * k, k)
            assert block.levels == LevelSet.of(range((k + 2 * t + 1) // 2, k + 1)), (k, t)
            assert not any(solution_residual(block.n, block.levels, block.solution)), (k, t)
            built += 1
        block = construct_minus1(k * k - 3 * k - 1, k)
        assert block.levels == LevelSet.of([k - 2, k - 1, k])
        assert not any(solution_residual(block.n, block.levels, block.solution)), k
        built += 1
    assert built == 464


def _slip_first_multiplicity(monkeypatch, slip):
    """Make every closed form hand its Block slip(x) in place of x, its first
    multiplicity; construct_minus1(20, 7) builds one form, the odd tail."""
    block = constructors.Block

    def slipped(n, levels, solution, realization):
        solution = dict(solution)
        first = next(iter(solution))
        solution[first] = slip(solution[first])
        return block(n, levels, solution, realization)

    monkeypatch.setattr(constructors, "Block", slipped)


def test_a_closed_form_slip_is_named_by_its_residual(monkeypatch):
    _slip_first_multiplicity(monkeypatch, lambda x: x + 1)
    with pytest.raises(InvariantViolation) as exc:
        construct_minus1(20, 7)
    assert str(exc.value) == (
        "construction residual (0, 0, 0, 0, 0, 1, 2) for n=20 levels=(4, 5, 6, 7)"
    )


def test_a_negative_closed_form_multiplicity_is_an_internal_error(monkeypatch, capsys):
    _slip_first_multiplicity(monkeypatch, lambda x: -1)
    with pytest.raises(InvariantViolation) as exc:
        construct_minus1(20, 7)
    assert str(exc.value) == (
        "construction of n=20 levels=(4, 5, 6, 7): "
        "negative multiplicity for type (0, 0, 0, 0, 0, 1, 2): -1"
    )
    assert main(["solve", "--n", "20", "--k", "7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("internal error: construction of n=20")


def test_certificate_values():
    cases = [
        (18, LevelSet.full(6), (3, 3, 3, 1, -1, 0), 1),
        (7, LevelSet.full(3), (4, 1, -2), 2),  # (2, 1/2, -1)
        (10, LevelSet.full(3), (3, 1, -1), 1),
        (9, LevelSet.full(4), (2, 1, 0, -1), 1),
        (10, LevelSet.full(4), (2, 4, 1, -2), 2),  # (1, 2, 1/2, -1)
        (26, LevelSet.full(9), (3,) * 5 + (1, -1, 2, -1), 1),
        (11, LevelSet.of([2, 3, 4]), (0, -1, 4, -2), 2),  # (0, -1/2, 2, -1)
        (7, LevelSet.of([2]), (0, -1), 1),
    ]
    for n, L, y, den in cases:
        found = certificate_with_branch(n, L)
        assert found is not None, (n, L.levels)
        cert = found[1]
        assert (cert.y, cert.den) == (y, den), (n, L.levels, cert)
        assert verify_certificate(build_system(n, L), cert).ok


def test_certificate_families_tagged():
    assert certificate_with_branch(18, LevelSet.full(6))[0] == "divisible-below-threshold"
    assert certificate_with_branch(7, LevelSet.full(3))[0] == "residue-mid-tight"
    assert certificate_with_branch(10, LevelSet.full(3))[0] == "residue-mid-large"
    assert certificate_with_branch(26, LevelSet.full(9))[0] == "minus-one-below-threshold"
    assert certificate_with_branch(11, LevelSet.of([2, 3, 4]))[0] == "sparse-2-3-4-minus-one"
    assert certificate_with_branch(7, LevelSet.of([2]))[0] == "sparse-minus-one-gap"
    assert certificate_with_branch(14, LevelSet.of([2, 4]))[0] == "sparse-residue-mid"


def test_certificate_none_for_factorable():
    assert certificate_with_branch(12, LevelSet.full(3)) is None
    assert certificate_with_branch(11, LevelSet.full(3)) is None
    assert certificate_with_branch(12, LevelSet.of([2, 4])) is None
    # small n: no family may apply even though the instance is infeasible
    assert certificate_with_branch(6, LevelSet.of([4])) is None


def test_full_range_families_raw_validity():
    """Full-range families must separate everywhere in their claimed ranges."""
    from hyperfactor.constructors import _candidate_certificates

    for k in range(2, 8):
        for n in range(2 * k + 1, 31):
            L = LevelSet.full(k)
            found = _candidate_certificates(n, L)
            if found is not None:
                name, y = found
                cert = FarkasCertificate(tuple(y), 2)
                assert verify_certificate(build_system(n, L), cert).ok, (n, k, name)


def test_residual_check_survives_python_O():
    """The Block's zero-residual check is an explicit raise, so `python -O` keeps it."""
    code = (
        "import sys\n"
        "assert sys.flags.optimize\n"
        "import hyperfactor.constructors as c\n"
        "from hyperfactor.decide import decide\n"
        "from hyperfactor.errors import InvariantViolation\n"
        "c.solution_residual = lambda n, levels, solution: (1,) + (0,) * (levels.k - 1)\n"
        "try:\n"
        "    decide(12, 3)\n"
        "except InvariantViolation as exc:\n"
        "    print(f'raised: {exc}')\n"
    )
    src = str(Path(hyperfactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: construction residual (1, 0, 0) for n=12")
