"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Each test pins the documented tolerance: exact values are compared exactly,
and wall-clock budgets are asserted where the criterion carries one.
"""

import time
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

from hyperfactor.combinatorics import LevelSet, binomial, enumerate_types
from hyperfactor.constructors import (
    certificate_with_branch,
    construct_div,
    construct_minus1,
)
from hyperfactor.decide import Status, construct, decide
from hyperfactor.fileformat import (
    load_text,
    parse_factorization,
    write_factorization,
)
import hyperfactor.linear_system as linear_system
from hyperfactor.flow import evolve_step, init_state, run as flow_run
from hyperfactor.linear_system import (
    build_system,
    integer_search_small,
    lp_feasible,
    solution_residual,
    verify_certificate,
)
from hyperfactor.verifier import verify_factorization


def test_c01_canonical_type_table():
    """Criterion 1: the 8 level types of (n=7, levels {1,2,3}), exact order, < 1 ms."""
    expected = [
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 1),
        (4, 0, 1),
        (1, 3, 0),
        (3, 2, 0),
        (5, 1, 0),
        (7, 0, 0),
    ]
    levels = LevelSet.full(3)
    enumerate_types(7, levels)  # warm any caches before timing
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        rows = enumerate_types(7, levels)
        best = min(best, time.perf_counter() - start)
    assert rows == expected
    assert set(rows) == set(expected)
    assert best < 0.001, f"type enumeration took {best * 1e3:.3f} ms (pin: 1 ms)"


def test_c02_negative_instance_with_certificate():
    """Criterion 2: (18, {1..6}) is not factorable, certificate (3,3,3,1,-1,0), < 1 s."""
    start = time.perf_counter()
    verdict = decide(18, 6)
    assert verdict.status is Status.NOT_FACTORABLE
    assert verdict.certificate is not None
    assert (verdict.certificate.y, verdict.certificate.den) == ((3, 3, 3, 1, -1, 0), 1)
    check = verify_certificate(build_system(18, LevelSet.full(6)), verdict.certificate)
    assert check.ok and check.violating_type is None
    assert check.b_dot_y == -2547
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s (pin: 1 s)"


def test_c03_characterization_table_and_involution(monkeypatch):
    """Criterion 3: decide agrees with brute-force search for every n <= 14;
    the complement-pairing equivalence holds in truth, not just by delegation.
    < 5 min."""
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 5_000_000)
    start = time.perf_counter()
    brute: dict[tuple[int, int], bool] = {}

    def brute_feasible(n: int, k: int) -> bool:
        if (n, k) not in brute:
            system = build_system(n, LevelSet.full(k))
            witness = integer_search_small(system)
            if witness is not None:
                assert not any(solution_residual(n, system.levels, witness))
            brute[(n, k)] = witness is not None
        return brute[(n, k)]

    pairs = 0
    for n in range(2, 15):
        for k in range(2, n):
            verdict = decide(n, k)
            feasible = brute_feasible(n, k)
            assert feasible == (verdict.status is Status.FACTORABLE), (n, k)
            if 2 * k >= n:
                m = n - k - 1
                if m == 0:
                    assert feasible, (n, k)
                else:
                    assert feasible == brute_feasible(n, m), (n, k, m)
            pairs += 1
    assert pairs == 78
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f} s (pin: 300 s)"


def test_c04_end_to_end_constructions():
    """Criterion 4: the named instances construct, verify, and have exactly
    M = sum binomial(n-1, j-1) factors. < 2 min."""
    start = time.perf_counter()

    # uniform engine case: perfect matchings of the 4-element ground set
    fact = flow_run(4, LevelSet.of([2]), {(0, 2): 3})
    assert verify_factorization(fact) == []
    assert len(fact.factors) == binomial(3, 1)

    for n, k in [(6, 2), (12, 3), (11, 3), (6, 3), (8, 4), (5, 4)]:
        fact = construct(n, LevelSet.full(k))
        assert verify_factorization(fact) == [], (n, k)
        expected_m = sum(binomial(n - 1, j - 1) for j in range(1, k + 1))
        assert len(fact.factors) == expected_m, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s (pin: 120 s)"


def test_c05_evolution_invariant_every_step():
    """Criterion 5: during the evolutions behind construct(12, 3) and
    construct(11, 3), after every step each occurring (set, potential) pair
    appears exactly binomial(n - l, j - |S|) times; recounted independently."""

    def audit(n: int, levels: LevelSet, solution) -> None:
        state = init_state(n, levels, solution)
        for _ in range(n):
            state = evolve_step(state)
            remaining = n - state.ell
            occ = Counter()
            for parts, mult in state.classes:
                for part in parts:
                    occ[part] += mult
            for (mask, j), count in occ.items():
                assert count == binomial(remaining, j - mask.bit_count()), (
                    n,
                    state.ell,
                    mask,
                    j,
                )
        # evolution must end with every part at its potential size
        for parts, _ in state.classes:
            assert all(mask.bit_count() == j for mask, j in parts)

    # the exact systems the pipeline solves for these two instances
    audit(12, LevelSet.full(3), construct_div(12, 3))
    lifted = construct_minus1(11, 3)
    audit(lifted.n, lifted.levels, lifted.solution)
    # and the pipeline itself completes on both
    assert verify_factorization(construct(12, LevelSet.full(3))) == []
    assert verify_factorization(construct(11, LevelSet.full(3))) == []


def _type_of(k: int, entries: dict[int, int]) -> tuple[int, ...]:
    """The type vector with entries[j] sets of size j."""
    lam = [0] * k
    for level, count in entries.items():
        lam[level - 1] = count
    return tuple(lam)


def test_c06_odd_tail_identity_suite():
    """Criterion 6: for odd k in {7,9,11,13} and all 0 <= t <= (k-7)/2, the
    tail-block quantities, read off the block by type shape, are non-negative
    integers satisfying the per-level counting identities, re-derived here in
    exact arithmetic. < 10 s."""
    start = time.perf_counter()
    for k in (7, 9, 11, 13):
        for t in range(0, (k - 7) // 2 + 1):
            n = (k * k - k - 2) // 2 + t * k
            m = (k - 5) // 2 - t
            block = construct_minus1(n, k)
            assert block.n == n
            assert block.levels == LevelSet.of(range((k + 2 * t + 1) // 2, k + 1))
            x_shape = _type_of(k, {k - 1: 1, k: (k - 3) // 2 + t})
            a_shapes = [_type_of(k, {k - 2: (k + 1) // 2, k: t})] + [
                _type_of(k, {k - 2 - i: 1, k - 2: (k - 1) // 2 - i, k - 1: i, k: t})
                for i in range(1, m + 1)
            ]
            b_shapes = [
                _type_of(k, {k - 2 - i: 2, k - 2: (k - 3) // 2 - i, k: t + i})
                for i in range(1, m + 1)
            ]
            # the four shapes and nothing else; a shape left out has multiplicity 0
            assert set(block.solution) <= {x_shape, *a_shapes, *b_shapes}
            x = block.solution.get(x_shape, 0)
            a = tuple(block.solution.get(lam, 0) for lam in a_shapes)  # a_0 .. a_m
            b = tuple(block.solution.get(lam, 0) for lam in b_shapes)  # b_1 .. b_m
            assert all(isinstance(v, int) and v >= 0 for v in (x, *a, *b))
            y = sum(a) + sum(b)
            big_a = sum(i * a[i] for i in range(1, m + 1))
            big_b = sum(i * b[i - 1] for i in range(1, m + 1))
            # level k-1: each partition of the x-shape holds one such set
            assert x + big_a == binomial(n, k - 1)
            # level k
            assert ((k - 3) // 2 + t) * x + t * y + big_b == binomial(n, k)
            # each shared lower level splits exactly between the two shapes
            for i in range(1, m + 1):
                assert a[i] + 2 * b[i - 1] == binomial(n, k - 2 - i)
            # level k-2 across all shapes
            lhs = (k + 1) // 2 * a[0]
            lhs += sum(((k - 1) // 2 - i) * a[i] for i in range(1, m + 1))
            lhs += sum(((k - 3) // 2 - i) * b[i - 1] for i in range(1, m + 1))
            assert lhs == binomial(n, k - 2)
            # the partition count y of the shapes but x, in closed form
            half = (k - 1) // 2 + t
            closed = sum(
                Fraction(k - 2 + 2 * t + i * half, n) * binomial(n, k - 2 - i)
                for i in range(m + 1)
            )
            assert closed == y
            # the whole block solves its level system exactly
            assert solution_residual(n, block.levels, block.solution) == (0,) * k
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s (pin: 10 s)"


def test_c07_certificate_family_soundness():
    """Criterion 7: every certificate family reachable with k <= 9, n <= 40
    emits a vector that passes full verification; all seven families fire.
    < 1 min."""
    start = time.perf_counter()
    seen: set[str] = set()

    def check(n: int, levels: LevelSet) -> None:
        found = certificate_with_branch(n, levels)
        if found is None:
            return
        name, cert = found
        assert verify_certificate(build_system(n, levels), cert).ok, (n, levels.levels, name)
        seen.add(name)

    for k in range(2, 10):
        for n in range(2 * k + 1, 41):
            check(n, LevelSet.full(k))
    for kmax in range(2, 7):
        for bits in range(1, 2 ** (kmax - 1)):
            lv = [j for j in range(1, kmax) if bits >> (j - 1) & 1] + [kmax]
            levels = LevelSet.of(lv)
            if levels.is_full_range():
                continue
            for n in range(kmax, 25):
                check(n, levels)
    assert seen == {
        "residue-mid-large",
        "residue-mid-tight",
        "divisible-below-threshold",
        "minus-one-below-threshold",
        "sparse-residue-mid",
        "sparse-minus-one-gap",
        "sparse-2-3-4-minus-one",
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s (pin: 60 s)"


def test_c08_divisibility_of_pairing_multiplicities():
    """Criterion 8: k/gcd(k,i) divides binomial(jk, i) for all k <= 10,
    n = jk <= 60, 1 <= i <= k-1; the divisible construction never rounds.
    < 1 s."""
    start = time.perf_counter()
    for k in range(1, 11):
        n = k
        while n <= 60:
            for i in range(1, k):
                q = k // gcd(k, i)
                assert binomial(n, i) % q == 0, (n, k, i)
            n += k
    built = 0
    for k in range(2, 9):
        n = k * max(3, k - 2)
        while n <= 60:
            if n > 2 * k:
                solution = construct_div(n, k)
                assert solution_residual(n, LevelSet.full(k), solution) == (0,) * k
                assert all(isinstance(m, int) and m >= 0 for m in solution.values())
                built += 1
            n += k
    assert built >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s (pin: 1 s)"


def test_c09_lp_farkas_dichotomy():
    """Criterion 9: for every (n <= 14, full range {1..k}), exact LP returns
    a non-negative rational solution or a Farkas certificate, never both,
    and the returned witness validates. < 2 min."""
    start = time.perf_counter()
    for n in range(1, 15):
        for k in range(1, n + 1):
            system = build_system(n, LevelSet.full(k))
            outcome = lp_feasible(system)
            if outcome.feasible:
                assert outcome.solution is not None and outcome.certificate is None
                assert all(v >= 0 for v in outcome.solution.values()) and outcome.det > 0
                # the solution is over det
                residual = [b * outcome.det for b in system.b]
                for lam, mult in outcome.solution.items():
                    for i, c in enumerate(lam):
                        residual[i] -= c * mult
                assert all(r == 0 for r in residual), (n, k)
            else:
                assert outcome.certificate is not None and outcome.solution is None
                assert verify_certificate(system, outcome.certificate).ok, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s (pin: 120 s)"


def test_c10_round_trip_file_format(tmp_path):
    """Criterion 10: construct -> write -> read -> verify OK, and
    re-serialization is byte-identical."""
    cases = [
        construct(6, LevelSet.full(3)),
        construct(11, LevelSet.full(3)),
        construct(12, levels=LevelSet.of([2, 4])),
    ]
    for idx, fact in enumerate(cases):
        text = write_factorization(fact)
        path = str(tmp_path / f"fact_{idx}.txt")
        Path(path).write_bytes(text.encode())
        loaded = load_text(path)
        assert loaded == text
        again = parse_factorization(loaded)
        assert verify_factorization(again) == []
        assert again == fact
        assert write_factorization(again) == text
