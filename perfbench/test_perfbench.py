"""Tests of the benchmark itself: schedules, answer checks, metric names.

Run with:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperfactor.combinatorics import LevelSet  # noqa: E402
from hyperfactor.constructors import certificate_with_branch  # noqa: E402
from hyperfactor.decide import Status, decide  # noqa: E402
from hyperfactor.linear_system import FarkasCertificate, build_system, verify_certificate  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


#: the run length BENCHMARK.json asks for
SECONDS = BENCHMARK["run_seconds"]


def _ops(workload, seed, seconds=SECONDS):
    return [(inst.stratum, inst.n, inst.levels)
            for inst in workloads.schedule(workload, seed, seconds)]


def test_schedule_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        first = _ops(name, 7)
        assert first == _ops(name, 7), name
        assert first != _ops(name, 8), name
        instances = [(n, levels) for _stratum, n, levels in first]
        assert len(instances) == len(set(instances)), f"{name} repeats an instance"


def test_every_stratum_is_sampled_at_one_rate():
    for name, strata in workloads.WORKLOADS.items():
        for seconds in (SECONDS, SECONDS / 2, 1):
            rate = workloads.sample_rate(name, seconds)
            want = Counter({pool[0].stratum: max(1, round(rate * len(pool))) for pool in strata()})
            for seed in (3, 4):
                assert Counter(s for s, _n, _levels in _ops(name, seed, seconds)) == want


def _c07_grid():
    """The grid of acceptance criterion 7: k <= 9, n <= 40, and sparse sets."""
    for k in range(2, 10):
        for n in range(2 * k + 1, 41):
            yield n, LevelSet.full(k)
    for kmax in range(2, 7):
        for bits in range(1, 2 ** (kmax - 1)):
            levels = LevelSet.of([j for j in range(1, kmax) if bits >> (j - 1) & 1] + [kmax])
            if not levels.is_full_range():
                for n in range(kmax, 25):
                    yield n, levels


def test_knapsack_check_agrees_with_verify_certificate():
    emitted = 0
    for n, levels in _c07_grid():
        found = certificate_with_branch(n, levels)
        if found is None:
            continue
        y = found[1].y
        emitted += 1
        system = build_system(n, levels)

        def program_accepts(vector) -> bool:
            return verify_certificate(system, FarkasCertificate(tuple(vector))).ok

        assert oracle.certificate_holds(n, levels.levels, y) and program_accepts(y)

        # one entry perturbed: the top level makes b . y non-negative
        b_dot = sum(oracle.family_size(n, [j]) * y[j - 1] for j in levels)
        worse = list(y)
        worse[levels.k - 1] += abs(b_dot) + 1
        assert not oracle.certificate_holds(n, levels.levels, worse)
        assert not program_accepts(worse)

        # the smallest level, lowered, makes some type negative
        low = levels.levels[0]
        if oracle.type_count(n - low, levels.levels) > 0:
            worse = list(y)
            worse[low - 1] -= n * sum(abs(v) for v in y) + 1
            assert not oracle.certificate_holds(n, levels.levels, worse)
            assert not program_accepts(worse)
    assert emitted > 100


def test_characterization_matches_decide():
    for n in range(2, 31):
        for k in range(1, n + 1):
            factorable = decide(n, k).status is Status.FACTORABLE
            assert oracle.range_factorable(n, k) == factorable, (n, k)


def test_residual_and_factor_count():
    assert oracle.residual(12, (2, 4), {(0, 6, 0, 0): 11, (0, 0, 0, 3): 165}) == [0, 0, 0, 0]
    assert oracle.residual(12, (2, 4), {(0, 6, 0, 0): 10, (0, 0, 0, 3): 165}) == [0, -6, 0, 0]
    assert oracle.factor_count(12, (1, 2, 3)) == 1 + 11 + 55
    assert oracle.certificate_holds(7, (1, 2, 3), [Fraction(2), Fraction(1, 2), Fraction(-1)])


def test_metric_names_and_units_match_the_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layers = tracing.layer_metrics(tracing.Tracer(), 1, 1.0)
    emitted = {name: unit for name, (_value, unit) in layers.items()} | run.TRACE_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == emitted
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert pattern.fullmatch(metric["name"]), metric["name"]


def test_traced_worker_checks_every_answer():
    for name in workloads.WORKLOADS:
        # the smallest rate: one instance per stratum
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "1",
             "--mode", "run", "--seconds", "0.001", "--trace"],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert len(result["ops"]) == len(workloads.WORKLOADS[name]()), name
        assert all(not op[3] for op in result["ops"]), result["ops"]
        assert result["layers"]["cli.self_share"][0] > 0, name
