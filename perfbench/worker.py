"""One workload process: set up, run the closed loop, check every answer.

run.py starts this file in a fresh interpreter for every measurement, so
set-up (interpreter start, `import hyperfactor.cli`, building the schedule)
and peak memory belong to one workload.  The loop is closed: one client, no
threads, each op issued after the previous one returned.  An op calls
`hyperfactor.cli.main(argv)` in-process with stdout and stderr captured in
memory; files go to a temporary directory inside the checkout.  Answer checks
run after each op and are not timed.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hyperfactor.cli as cli  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: op seconds between two calibration samples
CAL_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work (fractions, tuple-keyed dicts, a sort) uses no hyperfactor code,
    so a change to the program cannot change it; only the host's speed can.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i & 63, i % 3)
        counts[key] = counts.get(key, 0) + (i * 2654435761) % 65521
    sorted(((v * 31) % 97, v) for v in range(4000))
    return perf_counter() - t0


def _call(argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class Runner:
    """Times one op of a workload and checks its answer."""

    def __init__(self, workdir: str, tracer: tracing.Tracer | None) -> None:
        self.path = os.path.join(workdir, "answer.txt")
        self.tracer = tracer
        #: seconds the last op took, answer checks excluded
        self.latency = 0.0

    @contextlib.contextmanager
    def timed(self):
        """The timed (and, when tracing, recorded) part of an op."""
        if self.tracer is not None:
            self.tracer.recording = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.latency = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False

    def construct(self, inst) -> tuple[list[str], bool]:
        with self.timed():
            rc1, _ = _call(["construct", *inst.argv(), "--out", self.path])
            rc2, out2 = _call(["verify", "--file", self.path]) if rc1 == 0 else (None, "")
        m = oracle.factor_count(inst.n, inst.levels)
        want = (f"OK: valid factorization of n={inst.n} levels={oracle.levels_text(inst.levels)} "
                f"with {m} factors")
        problems = []
        if rc1 != 0:
            problems.append(f"construct exited {rc1}")
        elif rc2 != 0 or out2.strip() != want:
            problems.append(f"verify exited {rc2}: {out2.strip()[:120]!r}, want {want!r}")
        if os.path.exists(self.path):
            os.remove(self.path)
        return problems, False

    def decide_range(self, inst) -> tuple[list[str], bool]:
        rc2 = rc3 = None
        out2 = out3 = ""
        with self.timed():
            rc, out = _call(["decide", *inst.argv()])
            d = oracle.parse_decide(out)
            if rc == 1 and d["certificate_levels"]:
                rc2, out2 = _call(["certificate", *inst.argv()])
                with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                    levels = oracle.levels_text(d["certificate_levels"])
                    fh.write(f"FARKAS v1\nn={inst.n} levels={levels}\n{out2}")
                rc3, out3 = _call(["verify", "--file", self.path])

        n, k = inst.n, len(inst.levels)
        factorable = oracle.range_factorable(n, k)
        problems = []
        want = "FACTORABLE" if factorable else "NOT_FACTORABLE"
        if d["status"] != want or rc != (0 if factorable else 1):
            problems.append(f"decide said {d['status']} (exit {rc}); characterization says {want}")
        elif not factorable:
            levels = list(range(1, oracle.certificate_range(n, k) + 1))
            if d["certificate_levels"] != levels:
                problems.append(f"certificate levels {d['certificate_levels']}, want {levels}")
            elif d["certificate"] is None or not oracle.certificate_holds(n, levels, d["certificate"]):
                problems.append("decide's certificate fails the knapsack check")
            else:
                try:
                    y = [Fraction(v) for v in out2.split()]
                except ValueError:
                    y = []
                if rc2 != 0 or not oracle.certificate_holds(n, levels, y):
                    problems.append(f"certificate exited {rc2}; its vector fails the knapsack check")
                if rc3 != 0 or not out3.startswith("OK: certificate separates"):
                    problems.append(f"verify of the certificate exited {rc3}: {out3.strip()[:120]!r}")
        if os.path.exists(self.path):
            os.remove(self.path)
        return problems, False

    def decide_sparse(self, inst) -> tuple[list[str], bool]:
        with self.timed():
            rc, out = _call(["decide", *inst.argv()])

        d = oracle.parse_decide(out)
        recorded = workloads.BRANCH_STATUS[inst.stratum]
        status = d["status"]
        problems = []
        undecided = status in ("UNKNOWN", "RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL")
        if undecided:
            if rc != 3:
                problems.append(f"{status} with exit {rc}")
        elif status == "FACTORABLE":
            if rc != 0 or recorded == "NOT_FACTORABLE":
                problems.append(f"FACTORABLE (exit {rc}); the manifest records {recorded}")
            else:
                problems += self._check_witness(inst, d["solution_types"])
        elif status == "NOT_FACTORABLE":
            if rc != 1 or recorded == "FACTORABLE":
                problems.append(f"NOT_FACTORABLE (exit {rc}); the manifest records {recorded}")
            elif d["certificate"] is not None:
                if d["certificate_levels"] != list(inst.levels) or not oracle.certificate_holds(
                        inst.n, inst.levels, d["certificate"]):
                    problems.append("certificate fails the knapsack check")
            elif inst.stratum != "search-exhausted":
                problems.append(f"no certificate, and the manifest records branch {inst.stratum}")
        else:
            problems.append(f"unexpected output {out[:120]!r} (exit {rc})")
        return problems, undecided

    def _check_witness(self, inst, solution_types: int | None) -> list[str]:
        """decide prints only the witness size; `solve` prints the witness."""
        rc, out = _call(["solve", *inst.argv()])
        try:
            blocks = oracle.parse_solve(out)
            if rc != 0 or len(blocks) != 1 or blocks[0][:2] != (inst.n, list(inst.levels)):
                return [f"solve exited {rc} with blocks {[b[:2] for b in blocks]}"]
            solution = blocks[0][2]
            res = oracle.residual(inst.n, inst.levels, solution)
        except ValueError as exc:
            return [f"witness rejected: {exc}"]
        if any(res):
            return [f"witness residual {res}"]
        if len(solution) != solution_types:
            return [f"decide reported {solution_types} witness types, solve printed {len(solution)}"]
        return []


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the sample rate (see workloads.py)")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    schedule = workloads.schedule(args.workload, args.seed, args.seconds)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "cals": [[0.0, calibrate()] for _ in range(5)]}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    runner = Runner(workdir, tracer)
    run_op = getattr(runner, args.workload.replace("-", "_"))
    ops: list[list] = []
    op_time = 0.0
    # untimed samples of the host's speed, as [op time so far, seconds]
    cals = [[0.0, calibrate()] for _ in range(3)]
    try:
        for inst in schedule:
            if op_time >= cals[-1][0] + CAL_EVERY_S:
                cals.append([op_time, calibrate()])
            if tracer is not None:
                tracer.op = len(ops)
            try:
                problems, undecided = run_op(inst)
            except Exception:
                problems, undecided = [traceback.format_exc(limit=3)], False
            op_time += runner.latency
            ops.append([inst.stratum, " ".join(inst.argv()), runner.latency, problems, undecided])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cals += [[op_time, calibrate()] for _ in range(3)]

    result = {
        "ready": ready,
        "ops": ops,
        "cals": cals,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer, max(len(ops), 1), op_time)
        tracer.write(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
