"""hyperfactor benchmark: one workload, end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 22 --trace 0

Workloads: construct, decide-range, decide-sparse (see workloads.py and
README.md); `--workload all` runs the three in turn.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports per-layer metrics
from a traced replay of the same ops.  Every line but the last is for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every answer passed its
check.

Each measurement runs in a fresh interpreter (worker.py), one process, one
client, no threads.  A run executes every op of its sample; --seconds sets
the sample rate, so the same seed and seconds give the same ops on any host
(see workloads.py).  Set-up time is the median over SETUP_SAMPLES fresh
interpreters: the time from starting the process to the moment its schedule
is built and the first op could start.  The workers run with a warm bytecode
cache, as a command-line user has after the first call: run.py compiles the
sources first and removes PYTHONDONTWRITEBYTECODE and PYTHONPYCACHEPREFIX
from the workers' environment, so set-up never includes compiling and does
not depend on the caller's shell.

Times are reported in reference seconds.  Every worker times a fixed
pure-Python calibration loop (worker.calibrate) between ops, at least every
0.1 s of op time.  An op's speed factor is the median of the samples taken
within CAL_WINDOW_S of it, over CAL_REF_S, and its time in reference seconds
is its wall time divided by that factor.  On a host shared with other
tenants the same ops were seen to take up to twice as long from one minute
to the next; the factor takes that swing out.  The human-readable lines give
the wall-clock values and the factor as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("construct", "decide-range", "decide-sparse")
SETUP_SAMPLES = 9
#: a run must end within this many seconds of starting, checks included
BUDGET_S = 170.0
#: the tail latency is the highest sample with at least this many beyond it
TAIL_BEYOND = 10
#: seconds worker.calibrate() takes on an idle core of the machine the
#: baseline was recorded on (Python 3.11.7); a speed factor of 1
CAL_REF_S = 0.006
#: op seconds around an op whose calibration samples give its speed factor
CAL_WINDOW_S = 1.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
#: metrics of a traced run besides the per-layer ones in tracing.py
TRACE_UNITS = {"trace.overhead_ratio": "ratio"}
#: the workers' environment: bytecode is read from and written to
#: __pycache__ beside the sources, whatever the caller's shell says
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start worker.py; returns (monotonic start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=WORKER_ENV,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time budget: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return start, json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def speed_factor(result: dict) -> float:
    """How much slower than the reference the host ran, over a whole worker."""
    return statistics.median(c[1] for c in result["cals"]) / CAL_REF_S


def reference_latencies(result: dict) -> list[float]:
    """Each op's wall time divided by the host's speed factor around it."""
    cals = result["cals"]
    out, start = [], 0.0
    for op in result["ops"]:
        end = start + op[2]
        near = [c[1] for c in cals if start - CAL_WINDOW_S <= c[0] <= end + CAL_WINDOW_S]
        if len(near) < 3:
            near = [c[1] for c in sorted(cals, key=lambda c: abs(c[0] - (start + end) / 2))[:3]]
        out.append(op[2] * CAL_REF_S / statistics.median(near))
        start = end
    return out


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops, speed = res["ops"], speed_factor(res)
    wall = [op[2] for op in ops]
    latencies = reference_latencies(res)
    undecided = sum(1 for op in ops if op[4])
    failed = sum(1 for op in ops if op[3])
    tail_s, tail_pct = tail(latencies)
    values = {
        "ops_per_s": len(ops) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "decided_ratio": 1 - undecided / len(ops),
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"ops: {len(ops)}, {sum(wall):.2f} s of op time (wall clock)",
        f"host speed factor {speed:.4f}: wall-clock ops_per_s = {len(ops) / sum(wall):.4f}, "
        f"latency_p50_s = {statistics.median(wall):.6f}, latency_tail_s = {tail(wall)[0]:.6f}",
        f"latency_tail_s is the p{tail_pct:.1f} latency: {TAIL_BEYOND} of {len(ops)} ops are slower",
        f"fail_ratio = {failed / len(ops):.4f} ratio",
        f"undecided_ratio = {undecided / len(ops):.4f} ratio",
        f"setup samples (reference s): {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hyperfactor" / "cli.py").is_file():
        print(f"error: no hyperfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile every module once, so that no worker's set-up includes it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/hyperfactor", "perfbench"],
                   cwd=ROOT, env=WORKER_ENV, capture_output=True, timeout=60)
    if args.workload != "all":
        return measure(args)
    # one block per workload, each ending in its own JSON line
    return max(measure(argparse.Namespace(**{**vars(args), "workload": w})) for w in WORKLOADS)


def measure(args: argparse.Namespace) -> int:
    """Run one workload and print its metrics; returns the exit code."""
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                start, res = run_worker(args, deadline, "--mode", "setup", "--seconds",
                                        str(args.seconds))
                setups.append((res["ready"] - start) / speed_factor(res))
            start, res = run_worker(args, deadline, "--mode", "run", "--seconds", str(args.seconds))
            setups.append((res["ready"] - start) / speed_factor(res))
            ops = res["ops"]
            metrics, notes = end_to_end(res, setups)
        else:
            # untraced first, then the same ops traced in a fresh process
            half = ("--mode", "run", "--seconds", str(args.seconds / 2))
            _, plain = run_worker(args, deadline, *half)
            _, traced = run_worker(args, deadline, *half, "--trace")
            plain_s = sum(reference_latencies(plain))
            traced_s = sum(reference_latencies(traced))
            speed = sum(op[2] for op in traced["ops"]) / traced_s
            metrics = {name: {"value": v / speed if u in ("s", "s/op") else v, "unit": u}
                       for name, (v, u) in traced["layers"].items()}
            metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s,
                                               "unit": TRACE_UNITS["trace.overhead_ratio"]}
            ops = plain["ops"] + traced["ops"]
            notes = [f"ops: {len(plain['ops'])} untraced ({plain_s:.2f} reference s), the same "
                     f"{len(traced['ops'])} traced ({traced_s:.2f} reference s), "
                     f"speed factor {speed:.4f}"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [op for op in ops if op[3]]
    for stratum, argv_text, _latency, problems, *_ in failures[:10]:
        print(f"FAILED [{stratum}] {argv_text}: {'; '.join(problems)}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
