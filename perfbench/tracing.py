"""Span recording around the public functions of each hyperfactor module.

The program has no spans of its own, so the benchmark wraps functions from
outside.  A wrapper replaces the function under every name that refers to it
in every loaded hyperfactor module: `from .flow import run as flow_run`
copies the function into `hyperfactor.decide`, and a patch of `flow.run`
alone would miss those calls.

A span is [name, start, end, parent index, op id, busy seconds].  Spans stay
in memory until the run ends.  A layer's self time is the busy time of its
spans minus the busy time of their child spans.  `iter_types` is a
generator: its span is busy only while the consumer waits in next(), and its
parent is the span that was open when it was created.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

#: (module, function) pairs that get a span, grouped by layer (the module)
TARGETS = {
    "cli": ("main",),
    "decide": ("decide", "decide_general", "construct"),
    "flow": ("run", "init_state", "build_step_network", "max_flow_integral", "evolve_step"),
    "verifier": ("verify_factorization",),
    "fileformat": ("write_factorization", "parse_factorization"),
    "reducer": ("extend_by_complements", "project_lift"),
    "combinatorics": ("iter_types", "enumerate_types"),
    "constructors": ("certificate_with_branch", "construct_div", "construct_general_L_div",
                     "construct_minus1"),
    "linear_system": ("build_system", "integer_search_small", "lp_feasible", "verify_certificate"),
    "exactlp": ("feasible_nonnegative",),
}
LAYERS = tuple(TARGETS)
GENERATORS = {"combinatorics.iter_types"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        #: spans are recorded only while this is set (the timed part of an op)
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(span)
            stack.append(idx)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[2] = perf_counter()
                span[5] = span[2] - span[1]
                stack.pop()
                counts[name + ".calls"] += 1
                if observe is not None:
                    observe(counts, args, None if raised else result, raised)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            return _TimedIterator(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every hyperfactor module namespace that holds a target."""
        originals = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"hyperfactor.{layer}"]
            for fname in names:
                full = f"{layer}.{fname}"
                fn = getattr(module, fname)
                wrap = self._wrap_generator if full in GENERATORS else self._wrap
                originals[id(fn)] = wrap(full, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hyperfactor" and not modname.startswith("hyperfactor."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Counter:
        """Self seconds per span name."""
        busy = Counter()
        child = Counter()
        for name, _start, _end, parent, _op, spent in self.spans:
            busy[name] += spent
            if parent >= 0:
                child[self.spans[parent][0]] += spent
        return Counter({name: busy[name] - child[name] for name in busy})

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _TimedIterator:
    """Times each next() of a wrapped generator; closes its span when done."""

    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self.tracer, self.name, self.it = tracer, name, it
        self.parent = tracer.stack[-1] if tracer.stack else -1
        self.start = perf_counter()
        self.busy = 0.0
        self.yielded = 0
        self.open = True

    def __iter__(self):
        return self

    def __next__(self):
        t = perf_counter()
        try:
            value = next(self.it)
        except StopIteration:
            self.busy += perf_counter() - t
            self.close()
            raise
        self.busy += perf_counter() - t
        self.yielded += 1
        return value

    def close(self) -> None:
        if self.open:
            self.open = False
            tr = self.tracer
            tr.spans.append([self.name, self.start, perf_counter(), self.parent, tr.op, self.busy])
            tr.counts[self.name + ".calls"] += 1
            tr.counts["combinatorics.types_yielded"] += self.yielded

    def __del__(self) -> None:
        self.close()


# -- counters read from arguments and results ---------------------------------


def _evolve_step(counts, args, result, raised):
    if not raised and result.last_step is not None:
        rec = result.last_step
        counts["flow.partitions"] += rec.flow_value
        counts["flow.occurrence_nodes"] += rec.occurrence_nodes
        counts["flow.pairs_checked"] += rec.pairs_checked


def _verify(counts, args, result, raised):
    counts["verifier.factors"] += len(args[0].factors)


def _write(counts, args, result, raised):
    if not raised:
        # the format is ASCII, so characters are bytes
        counts["fileformat.bytes"] += len(result)


def _parse(counts, args, result, raised):
    counts["fileformat.bytes"] += len(args[0])


def _search(counts, args, result, raised):
    if not raised:
        counts["linear_system.search_finished"] += 1


def _feasible(counts, args, result, raised):
    counts["exactlp.columns_total"] += len(args[0])
    if not raised and not result.feasible:
        counts["exactlp.infeasible"] += 1


_OBSERVERS = {
    "flow.evolve_step": _evolve_step,
    "verifier.verify_factorization": _verify,
    "fileformat.write_factorization": _write,
    "fileformat.parse_factorization": _parse,
    "linear_system.integer_search_small": _search,
    "exactlp.feasible_nonnegative": _feasible,
}


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, times and counts per op, from one traced run."""
    self_s = tracer.self_times()
    c = tracer.counts

    def per_op(v: float) -> float:
        return v / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def s(*names: str) -> tuple[float, str]:
        return per_op(sum(self_s[n] for n in names)), "s/op"

    def count(name: str) -> tuple[float, str]:
        return per_op(c[name]), "count/op"

    m: dict[str, tuple[float, str]] = {
        "flow.init_s": s("flow.init_state"),
        "flow.network_s": s("flow.build_step_network"),
        "flow.maxflow_s": s("flow.max_flow_integral"),
        "flow.step_self_s": s("flow.evolve_step"),
        "flow.run_self_s": s("flow.run"),
        "flow.steps": count("flow.evolve_step.calls"),
        "flow.partitions": count("flow.partitions"),
        "flow.occurrence_nodes": count("flow.occurrence_nodes"),
        "flow.pairs_checked": count("flow.pairs_checked"),
        "verifier.s": s("verifier.verify_factorization"),
        "verifier.calls": count("verifier.verify_factorization.calls"),
        "verifier.factors": count("verifier.factors"),
        "fileformat.write_s": s("fileformat.write_factorization"),
        "fileformat.parse_s": s("fileformat.parse_factorization"),
        "fileformat.bytes": count("fileformat.bytes"),
        "reducer.extend_s": s("reducer.extend_by_complements"),
        "reducer.project_s": s("reducer.project_lift"),
        "combinatorics.types_s": s("combinatorics.iter_types", "combinatorics.enumerate_types"),
        "combinatorics.types_yielded": count("combinatorics.types_yielded"),
        "constructors.certificate_s": s("constructors.certificate_with_branch"),
        "constructors.certificate_calls": count("constructors.certificate_with_branch.calls"),
        "constructors.solution_s": s("constructors.construct_div",
                                     "constructors.construct_general_L_div",
                                     "constructors.construct_minus1"),
        "linear_system.build_system_s": s("linear_system.build_system"),
        "linear_system.search_s": s("linear_system.integer_search_small"),
        "linear_system.search_calls": count("linear_system.integer_search_small.calls"),
        "linear_system.search_useful_ratio": (
            ratio(c["linear_system.search_finished"], c["linear_system.integer_search_small.calls"]),
            "ratio"),
        "linear_system.lp_s": s("linear_system.lp_feasible"),
        "linear_system.lp_calls": count("linear_system.lp_feasible.calls"),
        "linear_system.verify_certificate_s": s("linear_system.verify_certificate"),
        "exactlp.s": s("exactlp.feasible_nonnegative"),
        "exactlp.calls": count("exactlp.feasible_nonnegative.calls"),
        "exactlp.columns_total": count("exactlp.columns_total"),
        "exactlp.prune_ratio": (
            ratio(c["exactlp.infeasible"], c["exactlp.feasible_nonnegative.calls"]), "ratio"),
        "decide.self_s": s("decide.decide", "decide.decide_general", "decide.construct"),
        "decide.calls": (per_op(sum(c[f"decide.{f}.calls"] for f in TARGETS["decide"])), "count/op"),
        "cli.self_s": s("cli.main"),
    }
    for layer in LAYERS:
        names = [f"{layer}.{f}" for f in TARGETS[layer]]
        m[f"{layer}.self_share"] = (ratio(sum(self_s[n] for n in names), op_seconds), "ratio")
    return m
