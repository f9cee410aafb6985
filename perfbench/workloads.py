"""Seeded, stratified instance samples for the three workloads.

A workload is a list of strata.  Each stratum has a pool of instances: every
instance that passes the stratum's filter, sorted by a size key.  Filters and
keys are properties of the input (family size, number of type rows, number of
types) or the settling branch recorded in the checked-in manifest
(`sparse_manifest.json`), never measured time.

The mix rule: a run samples every stratum of its workload at the same rate,
so each stratum's share of the ops is its share of the workload's
population, as in a sweep over that population.  The rate is the run's
`--seconds` over `SWEEP_REF_S`, the reference seconds the whole population
took at the commit that added the benchmark, capped at 1.  A stratum of P
instances gives round(rate * P) of them: its size-sorted pool is cut into
that many equal bands and one seeded pick is made from each band, so the
sizes are spread alike in every run.  The picks of all strata are then put
in a seeded order.  The same seed and seconds give the same ops; every seed
gives the same count per stratum; no instance is used twice in a run.

The program under test only ever sees the command-line arguments built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

MANIFEST = Path(__file__).resolve().parent / "sparse_manifest.json"

#: settling branch recorded in the manifest -> the status `decide` printed
BRANCH_STATUS = {
    "certificate": "NOT_FACTORABLE",
    "pairing": "FACTORABLE",
    "search-witness": "FACTORABLE",
    "search-exhausted": "NOT_FACTORABLE",
    "lp-infeasible": "NOT_FACTORABLE",
    "lp-undecided": "RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL",
}


@dataclass(frozen=True)
class Instance:
    stratum: str
    n: int
    levels: tuple[int, ...]

    @property
    def is_range(self) -> bool:
        return self.levels == tuple(range(1, len(self.levels) + 1))

    def argv(self) -> list[str]:
        if self.is_range:
            return ["--n", str(self.n), "--k", str(len(self.levels))]
        return ["--n", str(self.n), "--levels", oracle.levels_text(self.levels)]


def _pool(keyed: list[tuple[tuple, Instance]]) -> tuple[Instance, ...]:
    """The instances sorted by their size keys."""
    keyed.sort(key=lambda kv: kv[0])
    return tuple(inst for _, inst in keyed)


def load_manifest() -> list[tuple[int, tuple[int, ...], int, str]]:
    """(n, levels, number of types, settling branch) for every recorded set."""
    with open(MANIFEST, encoding="utf-8") as fh:
        data = json.load(fh)
    return [(n, tuple(int(v) for v in lv.split(",")), types, branch)
            for n, lv, types, branch in data["sets"]]


def construct_strata() -> list[tuple[Instance, ...]]:
    small, compl, sparse = [], [], []
    for n in range(12, 17):
        for k in range(2, n + 1):
            if not oracle.range_factorable(n, k):
                continue
            inst_levels = tuple(range(1, k + 1))
            key = (oracle.family_size(n, inst_levels), n, k)
            if 2 * k < n:
                small.append((key, Instance("small-k", n, inst_levels)))
            elif n <= 15:
                # at n = 16 one op writes and reads 65,000 subsets: about a second
                compl.append((key, Instance("complement", n, inst_levels)))
    for n, levels, _types, branch in load_manifest():
        size = oracle.family_size(n, levels)
        if branch == "pairing" and 12 <= n <= 16 and size <= 5000:
            sparse.append(((size, n, levels), Instance("sparse-pairing", n, levels)))
    return [_pool(small), _pool(compl), _pool(sparse)]


def _range_rows() -> list[list[int]]:
    """rows[s][m] = number of partitions of s into parts of size <= m (s, m <= 64)."""
    rows = [[1] * 65] + [[0] * 65 for _ in range(64)]
    for s in range(1, 65):
        for m in range(1, 65):
            rows[s][m] = rows[s][m - 1] + (rows[s - m][m] if s >= m else 0)
    return rows


#: decide-range row bands: one band inside each decade 10^2, 10^3, 10^4
ROW_BANDS = (("rows-1e2", 250, 800), ("rows-1e3", 2_800, 3_600), ("rows-1e4", 10_000, 12_000))


def decide_range_strata() -> list[tuple[Instance, ...]]:
    rows = _range_rows()
    factorable = []
    banded: dict[str, list] = {name: [] for name, _lo, _hi in ROW_BANDS}
    for n in range(20, 65):
        for k in range(2, n + 1):
            inst_levels = tuple(range(1, k + 1))
            if oracle.range_factorable(n, k):
                factorable.append(((n, k), Instance("factorable", n, inst_levels)))
                continue
            r = rows[n][oracle.certificate_range(n, k)]
            for name, lo, hi in ROW_BANDS:
                if lo <= r < hi:
                    banded[name].append(((r, n, k), Instance(name, n, inst_levels)))
    return [_pool(factorable)] + [_pool(banded[name]) for name, _lo, _hi in ROW_BANDS]


#: decide-sparse: settling branch -> input-property filter on (n, k, types),
#: k the largest level.  All but the LP strata draw from the manifest's
#: complete sweep (every non-range set with k <= 7 and n <= 24), where only
#: 7 sets reach the LP; the LP strata draw from all of the manifest, whose
#: n in 25..40 part was swept to find them.  Search witnesses stop at n = 12
#: and the LP strata at 600 types, so that one op stays under about a second.
SPARSE_STRATA = (
    ("certificate", lambda n, k, types: n <= 24 and k <= 7),
    ("pairing", lambda n, k, types: n <= 24 and k <= 7),
    ("search-witness", lambda n, k, types: n <= 12),
    ("search-exhausted", lambda n, k, types: types >= 1),
    ("lp-infeasible", lambda n, k, types: types <= 600),
    ("lp-undecided", lambda n, k, types: types <= 600),
)


def decide_sparse_strata() -> list[tuple[Instance, ...]]:
    by_branch: dict[str, list] = {name: [] for name, _keep in SPARSE_STRATA}
    filters = dict(SPARSE_STRATA)
    for n, levels, types, branch in load_manifest():
        if branch in filters and filters[branch](n, levels[-1], types):
            by_branch[branch].append(((types, n, levels), Instance(branch, n, levels)))
    return [_pool(by_branch[name]) for name, _keep in SPARSE_STRATA]


WORKLOADS = {
    "construct": construct_strata,
    "decide-range": decide_range_strata,
    "decide-sparse": decide_sparse_strata,
}


#: reference seconds of op time the whole population of each workload took
#: at the commit that added the benchmark
SWEEP_REF_S = {"construct": 21.4, "decide-range": 19.1, "decide-sparse": 13.1}


def sample_rate(workload: str, seconds: float) -> float:
    return min(1.0, seconds / SWEEP_REF_S[workload])


def schedule(workload: str, seed: int, seconds: float) -> list[Instance]:
    """The ops of a run, in order: every stratum sampled at the same rate."""
    rate = sample_rate(workload, seconds)
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Instance] = []
    for pool in WORKLOADS[workload]():
        count = max(1, round(rate * len(pool)))
        for b in range(count):
            ops.append(rng.choice(pool[b * len(pool) // count:(b + 1) * len(pool) // count]))
    rng.shuffle(ops)
    return ops
