"""Regenerate sparse_manifest.json: the settling branch of each level set.

Run from the repository root:  python3 perfbench/make_manifest.py
It takes a few minutes.  The manifest records, for every level set below,
which branch of `decide_general` settled it and how many types it has:

* every non-range level set with largest level k <= 7 and k <= n <= 24;
* n in 25..40, k <= 8, with 200 < types <= 5000: these skip the integer
  search (its limit is 200 types) and reach the exact LP;
* n in 12..16, sets the divisible level-pairing construction solves
  (classified without running `decide_general`, which would search).

The decide-sparse workload draws its strata from this file, and its answer
checks compare exhausted-search verdicts with it.  The construct workload
draws its sparse stratum from the pairing entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hyperfactor.combinatorics import LevelSet  # noqa: E402
from hyperfactor.constructors import certificate_with_branch, construct_general_L_div  # noqa: E402
from hyperfactor.decide import Status, decide_general  # noqa: E402

import oracle  # noqa: E402


def level_sets(k_max: int, n: int):
    """Non-range level sets with largest level 2..min(k_max, n)."""
    for k in range(2, min(k_max, n) + 1):
        for bits in range(2 ** (k - 1)):
            levels = tuple(j for j in range(1, k) if bits >> (j - 1) & 1) + (k,)
            if levels != tuple(range(1, k + 1)):
                yield levels


def branch_of(n: int, levels: tuple[int, ...]) -> str | None:
    verdict = decide_general(n, LevelSet(levels))
    if verdict.status is Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL:
        return "lp-undecided"
    if verdict.status is Status.FACTORABLE:
        return "pairing" if verdict.reason.startswith("divisible level-pairing") else "search-witness"
    if verdict.status is Status.NOT_FACTORABLE:
        if verdict.search_exhausted:
            return "search-exhausted"
        if verdict.reason.startswith("validated certificate family"):
            return "certificate"
        return "lp-infeasible"
    return None


def main() -> None:
    entries: dict[tuple[int, tuple[int, ...]], tuple[int, str]] = {}

    def record(n: int, levels: tuple[int, ...], branch: str | None) -> None:
        if branch is not None:
            entries[(n, levels)] = (oracle.type_count(n, levels), branch)

    for n in range(3, 25):
        for levels in level_sets(7, n):
            record(n, levels, branch_of(n, levels))
        print(f"n={n}: {len(entries)} sets", file=sys.stderr)
    for n in range(25, 41):
        for levels in level_sets(8, n):
            if 200 < oracle.type_count(n, levels) <= 5000:
                record(n, levels, branch_of(n, levels))
        print(f"n={n}: {len(entries)} sets", file=sys.stderr)
    for n in range(12, 17):
        for k in range(2, n + 1):
            if n % k:
                continue
            for levels in level_sets(k, n):
                if levels[-1] != k or (n, levels) in entries:
                    continue
                ls = LevelSet(levels)
                if (certificate_with_branch(n, ls) is None
                        and construct_general_L_div(n, ls) is not None):
                    record(n, levels, "pairing")
    sets = [[n, oracle.levels_text(levels), types, branch]
            for (n, levels), (types, branch) in sorted(entries.items())]
    text = json.dumps({"sets": sets}, separators=(",", ":"))
    # one set per line keeps diffs of the manifest readable
    text = text.replace("],[", "],\n[")
    (HERE / "sparse_manifest.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(sets)} sets", file=sys.stderr)


if __name__ == "__main__":
    main()
