"""Full validation of explicit factorizations.

verify_factorization re-derives every property from scratch: each factor must
partition the ground set into sets of allowed sizes, and across all factors
each allowed-size subset must appear exactly once.  It returns a list of
human-readable violations, empty when the factorization is genuine.
"""

from __future__ import annotations

from typing import Iterable

from .combinatorics import MAX_GROUND_SIZE, binomial, full_mask, masks_of_size, set_text
from .errors import LimitExceeded
from .factorization import Factorization

MAX_VERIFY_SETS = 5_000_000


def check_verify_size(n: int, levels: Iterable[int]) -> None:
    """Refuse, with LimitExceeded, a family too large to verify."""
    total_sets = sum(binomial(n, j) for j in levels)
    if total_sets > MAX_VERIFY_SETS:
        raise LimitExceeded(
            f"verification would track {total_sets} sets (limit {MAX_VERIFY_SETS})"
        )


def verify_factorization(fact: Factorization) -> list[str]:
    """Check every defining property; return all violations found (max ~20)."""
    n = fact.n
    levels = set(fact.levels)
    check_verify_size(n, fact.levels)
    problems: list[str] = []
    full = full_mask(n)
    seen: dict[int, int] = {}
    level_counts = {j: 0 for j in fact.levels}
    for idx, factor in enumerate(fact.factors):
        if len(problems) > 20:
            problems.append("... further checks skipped")
            return problems
        if not factor:
            problems.append(f"factor {idx} is empty")
            continue
        union = 0
        overlap = False
        for mask in factor:
            if mask <= 0 or mask & ~full:
                # set_text spells masks of at most 64 bits; others stay integers
                spelled = set_text(mask) if 0 < mask < 1 << MAX_GROUND_SIZE else mask
                problems.append(f"factor {idx}: set {spelled} is not a subset of the ground set")
                continue
            size = mask.bit_count()
            if size not in levels:
                problems.append(
                    f"factor {idx}: set {set_text(mask)} has size {size} outside levels"
                )
            if union & mask:
                overlap = True
            union |= mask
            if mask in seen:
                problems.append(
                    f"set {set_text(mask)} appears in factors {seen[mask]} and {idx}"
                )
            else:
                seen[mask] = idx
                if size in levels:
                    level_counts[size] += 1
        if overlap:
            problems.append(f"factor {idx}: sets overlap")
        elif union != full:
            problems.append(f"factor {idx}: elements {set_text(full ^ union)} are not covered")
    for j in fact.levels:
        want = binomial(n, j)
        got = level_counts[j]
        if got != want:
            msg = f"level {j}: {got} distinct sets appear, expected {want}"
            if got < want:
                for mask in masks_of_size(n, j):
                    if mask not in seen:
                        msg += f" (e.g. {set_text(mask)} is missing)"
                        break
            problems.append(msg)
    expected_factors = sum(binomial(n - 1, j - 1) for j in fact.levels)
    if len(fact.factors) != expected_factors:
        problems.append(
            f"{len(fact.factors)} factors present, expected {expected_factors}"
        )
    return problems
