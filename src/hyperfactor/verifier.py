"""Full validation of explicit factorizations.

verify_factorization re-derives every property from scratch: each factor must
partition the ground set into sets of allowed sizes, and across all factors
each allowed-size subset must appear exactly once.  It returns a list of
human-readable violations, empty when the factorization is genuine.

A genuine factorization is accepted by a few passes that run in C and hold
one list of the masks, sorted in place (see _is_factorization).  Only a
factorization that fails them goes through _violations, which keeps a dict
from each set to its factor to name every fault.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from operator import lt
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
    check_verify_size(fact.n, fact.levels)
    return [] if _is_factorization(fact) else _violations(fact)


def _is_factorization(fact: Factorization) -> bool:
    """Whether fact is genuine.  The masks, all positive and distinct, count
    C(n, j) sets of each size j in the levels and none of any other size, so
    they are every set of the family if they are subsets of {1..n}; they
    are, since each factor sums to the full mask.  Their sizes then add up
    to at most n times the factor count (less only if a level is listed
    twice), while each factor's sizes add up to at least n, the size of its
    sum, with equality only when its sets are disjoint; so each factor is a
    partition of {1..n}."""
    n, factors = fact.n, fact.factors
    if len(factors) != sum(binomial(n - 1, j - 1) for j in fact.levels):
        return False
    full = full_mask(n)
    if not all(map(full.__eq__, map(sum, factors))):
        return False
    masks = list(chain.from_iterable(factors))
    masks.sort()
    return (
        (not masks or masks[0] > 0)
        and all(map(lt, masks, islice(masks, 1, None)))
        and Counter(map(int.bit_count, masks)) == {j: binomial(n, j) for j in fact.levels}
    )


def _violations(fact: Factorization) -> list[str]:
    """Every violation of fact, found set by set (max ~20)."""
    n = fact.n
    levels = set(fact.levels)
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
