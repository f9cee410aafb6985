"""Reductions between factorization shapes: complement pairs and lift projection.

For n/2 <= k <= n-1 the instance on levels {1..k} splits: sizes n-k .. k are
covered by the factors {S, complement(S)}, and what remains is exactly the
full-range instance on levels {1..n-k-1}.  The two directions implemented here
are extending a small-level factorization by all complement pairs, and
repairing an arbitrary factorization so every middle-size set sits in such a
pair (after which the pairs strip off).  project_lift removes the top element
of a ground set, the inverse of solving on a one-larger ground set.
"""

from __future__ import annotations

from .combinatorics import full_mask, masks_of_size
from .errors import InvariantViolation
from .factorization import Factorization
from .verifier import check_verify_size, verify_factorization


def _check_valid(fact: Factorization, where: str) -> None:
    problems = verify_factorization(fact)
    if problems:
        raise ValueError(f"{where}: input factorization invalid: {problems[0]}")


def extend_by_complements(fact: Factorization) -> Factorization:
    """Append the factors {S, complement(S)} for all n-k <= |S| <= k.

    fact must be a valid factorization on levels {1..m} (empty for m = 0),
    which fixes k = n-m-1; the result covers the full range {1..k}.  Needs
    n/2 <= k, that is n >= 2m+2.  A result too large for verify_factorization
    is refused (LimitExceeded) before any pair is built.
    """
    n, m = fact.n, len(fact.levels)
    k = n - m - 1
    if fact.levels != tuple(range(1, m + 1)) or 2 * k < n:
        raise ValueError(f"extension needs levels 1..m with n >= 2m+2, got n={n} levels={fact.levels}")
    check_verify_size(n, range(1, k + 1))
    _check_valid(fact, "extend_by_complements")
    full = full_mask(n)
    pairs: list[tuple[int, ...]] = []
    # the set holding element 1 has the smaller minimum, so it comes first
    for s in range(n - k, (n + 1) // 2):
        for mask in masks_of_size(n, s):
            pairs.append((mask, full ^ mask) if mask & 1 else (full ^ mask, mask))
    if n % 2 == 0:
        # middle size: enumerate each pair once via the half containing element 1
        for mask in masks_of_size(n, n // 2):
            if mask & 1:
                pairs.append((mask, full ^ mask))
    return Factorization(n, tuple(range(1, k + 1)), fact.factors + tuple(pairs))


def repair_to_complement_paired(fact: Factorization) -> tuple[Factorization, Factorization]:
    """Swap sets between factors until every middle-size set is complement-paired.

    fact must be a valid factorization on levels {1..k} with n/2 <= k <= n-1.
    Sizes are processed from k down to ceil(n/2), sets within a size in
    ascending colex order (= ascending bit-set value).  For an unpaired S in
    factor F, the rest of F unions to the complement U of S; U's host factor
    swaps U against that rest, making F = {S, U}.  Earlier pairs are never
    touched again.  Returns (paired factorization, stripped residue on levels
    {1..n-k-1}).
    """
    n = fact.n
    k = max(fact.levels) if fact.levels else 0
    if fact.levels != tuple(range(1, k + 1)) or 2 * k < n or k >= n:
        raise ValueError(f"repair needs full levels 1..k with n/2 <= k <= n-1, got {fact.levels}")
    _check_valid(fact, "repair_to_complement_paired")
    full = full_mask(n)
    factors: list[list[int]] = [list(f) for f in fact.factors]
    host = {mask: i for i, f in enumerate(factors) for mask in f}
    for s in range(k, (n + 1) // 2 - 1, -1):
        for mask in masks_of_size(n, s):
            comp = full ^ mask
            i = host[mask]
            if len(factors[i]) == 2 and comp in factors[i]:
                continue
            rest = [m for m in factors[i] if m != mask]
            union = 0
            for m in rest:
                union |= m
            jf = host[comp]
            if union != comp or jf == i:
                raise InvariantViolation(f"set {mask:#x} cannot be paired with its complement")
            factors[i] = [mask, comp]
            factors[jf] = [m for m in factors[jf] if m != comp] + rest
            host[comp] = i
            for m in rest:
                host[m] = jf
    paired = Factorization.build(n, fact.levels, factors)
    residue_factors = [f for f in factors if len(f) > 2]
    residue = Factorization.build(n, tuple(range(1, n - k)), residue_factors)
    return paired, residue


def project_lift(fact: Factorization) -> Factorization:
    """Delete the top element n from a lifted factorization.

    Each factor loses n from its unique containing set; emptied sets vanish,
    and the remaining ground set is {1..n-1}.  Levels must be spaced so the
    projected level counts stay simple (no two consecutive sizes).
    """
    n = fact.n
    for a, b in zip(fact.levels, fact.levels[1:]):
        if b == a + 1:
            raise ValueError(f"levels {fact.levels} contain consecutive sizes; projection would double-count")
    bit = 1 << (n - 1)
    new_factors: list[list[int]] = []
    for idx, factor in enumerate(fact.factors):
        holders = [m for m in factor if m & bit]
        if len(holders) != 1:
            raise ValueError(f"factor {idx} does not contain element {n} exactly once")
        shrunk = holders[0] ^ bit
        rest = [m for m in factor if not m & bit]
        if shrunk:
            rest.append(shrunk)
        if rest:
            new_factors.append(rest)
    new_levels = sorted({s for s in fact.levels} | {s - 1 for s in fact.levels if s > 1})
    return Factorization.build(n - 1, tuple(new_levels), new_factors)
