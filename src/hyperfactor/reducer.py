"""Reductions between factorization shapes: complement pairs and lift projection.

For n/2 <= k <= n-1 the instance on levels {1..k} splits: sizes n-k .. k are
covered by the factors {S, complement(S)}, and what remains is exactly the
full-range instance on levels {1..n-k-1}.  extend_by_complements spells
those pairs, which go after a factorization of the rest; the converse
repair, which pairs off the middle sizes of any factorization, is the tests'
oracle of the reduction.  project_lift removes the top element of a ground
set, the inverse of solving on a one-larger ground set.
"""

from __future__ import annotations

from .combinatorics import LevelSet, full_mask, masks_of_size
from .factorization import Factorization


def extend_by_complements(n: int, levels: LevelSet) -> tuple[tuple[int, ...], ...]:
    """The factors {S, complement(S)} with |S| in levels, over {1..n}.

    levels must hold n - s for each of its sizes s; a pair with 2s < n comes
    from its size s, and a middle pair once.  Nothing is checked here:
    construct checks the family's size before any block is realized and
    verifies the whole result at the end.
    """
    full = full_mask(n)
    pairs: list[tuple[int, ...]] = []
    # the set holding element 1 has the smaller minimum, so it comes first
    for s in levels:
        if 2 * s < n:
            for mask in masks_of_size(n, s):
                pairs.append((mask, full ^ mask) if mask & 1 else (full ^ mask, mask))
    if n % 2 == 0 and n // 2 in levels:
        # middle size: enumerate each pair once via the half containing element 1
        for mask in masks_of_size(n, n // 2):
            if mask & 1:
                pairs.append((mask, full ^ mask))
    return tuple(pairs)


def project_lift(fact: Factorization) -> Factorization:
    """Delete the top element n from a lifted factorization.

    Each factor loses n from its one holder, in place, and a holder {n}
    vanishes; the ground set becomes {1..n-1}, and an s-set of the levels
    projects to an s-set or an (s-1)-set.  Nothing is checked here: an
    audited flow on n leaves n in exactly one set of each factor, removing
    the top element keeps each factor's min-element order, and the lift's
    levels step by 2, so no two are consecutive.  construct verifies the
    whole result at the end.
    """
    n = fact.n
    bit = 1 << (n - 1)
    factors = tuple(tuple(m ^ bit if m & bit else m for m in f if m != bit) for f in fact.factors)
    levels = sorted({*fact.levels, *(s - 1 for s in fact.levels if s > 1)})
    return Factorization(n - 1, tuple(levels), factors)
