"""The Factorization record shared by the engine, reducers, verifier and IO."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Factorization:
    """An ordered list of 1-factors of the subsets of {1..n} with sizes in levels.

    Each factor is a tuple of bit-set masks partitioning {1..n}, kept in
    canonical in-factor order; the factor sequence itself is the construction
    order, which is deterministic end to end.
    """

    n: int
    levels: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]

