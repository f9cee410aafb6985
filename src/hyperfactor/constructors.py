"""Closed-form solution families and infeasibility certificates.

For the full level range {1..k} with k < n/2, factorability is a pure
congruence-and-threshold condition on (n, k).  Feasible instances get
explicit solution families, handed out as blocks: the (ground, levels)
system a family solves, its multiplicities, and how the factors are made
from them.  Infeasible ones carry an explicit separating vector.  Every
certificate produced here passes the exact Farkas check of
linear_system.check_certificate (a knapsack DP over the ground size) before
it is surfaced.  Solution families are not checked here: a Block checks
its vector as it is built, so a formula slip is an internal error whichever
form made it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .combinatorics import LevelSet, TypeVector, binomial
from .errors import InvariantViolation
from .linear_system import (
    FarkasCertificate,
    SolutionVector,
    check_certificate,
    solution_residual,
)


def _unit_type(k: int, entries: dict[int, int]) -> TypeVector:
    """Type vector with lam_level = count for each (level, count) given."""
    lam = [0] * k
    for level, count in entries.items():
        if count:
            lam[level - 1] = count
    return tuple(lam)


# ---------------------------------------------------------------------------
# blocks


class Realization(enum.Enum):
    """How a block's factors are made from its multiplicities.  The n singletons
    (k = 1) and the whole set (the head of k = n) are one-partition FLOW blocks."""

    #: the flow engine on the block's own ground set
    FLOW = "flow"
    #: the flow engine on a ground set one larger, then project_lift
    LIFT = "lift"
    #: the factors {S, complement(S)}, appended after the factors of the rest
    COMPLEMENT_PAIRS = "complement-pairs"


@dataclass(frozen=True)
class Block:
    """One (ground, levels) system of a construction and its witness solution.

    A flow or lift block is checked as it is built, with an explicit raise
    that python -O keeps: its keys are types, its multiplicities non-negative
    ints and its residual zero, so a formula slip is an internal error.
    Complement pairs are one formula, never flowed, and construct verifies
    their factors."""

    n: int
    levels: LevelSet
    solution: SolutionVector
    realization: Realization

    def __post_init__(self) -> None:
        if self.realization is Realization.COMPLEMENT_PAIRS:
            return
        where = f"n={self.n} levels={self.levels.levels}"
        try:
            res = solution_residual(self.n, self.levels, self.solution)
        except ValueError as exc:
            raise InvariantViolation(f"construction of {where}: {exc}") from exc
        if any(res):
            raise InvariantViolation(f"construction residual {res} for {where}")


# ---------------------------------------------------------------------------
# range thresholds


def _divisible_ok(n: int, k: int) -> bool:
    return n % k == 0 and n >= k * (k - 2)


def _minus_one_threshold(k: int) -> int:
    """For k < n/2 and n = -1 (mod k), {1..k} is factorable iff n >= this."""
    return k * (-(-k // 2) - 1) - 1


def _minus_one_ok(n: int, k: int) -> bool:
    return n % k == k - 1 and n >= _minus_one_threshold(k)


# ---------------------------------------------------------------------------
# divisible pairing


def _pairing(n: int, levels: LevelSet) -> SolutionVector | None:
    """The divisible pairing pattern for k | n, or None where a pairing type
    would need a negative number of size-k sets.

    One type per lower level l pairs k/gcd(k,l) sets of size l with enough
    size-k sets to use exactly n elements; a pure size-k type absorbs the
    remaining level-k budget.  The ground size is not capped: a lift solves
    on n + 1.  The Block built on it checks the residual.
    """
    k = levels.k
    solution: SolutionVector = {}
    covered_k = 0
    for l in levels.levels[:-1]:
        g = gcd(k, l)
        lam_k = n // k - l // g
        if lam_k < 0:
            return None
        mult = binomial(n, l) // (k // g)
        solution[_unit_type(k, {l: k // g, k: lam_k})] = mult
        covered_k += lam_k * mult
    # never negative: each level adds a term >= 0, and with every admissible
    # level below k the remainder is still >= 1 for each k | n <= 65 (a test sweeps them)
    remainder = binomial(n, k) - covered_k
    if remainder:
        solution[_unit_type(k, {k: n // k})] = remainder // (n // k)
    return solution


def construct_div(n: int, k: int) -> SolutionVector:
    """Solution for levels {1..k} when k | n, n > 2k and n >= k(k-2).

    The pairing pattern on {1..k}.  At the single edge point n = k(k-2) the
    two top lower levels are handled by one mixed type instead.
    """
    if 2 * k >= n or not _divisible_ok(n, k):
        raise ValueError(f"divisible construction needs k | n, n > 2k, n >= k(k-2); got n={n} k={k}")
    edge = n == k * (k - 2)
    paired = LevelSet.of([*range(1, k - 2), k]) if edge else LevelSet.full(k)
    solution = _pairing(n, paired)
    if solution is None:
        raise InvariantViolation(f"pairing goes negative for n={n} k={k}")
    if edge:
        # one type pays for both level k-2 and level k-1
        solution[_unit_type(k, {k - 2: 1, k - 1: k - 2})] = binomial(n, k - 2)
    return solution


def construct_general_L_div(n: int, levels: LevelSet) -> SolutionVector | None:
    """The pairing pattern for an arbitrary level set when k | n.

    Returns None (not applicable) when k does not divide n, or when some
    pairing type would need a negative number of size-k sets.
    """
    levels.check_against_ground(n)
    return None if n % levels.k else _pairing(n, levels)


# ---------------------------------------------------------------------------
# residue k-1, full range


def construct_minus1(n: int, k: int) -> Block:
    """The top block for levels {1..k} when n = -1 (mod k), 2k < n, above threshold.

    Even k, and odd k well above the threshold, lift to n + 1 and cover the
    whole range.  Otherwise (odd k, small offset t) the block covers the top
    levels; the full range below its lowest level is left to the caller.
    """
    if k < 2 or 2 * k >= n or not _minus_one_ok(n, k):
        raise ValueError(
            f"(n={n}, k={k}) needs 2 <= k < n/2, n = -1 (mod k) and n above the threshold"
        )
    if k % 2 == 0:
        return _lift_block(n, LevelSet.of(range(2, k + 1, 2)))
    t = (n - (k * k - k - 2) // 2) // k
    if t >= (k - 3) // 2:
        return _lift_block(n, LevelSet.of(range(1, k + 1, 2)))
    if t == (k - 5) // 2:
        return _abc_block(n, k)
    return _odd_tail_block(n, k, t)


def _lift_block(n: int, lift_levels: LevelSet) -> Block:
    # the lifted ground n + 1 may be 65: the block holds multiplicities only
    solution = _pairing(n + 1, lift_levels)
    if solution is None:
        raise InvariantViolation(f"lift solution missing for n={n} levels={lift_levels.levels}")
    return Block(n + 1, lift_levels, solution, Realization.LIFT)


def _abc_block(n: int, k: int) -> Block:
    # construct_minus1 calls it only for odd k >= 7 at exact t = (k-5)/2: n = k^2 - 3k - 1
    # a floored a or b would leave level k-2 short, which the residual names
    c_k2 = binomial(n, k - 2)
    a = 3 * (k - 3) * c_k2 // (2 * n)
    b = (k - 5) * c_k2 // (2 * n)
    c = binomial(n, k - 1) - 2 * b
    solution: SolutionVector = {}
    solution[_unit_type(k, {k - 2: (k + 1) // 2, k: (k - 5) // 2})] = a
    if b:
        solution[_unit_type(k, {k - 2: (k - 1) // 2, k - 1: 2, k: (k - 7) // 2})] = b
    if c:
        solution[_unit_type(k, {k - 1: 1, k: k - 4})] = c
    return Block(n, LevelSet.of([k - 2, k - 1, k]), solution, Realization.FLOW)


def _odd_tail_block(n: int, k: int, t: int) -> Block:
    """The top block for odd k, 0 <= t <= (k-7)/2 and n = (k^2-k-2)/2 + t*k.

    It covers levels (k+2t+1)/2 .. k with four type shapes; the levels below
    form a full-range sub-problem on the same ground set.  x and y are the
    two top-type multiplicities, a_i and b_i split the budgets of the shared
    lower levels, and A, B are their index-weighted sums.
    """
    # construct_minus1 calls it only for odd k >= 7 and such t, n exact
    m = (k - 5) // 2 - t
    half = (k - 1) // 2 + t

    # the two aggregate counting identities pin down x and y
    factors_high = sum(binomial(n - 1, i) for i in range(half, k))
    subsets_high = sum(binomial(n, i) for i in range(half + 1, k + 1))
    x = (half + 1) * factors_high - subsets_high
    y = subsets_high - half * factors_high

    a = {i: binomial(n, k - 2 - i) % 2 for i in range(2, m + 1)}
    b = {i: binomial(n, k - 2 - i) // 2 for i in range(2, m + 1)}

    # a floored A leaves level k-3 (a_1 + 2 b_1) off its count, which the residual names
    lower_weighted = sum(i * binomial(n, k - 2 - i) for i in range(1, m + 1))
    big_a = (2 * t * y + lower_weighted) // (k - 2 + 2 * t)
    big_b = ((k - 3) // 2 + t) * big_a - t * y

    a[1] = big_a - sum(i * a[i] for i in range(2, m + 1))
    b[1] = big_b - sum(i * b[i] for i in range(2, m + 1))
    a[0] = y - sum(a[i] + b[i] for i in range(1, m + 1))

    solution: SolutionVector = {}
    if x:
        solution[_unit_type(k, {k - 1: 1, k: (k - 3) // 2 + t})] = x
    if a[0]:
        solution[_unit_type(k, {k - 2: (k + 1) // 2, k: t})] = a[0]
    for i in range(1, m + 1):
        if a[i]:
            solution[_unit_type(k, {k - 2 - i: 1, k - 2: (k - 1) // 2 - i, k - 1: i, k: t})] = a[i]
        if b[i]:
            solution[_unit_type(k, {k - 2 - i: 2, k - 2: (k - 3) // 2 - i, k: t + i})] = b[i]
    return Block(n, LevelSet.of(range((k + 2 * t + 1) // 2, k + 1)), solution, Realization.FLOW)


# ---------------------------------------------------------------------------
# Farkas certificate families


def _candidate_certificates(n: int, levels: LevelSet) -> tuple[str, list[int]] | None:
    """The one certificate family that applies to (n, levels), as 2 * y in
    ints (every family's denominators divide 2), not yet validated."""
    k = levels.k
    if k < 2 or n <= 2 * k:
        return None
    r = n % k
    j = n // k  # n > 2k, so j >= 2
    if not levels.is_full_range():
        if r not in (0, k - 1):
            return "sparse-residue-mid", [j] * (r - 1) + [2 * j] + [j] * (k - r - 1) + [-2]
        if r == k - 1 and (k - 1) not in levels:
            return "sparse-minus-one-gap", [j if l in levels else 0 for l in range(1, k)] + [-2]
        if r == k - 1 and levels.levels == (2, 3, 4):
            return "sparse-2-3-4-minus-one", [0, -1, 2 * ((n + 1) // 4 - 1), -2]
        return None
    if r == 0:
        if _divisible_ok(n, k):
            return None
        return "divisible-below-threshold", [2 * j] * j + [j - 1] * (k - j - 2) + [-2, 0]
    if r == k - 1:
        if _minus_one_ok(n, k):
            return None
        y = [2 * j + 2] * (2 * j + 1) + [j] * (k - 2 * j - 4) + [-2, 2 * j, -2]
        return "minus-one-below-threshold", y
    if j >= 3:
        return "residue-mid-large", [j] * (r - 1) + [2 * j] + [j - 1] * (k - r - 1) + [-2]
    # j = 2: ones up to the middle level (k + r) // 2, a half there when k - r is even
    mid = (r + k) // 2
    half = [] if (k - r) % 2 else [1]
    y = [2] * (r - 1) + [4] + [2] * (mid - r - len(half)) + half
    return "residue-mid-tight", y + [0] * (k - 1 - mid) + [-2]


def certificate_with_branch(n: int, levels: LevelSet) -> tuple[str, FarkasCertificate] | None:
    """The certificate family that applies, with its branch tag, if it validates."""
    levels.check_against_ground(n)
    found = _candidate_certificates(n, levels)
    if found is None:
        return None
    cert = FarkasCertificate(tuple(found[1]), 2)
    return (found[0], cert) if check_certificate(n, levels, cert).ok else None
