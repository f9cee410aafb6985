"""The level-counting linear system attached to (n, levels).

A 1-factorization of the family of all subsets of {1..n} with sizes in L uses
some multiset of partition types; counting, per level i, how many sets of size
i all chosen partitions contribute gives the system

    sum over types lam of  x_lam * lam_i  ==  C(n, i)   for i in L,
                                          ==  0          for i not in L,

with x_lam non-negative integers.  Solvability of this system over the
non-negative integers is equivalent to 1-factorability, which is why the
decision pipeline reduces everything to it.

There can be millions of types, so a LinearSystem holds only b; one knapsack
DP over the ground size both checks certificates and prices the exact LP.
The integer stage rounds the LP's vertex down and completes it with a search
over the few types that fit in the residual, so it lists no type beyond those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .combinatorics import (
    LevelSet,
    TypeVector,
    _is_int,
    binomial,
    canonical_key,
    iter_types,
)
from .errors import InvariantViolation, SearchLimitExceeded
from .exactlp import phase_one


@dataclass(frozen=True)
class LinearSystem:
    n: int
    levels: LevelSet
    #: target counts b_i = C(n, i) for i in levels, else 0 (index i-1)
    b: tuple[int, ...]


#: A solution assigns a non-negative integer multiplicity to some types.
SolutionVector = dict[TypeVector, int]


def build_system(n: int, levels: LevelSet) -> LinearSystem:
    levels.check_against_ground(n)
    b = tuple(binomial(n, i) if i in levels else 0 for i in range(1, levels.k + 1))
    return LinearSystem(n, levels, b)


def solution_residual(n: int, levels: LevelSet, solution: Mapping[TypeVector, int]) -> tuple[int, ...]:
    """Residual (A^T x - b) per level, exact.  Non-type keys and multiplicities
    that are not non-negative ints are an error.

    One pass over each key checks its length, support, signs and weight and
    adds its column; its multiplicity is checked after it."""
    k = levels.k
    res = [0] * k
    allowed = [False] * k
    for j in levels:
        res[j - 1] = -binomial(n, j)
        allowed[j - 1] = True
    for lam, mult in solution.items():
        m = mult if _is_int(mult) else 0
        weight = 0 if len(lam) == k else None
        if weight is not None:
            for i, c in enumerate(lam):
                if c:
                    if c < 0 or not allowed[i]:
                        weight = None
                        break
                    weight += (i + 1) * c
                    res[i] += c * m
        if weight != n:
            raise ValueError(f"solution key is not an (n, levels)-type: {lam}")
        if not _is_int(mult):
            raise ValueError(f"multiplicity for type {lam} is not an int: {mult!r}")
        if mult < 0:
            raise ValueError(f"negative multiplicity for type {lam}: {mult}")
    return tuple(res)


# ---------------------------------------------------------------------------
# Farkas certificates


@dataclass(frozen=True)
class FarkasCertificate:
    """Ints y over den >= 1, divided by their gcd (so equal vectors y / den
    are equal), with lam . y >= 0 for every type lam and b . y < 0.

    Such a y proves the counting system has no non-negative solution at all
    (rational or integer), hence no 1-factorization exists.
    """

    y: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        y = tuple(self.y)
        if not all(map(_is_int, (*y, self.den))) or self.den < 1:
            raise ValueError(f"certificate is not ints over a den >= 1: {y!r} / {self.den!r}")
        g = math.gcd(self.den, *y)
        object.__setattr__(self, "y", tuple(v // g for v in y))
        object.__setattr__(self, "den", self.den // g)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    #: first type with lam . y < 0, when any
    violating_type: TypeVector | None
    #: b . y over the certificate's den (0 when a type violates)
    b_dot_y: int


def first_negative_type(n: int, levels: LevelSet, w: Sequence[int]) -> TypeVector | None:
    """The first type lam in canonical order with sum of lam_j * w_j < 0, or
    None; w has one int entry per level, in order.

    The least such sum over all types is an unbounded knapsack over the ground
    size (Gilmore & Gomory 1961), solved exactly in O(n * |levels|).
    """
    # best[i][rem]: least sum of c_j * w_j over the i smallest levels with
    # sum of j * c_j == rem; None when no such multiplicities exist.  Each
    # row starts as the row below and takes the new level where it improves.
    below: list[int | None] = [0] + [None] * n
    best = [below]
    for j, wj in zip(levels.levels[:-1], w):
        row = below.copy()
        for rem in range(j, n + 1):
            prev = row[rem - j]
            if prev is not None:
                more = prev + wj
                cell = row[rem]
                if cell is None or more < cell:
                    row[rem] = more
        best.append(row)
        below = row
    # the walk reads the largest level's row only at n, so only that cell is
    # evaluated: some type is negative when some below[n - c * k] + c * w_k is
    wk = w[-1]
    for c, tail in enumerate(below[n :: -levels.k]):
        if tail is not None and tail + c * wk < 0:
            break
    else:
        return None
    # canonical order takes the most parts of the largest level first, so the
    # first negative type takes, level by level, the largest multiplicity
    # whose best completion is still negative
    lam = [0] * levels.k
    rem, acc = n, 0
    for below, j, wj in zip(reversed(best), reversed(levels.levels), reversed(w)):
        for c in range(rem // j, -1, -1):
            tail = below[rem - c * j]
            if tail is not None and acc + c * wj + tail < 0:
                break
        else:
            raise InvariantViolation(f"knapsack walk found no negative type for n={n}")
        lam[j - 1] = c
        rem -= c * j
        acc += c * wj
    return tuple(lam)


def check_certificate(n: int, levels: LevelSet, cert: FarkasCertificate) -> CertificateCheck:
    """Exact check of the two Farkas conditions in O(n * |levels|).

    The DP and b . y run on the int entries of y on the levels; den > 0
    changes no sign, and b . y is returned over it.  A violation is reported
    as the first violating type in canonical order, the one streaming
    iter_types would meet first.
    """
    y = cert.y
    if len(y) != levels.k:
        raise ValueError(f"certificate length {len(y)} != k={levels.k}")
    levels.check_against_ground(n)
    w = [y[j - 1] for j in levels]
    lam = first_negative_type(n, levels, w)
    if lam is not None:
        return CertificateCheck(False, lam, 0)
    b_dot = sum(binomial(n, j) * wj for j, wj in zip(levels, w))
    return CertificateCheck(b_dot < 0, None, b_dot)


def verify_certificate(system: LinearSystem, cert: FarkasCertificate) -> CertificateCheck:
    """check_certificate for the instance of a built system."""
    return check_certificate(system.n, system.levels, cert)


@dataclass(frozen=True)
class LpOutcome:
    feasible: bool
    #: the basic values by type, times the basis determinant det > 0, when feasible
    solution: dict[TypeVector, int] | None
    det: int | None
    #: the simplex's separator, over den 1, when infeasible
    certificate: FarkasCertificate | None


def lp_feasible(system: LinearSystem) -> LpOutcome:
    """Exact rational feasibility of the counting system; never timeouts.

    The simplex has one row per level (the other rows are zero in every type
    and in b) and prices all types with first_negative_type, so Bland's
    entering column is the first negative type in canonical order and no type
    is listed.  A feasible outcome carries the vertex as ints over det, an
    infeasible one the simplex's separator, in ints, on its levels; both
    outcomes are self-validated before being returned.
    """
    n, levels = system.n, system.levels

    def price(y: tuple[int, ...]) -> tuple[tuple, list[int]] | None:
        lam = first_negative_type(n, levels, y)
        if lam is None:
            return None
        return (canonical_key(lam), lam), [lam[j - 1] for j in levels]

    solution, det, separator = phase_one([system.b[j - 1] for j in levels], price)
    if separator is None:
        return LpOutcome(True, {lam: v for (_key, lam), v in sorted(solution.items())}, det, None)
    by_level = dict(zip(levels, separator))
    cert = FarkasCertificate(tuple(by_level.get(j, 0) for j in range(1, levels.k + 1)))
    if not check_certificate(n, levels, cert).ok:
        raise InvariantViolation("extracted certificate failed validation")
    return LpOutcome(False, None, None, cert)


# ---------------------------------------------------------------------------
# the integer stage: the floor of the LP's vertex, completed exactly

#: Node budget of the completion search, read at call time.
SEARCH_NODE_LIMIT = 200_000


def integer_search_small(system: LinearSystem, outcome: LpOutcome) -> SolutionVector:
    """A non-negative integer solution built on a feasible LP outcome: the
    cutting-stock repair of rounding the basic solution down and solving the
    small residual instance exactly (Waescher & Gau 1996).

    z = floor(x*) keeps the vertex's entries of at least 1.  A depth-first
    search covers the residual r = b - A.z with types lam <= r, in canonical
    order, most copies first, memoised on (first type, residual).  x* has at
    most |levels| fractional entries, so r is less than |levels| partitions
    and the search is shallow.  An integral vertex is r = 0, which takes no
    node.  The witness, z plus what the search finds, has no zero
    multiplicity; the Block decide_general builds on it checks its residual
    before any verdict exists.

    Raises SearchLimitExceeded when no multiset of those types covers r (no
    proof of anything) or past SEARCH_NODE_LIMIT nodes.
    """
    n, levels, det = system.n, system.levels, outcome.det
    floor = {lam: v // det for lam, v in outcome.solution.items() if v >= det}
    over = solution_residual(n, levels, floor)
    # z <= x* and A.x* = b, so z never covers a level past b
    if any(v > 0 for v in over):
        raise InvariantViolation(f"LP vertex residual {over} for n={n} levels={levels.levels}")
    r = tuple(-v for v in over)
    types = list(iter_types(n, levels, cap=r))
    nodes = 0
    dead: set[tuple[int, tuple[int, ...]]] = set()
    chosen: list[tuple[TypeVector, int]] = []

    def dfs(start: int, rest: tuple[int, ...]) -> bool:
        nonlocal nodes
        if not any(rest):
            return True
        if (start, rest) in dead:
            return False
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise SearchLimitExceeded(f"the completion search exceeded {SEARCH_NODE_LIMIT} nodes")
        for idx in range(start, len(types)):
            lam = types[idx]
            for m in range(min(x // c for x, c in zip(rest, lam) if c), 0, -1):
                chosen.append((lam, m))
                if dfs(idx + 1, tuple(x - m * c for x, c in zip(rest, lam))):
                    return True
                chosen.pop()
        dead.add((start, rest))
        return False

    if not dfs(0, r):
        raise SearchLimitExceeded(
            f"no multiset of types completes the floor of the LP vertex (a residual of {sum(r)} sets)"
        )
    witness = dict(floor)
    for lam, m in chosen:
        witness[lam] = witness.get(lam, 0) + m
    return witness
