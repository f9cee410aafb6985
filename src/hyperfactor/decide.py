"""Top-level decision procedure and end-to-end construction pipeline.

decide(n, k) settles factorability of the full level range {1..k} by pure
arithmetic: for k < n/2 a congruence-plus-threshold test, for n/2 <= k <= n-1
a reduction to the complementary range {1..n-k-1} (complement pairing covers
the middle sizes), with k = 1 and k = n handled by convention.  Negative
verdicts carry a validated Farkas certificate, positive ones the blocks a
factorization is built from, made as each branch returns.

decide_general(n, L) handles arbitrary level sets: certificate families, the
divisible pairing, the exact LP (no type list; refutes with a simplex-derived
certificate), the LP's vertex as the witness when it is integral, then bounded
integer search for a witness.  Undecided means a fractional LP vertex without
a search witness (RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL).

plan reads the blocks off a FACTORABLE verdict; construct realizes them as
an explicit factorization and verifies it from scratch before returning, and
the CLI's solve prints them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

from .combinatorics import MAX_GROUND_SIZE, LevelSet, binomial, check_range
from .constructors import (
    Block,
    Realization,
    _divisible_ok,
    _minus_one_ok,
    _minus_one_threshold,
    certificate_with_branch,
    construct_div,
    construct_general_L_div,
    construct_minus1,
)
from .errors import InvariantViolation, LimitExceeded, NotFactorableError, SearchLimitExceeded
from .factorization import Factorization
from .flow import StepRecord, run as flow_run
from .linear_system import (
    FarkasCertificate,
    SolutionVector,
    build_system,
    integer_search_small,
    lp_feasible,
    solution_residual,
)
from .reducer import extend_by_complements, project_lift
from .verifier import check_verify_size, verify_factorization


class Status(enum.Enum):
    FACTORABLE = "FACTORABLE"
    NOT_FACTORABLE = "NOT_FACTORABLE"
    RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL = "RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL"


@dataclass(frozen=True)
class Verdict:
    status: Status
    #: human-readable branch tag explaining how the status was reached
    reason: str
    #: validated infeasibility certificate, when one backs the verdict
    certificate: FarkasCertificate | None = None
    #: the levels the certificate separates (same ground size n)
    certificate_levels: tuple[int, ...] | None = None
    #: the certificate family, or "simplex-derived" for an LP certificate
    family: str | None = None
    #: zero-residual multiplicity witness, when one backs the verdict
    solution: SolutionVector | None = None
    #: True when NOT_FACTORABLE rests on an exhausted integer search
    search_exhausted: bool = False
    #: the blocks a factorization is built from, in print order, when FACTORABLE
    blocks: tuple[Block, ...] | None = None


def decide(n: int, k: int) -> Verdict:
    """Complete decision for the full level range {1..k}, 1 <= k <= n <= 64."""
    check_range(n, k)
    if k == 1:
        return Verdict(
            Status.FACTORABLE,
            "trivial: the n singletons form the single factor (k = 1 convention)",
            blocks=(Block(n, LevelSet.full(1), {(n,): 1}, Realization.FLOW),),
        )
    if k == n:
        return _prefixed(
            lambda: Block(n, LevelSet.of([n]), {(0,) * (n - 1) + (1,): 1}, Realization.FLOW),
            decide(n, n - 1),
            "the whole ground set forms one factor; rest reduces to k = n-1: ",
        )
    if 2 * k < n:
        if _divisible_ok(n, k):
            return Verdict(
                Status.FACTORABLE,
                f"divisible case: n = 0 (mod {k}) and n = {n} >= k(k-2) = {k * (k - 2)}",
                blocks=(Block(n, LevelSet.full(k), construct_div(n, k), Realization.FLOW),),
            )
        if _minus_one_ok(n, k):
            top = construct_minus1(n, k)
            blocks: tuple[Block, ...] = (top,)
            if top.realization is not Realization.LIFT:
                # the top block leaves the full range below its lowest level
                rest = decide(n, top.levels.levels[0] - 1).blocks
                if rest is None:
                    raise InvariantViolation(f"(n={n}, k={k}): near-divisible remainder infeasible")
                blocks += rest
            return Verdict(
                Status.FACTORABLE,
                f"near-divisible case: n = -1 (mod {k}) and n = {n} >= {_minus_one_threshold(k)}",
                blocks=blocks,
            )
        if n % k == 0:
            why = f"below the divisible threshold: n = {n} < k(k-2) = {k * (k - 2)}"
        elif n % k == k - 1:
            why = f"below the near-divisible threshold: n = {n} < {_minus_one_threshold(k)}"
        else:
            why = f"residue obstruction: n = {n % k} (mod {k}) is neither 0 nor -1"
        levels = LevelSet.full(k)
        found = certificate_with_branch(n, levels)
        if found is None:
            raise InvariantViolation(f"missing certificate for infeasible (n={n}, k={k})")
        name, cert = found
        return _refuted(f"{why}; certificate family: {name}", levels, name, cert)
    # n/2 <= k <= n-1: complement pairing reduces to the range {1..n-k-1}
    m = n - k - 1
    if m == 0:
        return Verdict(
            Status.FACTORABLE,
            "complement pairing alone covers all levels (reduction target is empty)",
            blocks=(_complement_pairs(n, k),),
        )
    return _prefixed(
        lambda: _complement_pairs(n, k),
        decide(n, m),
        f"complement pairing reduces to levels 1..{m}: ",
    )


def _prefixed(head: Callable[[], Block], inner: Verdict, reason: str) -> Verdict:
    """inner, with reason before its reason and head() before its blocks, if any."""
    blocks = None if inner.blocks is None else (head(), *inner.blocks)
    return replace(inner, reason=reason + inner.reason, blocks=blocks)


def _complement_pairs(n: int, k: int) -> Block:
    """The block of the factors {S, complement(S)}, n - k <= |S| <= k."""
    pairs: SolutionVector = {}
    for s in range(n - k, n // 2 + 1):
        lam = [0] * k
        lam[s - 1] += 1
        lam[n - s - 1] += 1
        # a middle-size set and its complement are one factor: C(n, n/2) counts it twice
        pairs[tuple(lam)] = binomial(n, s) // (2 if 2 * s == n else 1)
    return Block(n, LevelSet.of(range(n - k, k + 1)), pairs, Realization.COMPLEMENT_PAIRS)


def decide_general(n: int, levels: LevelSet) -> Verdict:
    """Decision for an arbitrary level set.  The exact LP refutes every rationally
    infeasible set the closed forms leave open, with its certificate.  A
    feasible LP's vertex, when integral, is the witness, checked to a zero
    residual; only a fractional vertex goes to the search, whose limits leave
    the set undecided with a reason that names the limit."""
    if not isinstance(levels, LevelSet):
        raise ValueError(f"levels must be a LevelSet, got {levels!r}")
    if levels.is_full_range():
        return decide(n, levels.k)
    found = certificate_with_branch(n, levels)
    if found is not None:
        name, cert = found
        return _refuted(f"validated certificate family: {name}", levels, name, cert)
    solution = construct_general_L_div(n, levels)
    if solution is not None:
        return _witnessed(n, levels, solution, "divisible level-pairing construction")
    system = build_system(n, levels)
    outcome = lp_feasible(system)
    if not outcome.feasible:
        reason = "exact rational infeasibility (simplex-derived certificate)"
        return _refuted(reason, levels, "simplex-derived", outcome.certificate)
    det = outcome.det
    if all(v % det == 0 for v in outcome.solution.values()):
        solution = {lam: v // det for lam, v in outcome.solution.items()}
        res = solution_residual(n, levels, solution)
        if any(res):
            raise InvariantViolation(f"LP vertex residual {res} for n={n} levels={levels.levels}")
        return _witnessed(n, levels, solution, "integral vertex of the exact LP")
    try:
        solution = integer_search_small(system)
    except SearchLimitExceeded as exc:
        return Verdict(
            Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL,
            f"rationally feasible, but no integral witness within search limits: {exc}",
        )
    if solution is not None:
        return _witnessed(n, levels, solution, "bounded exhaustive integer search found a witness")
    return Verdict(
        Status.NOT_FACTORABLE,
        "exhaustive search over all non-negative integer multiplicities",
        search_exhausted=True,
    )


def _refuted(reason: str, levels: LevelSet, family: str, cert: FarkasCertificate) -> Verdict:
    """NOT_FACTORABLE, backed by cert, a validated certificate on levels."""
    return Verdict(Status.NOT_FACTORABLE, reason, cert, levels.levels, family)


def _witnessed(n: int, levels: LevelSet, solution: SolutionVector, reason: str) -> Verdict:
    block = Block(n, levels, solution, Realization.FLOW)
    return Verdict(Status.FACTORABLE, reason, solution=solution, blocks=(block,))


# ---------------------------------------------------------------------------
# construction pipeline


TraceFn = Callable[[StepRecord], None]

#: Refuse evolutions beyond this ground size unless explicitly raised; each of
#: the n steps routes all M = sum of C(n-1, j-1) partitions, and M grows quickly
#: with n (construct(17, 6) routes 6,885 in each of 18 steps).  M = 1 (levels
#: {1} or {n}) is n one-arc steps at any n, so the limit skips it.
DEFAULT_MAX_GROUND = 18


def plan(n: int, levels: LevelSet) -> list[Block]:
    """The blocks of the FACTORABLE verdict on (n, levels), in print order.

    Raises NotFactorableError for a negative verdict and LimitExceeded for an
    undecided one.
    """
    verdict = decide_general(n, levels)
    if levels.is_full_range():
        where = f"(n={n}, k={levels.k})"
    else:
        where = f"(n={n}, levels={levels.levels})"
    if verdict.status is Status.NOT_FACTORABLE:
        raise NotFactorableError(f"{where}: {verdict.reason}")
    if verdict.status is not Status.FACTORABLE:
        raise LimitExceeded(f"{where} undecided: {verdict.reason}")
    return list(verdict.blocks)


def check_evolution_size(n: int, partitions: int, max_ground_size: int) -> None:
    """Refuse, with LimitExceeded, an evolution on n elements past the bit-mask
    cap, or of more than one partition past the work limit max_ground_size."""
    if n > MAX_GROUND_SIZE:
        raise LimitExceeded(
            f"ground size {n} exceeds the {MAX_GROUND_SIZE}-element bit-mask cap of the "
            "evolution engine; no max_ground_size can lift it"
        )
    if partitions > 1 and n > max_ground_size:
        raise LimitExceeded(
            f"ground size {n} exceeds the evolution work limit {max_ground_size}; "
            "raise max_ground_size explicitly to proceed"
        )


def construct(
    n: int,
    levels: LevelSet,
    *,
    max_ground_size: int = DEFAULT_MAX_GROUND,
    trace: TraceFn | None = None,
) -> Factorization:
    """Build and fully verify a factorization of (n, levels), or raise
    NotFactorableError; LevelSet.full(k) asks for the range {1..k}.

    plan checks n and levels.  Before any flow runs, each flow and lift
    block, in the order they run, is checked against the evolution limits,
    then the family against the verifier's; either raises LimitExceeded.
    The result is verified as a factorization of the levels asked for, so a
    block the plan lost cannot pass.
    """
    blocks = plan(n, levels)
    for b in reversed(blocks):
        if b.realization is not Realization.COMPLEMENT_PAIRS:
            check_evolution_size(b.n, sum(b.solution.values()), max_ground_size)
    check_verify_size(n, levels.levels)
    fact = Factorization(n, levels.levels, _realize(n, blocks, trace))
    problems = verify_factorization(fact)
    if problems:
        raise InvariantViolation(f"constructed factorization failed verification: {problems[:3]}")
    return fact


def _realize(n: int, blocks: list[Block], trace: TraceFn | None) -> tuple[tuple[int, ...], ...]:
    """The factors of the blocks, folded from the last one, the only one that
    may lift to n + 1.  Each block but complement pairs is a flow run
    (projected for a lift), and its factors go before those of the later
    blocks; complement pairs go after."""
    factors: tuple[tuple[int, ...], ...] = ()
    for block in reversed(blocks):
        if block.realization is Realization.COMPLEMENT_PAIRS:
            factors += extend_by_complements(n, block.levels)
            continue
        head = flow_run(block.n, block.levels, block.solution, trace=trace)
        if block.realization is Realization.LIFT:
            head = project_lift(head)
        factors = head.factors + factors
    return factors
