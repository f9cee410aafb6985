"""Tests for complement-pair extension, its oracle the repair, and lift projection."""

import pytest

from hyperfactor.combinatorics import LevelSet, binomial, full_mask, masks_of_size, min_element
from hyperfactor.constructors import Realization, construct_div
from hyperfactor.decide import decide
from hyperfactor.factorization import Factorization
from hyperfactor.flow import run
from hyperfactor.errors import InvariantViolation
from hyperfactor.reducer import extend_by_complements, project_lift
from hyperfactor.verifier import verify_factorization


def sort_factor(masks) -> tuple[int, ...]:
    """Canonical in-factor order: by minimum element (masks are disjoint)."""
    return tuple(sorted(masks, key=min_element))


def _build(n: int, levels, factors) -> Factorization:
    """The factorization of factors, each sorted into canonical order."""
    return Factorization(n, tuple(levels), tuple(sort_factor(f) for f in factors))


def repair_to_complement_paired(fact: Factorization) -> tuple[Factorization, Factorization]:
    """Swap sets between factors until every middle-size set is complement-paired.

    The oracle of the complement reduction, the converse of
    extend_by_complements: fact must be a valid factorization on levels {1..k}
    with n/2 <= k <= n-1.  Sizes are processed from k down to ceil(n/2), sets
    within a size in ascending colex order (= ascending bit-set value).  For an
    unpaired S in factor F, the rest of F unions to the complement U of S; U's
    host factor swaps U against that rest, making F = {S, U}.  Earlier pairs are
    never touched again.  Returns (paired factorization, stripped residue on
    levels {1..n-k-1}).
    """
    n = fact.n
    k = max(fact.levels) if fact.levels else 0
    if fact.levels != tuple(range(1, k + 1)) or 2 * k < n or k >= n:
        raise ValueError(f"repair needs full levels 1..k with n/2 <= k <= n-1, got {fact.levels}")
    problems = verify_factorization(fact)
    if problems:
        raise ValueError(f"repair_to_complement_paired: input factorization invalid: {problems[0]}")
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
    paired = _build(n, fact.levels, factors)
    residue_factors = [f for f in factors if len(f) > 2]
    residue = _build(n, tuple(range(1, n - k)), residue_factors)
    return paired, residue


def _inner_6() -> Factorization:
    return run(6, LevelSet.full(2), construct_div(6, 2))


def _is_pair(n: int, factor: tuple[int, ...]) -> bool:
    return len(factor) == 2 and factor[0] ^ factor[1] == full_mask(n)


def _extended(fact: Factorization, levels: LevelSet) -> Factorization:
    """fact followed by the complement pairs of levels, on the levels of both."""
    covered = tuple(sorted({*fact.levels, *levels}))
    return Factorization(fact.n, covered, fact.factors + extend_by_complements(fact.n, levels))


def test_extend_by_complements_6_3():
    ext = _extended(_inner_6(), LevelSet.of([3]))
    assert ext.n == 6 and ext.levels == (1, 2, 3)
    assert len(ext.factors) == 6 + 10
    assert sum(_is_pair(6, f) for f in ext.factors) == 10
    assert verify_factorization(ext) == []


def test_extend_by_complements_from_empty():
    empty = Factorization(5, (), ())
    ext = _extended(empty, LevelSet.full(4))
    assert ext.levels == (1, 2, 3, 4)
    assert len(ext.factors) == 15
    assert all(_is_pair(5, f) for f in ext.factors)
    assert verify_factorization(ext) == []
    # each pair lists the set holding element 1 first, the order sort_factor
    # gives; the pairs follow the size of their smaller set, then its colex
    # order, and a middle pair counts the half holding element 1
    for n in range(2, 13):
        factors = extend_by_complements(n, LevelSet.full(n - 1))
        assert len(factors) == 2 ** (n - 1) - 1
        assert all(f == sort_factor(f) and f[0] & 1 for f in factors)
        smaller = [min(f, key=lambda mask: (mask.bit_count(), not mask & 1)) for f in factors]
        assert smaller == sorted(smaller, key=lambda mask: (mask.bit_count(), mask))


def test_repair_fixed_point():
    ext = _extended(_inner_6(), LevelSet.of([3]))
    paired, residue = repair_to_complement_paired(ext)
    assert paired == ext
    assert residue.levels == (1, 2)
    assert len(residue.factors) == 6
    assert verify_factorization(residue) == []


def test_repair_empty_residue():
    ext = _extended(Factorization(5, (), ()), LevelSet.full(4))
    paired, residue = repair_to_complement_paired(ext)
    assert paired == ext
    assert residue.factors == () and residue.levels == ()


def _unshuffle(fact: Factorization) -> Factorization:
    """Break one complement pair by merging it into a straddle-free partner."""
    n = fact.n
    full = full_mask(n)
    factors = [list(f) for f in fact.factors]
    for i, f in enumerate(factors):
        if not _is_pair(n, tuple(f)):
            continue
        s, comp = f
        for g_idx, g in enumerate(factors):
            if g_idx == i or _is_pair(n, tuple(g)):
                continue
            inside_s = [m for m in g if m & ~s == 0]
            inside_c = [m for m in g if m & ~comp == 0]
            if len(inside_s) + len(inside_c) == len(g) and inside_s and inside_c:
                factors[i] = [s] + inside_c
                factors[g_idx] = inside_s + [comp]
                return _build(n, fact.levels, factors)
    raise AssertionError("no unshufflable pair found")


def test_repair_restores_broken_pair():
    ext = _extended(_inner_6(), LevelSet.of([3]))
    broken = _unshuffle(ext)
    assert verify_factorization(broken) == []  # still a valid factorization
    assert sum(_is_pair(6, f) for f in broken.factors) == 9
    paired, residue = repair_to_complement_paired(broken)
    assert verify_factorization(paired) == []
    assert sum(_is_pair(6, f) for f in paired.factors) == 10
    assert residue.levels == (1, 2)
    assert verify_factorization(residue) == []


def test_repair_rejects_partial_levels():
    fact = run(4, LevelSet.of([2]), {(0, 2): 3})
    with pytest.raises(ValueError):
        repair_to_complement_paired(fact)


def test_project_lift_pair_levels():
    lifted = run(10, LevelSet.of([2]), {(0, 5): 9})
    fact = project_lift(lifted)
    assert fact.n == 9 and fact.levels == (1, 2)
    assert len(fact.factors) == binomial(8, 0) + binomial(8, 1)
    assert verify_factorization(fact) == []


def test_project_lift_odd_levels():
    lifted = run(12, LevelSet.of([1, 3]), {(3, 0, 3): 4, (0, 0, 4): 52})
    assert len(lifted.factors) == binomial(11, 0) + binomial(11, 2)
    fact = project_lift(lifted)
    assert fact.n == 11 and fact.levels == (1, 2, 3)
    assert len(fact.factors) == sum(binomial(10, j - 1) for j in (1, 2, 3))
    assert verify_factorization(fact) == []


def _strip_top_then_build(lifted: Factorization) -> Factorization:
    """The projection rebuilt from scratch: each factor's holder of the top
    element n loses it and goes to the end, then _build sorts
    every factor again."""
    n = lifted.n
    bit = 1 << (n - 1)
    factors = []
    for factor in lifted.factors:
        (holder,) = [m for m in factor if m & bit]
        rest = [m for m in factor if not m & bit]
        if holder ^ bit:
            rest.append(holder ^ bit)
        factors.append(rest)
    levels = sorted({*lifted.levels} | {s - 1 for s in lifted.levels if s > 1})
    return _build(n - 1, levels, factors)


def test_project_lift_matches_a_rebuild_on_every_planned_lift():
    """Every lift block in the plans of the factorable full ranges with
    n <= 16: removing the top element in place gives the same factorization
    as stripping it and sorting each factor again."""
    lifts = 0
    for n in range(1, 17):
        for k in range(1, n + 1):
            for block in decide(n, k).blocks or ():
                if block.realization is not Realization.LIFT:
                    continue
                lifted = run(block.n, block.levels, block.solution)
                assert project_lift(lifted) == _strip_top_then_build(lifted), (n, k)
                lifts += 1
    assert lifts == 23
