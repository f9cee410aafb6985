"""Tests for complement-pair extension, repair, and lift projection."""

import pytest

from hyperfactor.combinatorics import LevelSet, binomial, full_mask
from hyperfactor.constructors import construct_div
from hyperfactor.factorization import Factorization, sort_factor
from hyperfactor.flow import run
from hyperfactor.reducer import (
    extend_by_complements,
    project_lift,
    repair_to_complement_paired,
)
from hyperfactor.verifier import verify_factorization


def _inner_6() -> Factorization:
    return run(6, LevelSet.full(2), construct_div(6, 2))


def _is_pair(n: int, factor: tuple[int, ...]) -> bool:
    return len(factor) == 2 and factor[0] ^ factor[1] == full_mask(n)


def test_extend_by_complements_6_3():
    ext = extend_by_complements(_inner_6())
    assert ext.n == 6 and ext.levels == (1, 2, 3)
    assert len(ext.factors) == 6 + 10
    assert sum(_is_pair(6, f) for f in ext.factors) == 10
    assert verify_factorization(ext) == []


def test_extend_by_complements_from_empty():
    empty = Factorization(5, (), ())
    ext = extend_by_complements(empty)
    assert ext.levels == (1, 2, 3, 4)
    assert len(ext.factors) == 15
    assert all(_is_pair(5, f) for f in ext.factors)
    assert verify_factorization(ext) == []
    # each pair lists the set holding element 1 first, the order sort_factor
    # gives; the pairs follow the size of their smaller set, then its colex
    # order, and a middle pair counts the half holding element 1
    for n in range(2, 13):
        factors = extend_by_complements(Factorization(n, (), ())).factors
        assert len(factors) == 2 ** (n - 1) - 1
        assert all(f == sort_factor(f) and f[0] & 1 for f in factors)
        smaller = [min(f, key=lambda mask: (mask.bit_count(), not mask & 1)) for f in factors]
        assert smaller == sorted(smaller, key=lambda mask: (mask.bit_count(), mask))


def test_extend_rejects_bad_inputs():
    with pytest.raises(ValueError):
        extend_by_complements(Factorization(6, (1, 2, 3), ()))  # k = 2 below n/2
    with pytest.raises(ValueError):
        extend_by_complements(Factorization(6, (2,), ()))  # levels not 1..m
    with pytest.raises(ValueError):
        extend_by_complements(Factorization(6, (1, 2), ()))  # invalid inner


def test_repair_fixed_point():
    ext = extend_by_complements(_inner_6())
    paired, residue = repair_to_complement_paired(ext)
    assert paired == ext
    assert residue.levels == (1, 2)
    assert len(residue.factors) == 6
    assert verify_factorization(residue) == []


def test_repair_empty_residue():
    ext = extend_by_complements(Factorization(5, (), ()))
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
                return Factorization.build(n, fact.levels, factors)
    raise AssertionError("no unshufflable pair found")


def test_repair_restores_broken_pair():
    ext = extend_by_complements(_inner_6())
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


def test_project_lift_rejects_consecutive_levels():
    fact = _inner_6()
    with pytest.raises(ValueError):
        project_lift(fact)


def test_project_lift_rejects_missing_element():
    # element 4 never appears: not a partition, caught per factor
    bogus = Factorization(4, (2,), ((0b0011, 0b0110),))
    with pytest.raises(ValueError):
        project_lift(bogus)
