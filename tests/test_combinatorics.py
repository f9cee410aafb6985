"""Tests for exact combinatorial primitives."""

import math
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import (
    MAX_GROUND_SIZE,
    LevelSet,
    binomial,
    canonical_key,
    check_ground,
    check_range,
    elements_of,
    enumerate_types,
    full_mask,
    iter_types,
    masks_of_size,
    min_element,
    set_text,
)
from hyperfactor.linear_system import solution_residual


def count_types(n, levels):
    """len(enumerate_types(n, levels)) without listing them, in O(n * |levels|).

    The number of partitions of n into parts from levels, one level at a time.
    """
    levels.check_against_ground(n)
    ways = [1] + [0] * n
    for j in levels:
        for rem in range(j, n + 1):
            ways[rem] += ways[rem - j]
    return ways[n]


def mask_of(elements):
    """The bit-set of the elements, each in 1..64: the inverse of elements_of."""
    m = 0
    for e in elements:
        if not 1 <= e <= MAX_GROUND_SIZE:
            raise ValueError(f"element out of range 1..{MAX_GROUND_SIZE}: {e}")
        m |= 1 << (e - 1)
    return m


def factor_count(n, levels):
    """Number of 1-factors in any 1-factorization: sum of C(n-1, j-1) over j in levels."""
    levels.check_against_ground(n)
    return sum(binomial(n - 1, j - 1) for j in levels)


def test_binomial_zero_convention():
    assert binomial(0, 0) == 1
    assert binomial(5, 0) == 1
    assert binomial(5, 5) == 1
    assert binomial(5, 6) == 0
    assert binomial(-1, 0) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, -2) == 0


def test_binomial_matches_math_comb():
    for a in range(0, 30):
        for b in range(0, a + 1):
            assert binomial(a, b) == math.comb(a, b)


def test_binomial_pascal_identity():
    # C(a,b) = C(a-1,b) + C(a-1,b-1) holds everywhere except at (0,0),
    # where the zero convention gives 1 on the left and 0 + 0 on the right
    for a in range(-3, 13):
        for b in range(-3, 13):
            if (a, b) == (0, 0):
                assert binomial(a, b) == 1
                assert binomial(a - 1, b) + binomial(a - 1, b - 1) == 0
                continue
            assert binomial(a, b) == binomial(a - 1, b) + binomial(a - 1, b - 1)


def test_check_ground():
    check_ground(1)
    check_ground(64)
    for bad in (0, -1, 65, 3.0, "7", True, False):
        with pytest.raises(ValueError):
            check_ground(bad)


def test_check_range():
    check_range(1, 1)
    check_range(64, 64)
    check_range(5, 3)
    for n, k in [(5, 0), (5, 6), (5, 3.0), (5, True), (True, True), (5.0, 3)]:
        with pytest.raises(ValueError):
            check_range(n, k)


def test_level_set_validation():
    assert LevelSet.full(3).levels == (1, 2, 3)
    assert LevelSet.of([4, 2]).levels == (2, 4)
    assert LevelSet.of([2, 2, 4]).levels == (2, 4)
    assert LevelSet.full(3).is_full_range()
    assert not LevelSet.of([1, 3]).is_full_range()
    assert LevelSet.of([2, 5]).k == 5
    assert len(LevelSet.of([2, 5])) == 2
    assert 2 in LevelSet.of([2, 5]) and 3 not in LevelSet.of([2, 5])
    with pytest.raises(ValueError):
        LevelSet(())
    with pytest.raises(ValueError):
        LevelSet((0, 2))
    with pytest.raises(ValueError):
        LevelSet((2, 1))
    with pytest.raises(ValueError):
        LevelSet((2, 2))
    with pytest.raises(ValueError):
        LevelSet.of([3]).check_against_ground(2)
    for not_ints in ([2.9, 4], ["2"], ["2", 4], [True, 3]):
        with pytest.raises(ValueError, match="levels must be positive integers"):
            LevelSet.of(not_ints)
    for not_int in (2.5, True):
        with pytest.raises(ValueError, match="levels must be positive integers"):
            LevelSet.full(not_int)


def test_mask_round_trip():
    for n in range(1, 9):
        for mask in range(1 << n):
            elems = elements_of(mask)
            assert mask_of(elems) == mask
            if mask:
                assert min_element(mask) == elems[0]
    with pytest.raises(ValueError):
        min_element(0)
    with pytest.raises(ValueError):
        mask_of([0])
    with pytest.raises(ValueError):
        mask_of([65])


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(1, 64)))
def test_elements_of_inverts_mask_of(elements):
    assert elements_of(mask_of(elements)) == tuple(sorted(elements))


def _spelled_by_elements(mask):
    return "{" + ",".join(map(str, elements_of(mask))) + "}"


@settings(max_examples=500)
@given(st.integers(0, 2**64 - 1))
def test_set_text_spells_the_elements(mask):
    assert set_text(mask) == _spelled_by_elements(mask)


def test_set_text_at_every_bit_and_the_extremes():
    for i in range(64):
        assert set_text(1 << i) == _spelled_by_elements(1 << i) == f"{{{i + 1}}}"
    assert set_text(1 << 63) == "{64}"
    assert set_text(full_mask(64)) == _spelled_by_elements(full_mask(64))
    assert set_text(0) == "{}"


def test_set_text_spells_every_set_within_sixteen_elements_and_the_byte_edges():
    """Sets within 1..16 are looked up in tables split at 9|10, all other
    masks are spelled element by element: both agree with elements_of at and
    across the edges between them."""
    for mask in range(1, 0x10000):
        assert set_text(mask) == _spelled_by_elements(mask)
    for mask in [0xFF, 0x100, 0x101, 0x1FF, 0x200, 0x201, 0xFFFF, 1 << 16, 0x10001, 0x10000 | 0xFFFF, 1 << 63]:
        assert set_text(mask) == _spelled_by_elements(mask)
    assert set_text(0) == "{}"
    # the refusals name what is left past the 64th bit
    for mask, left in [(1 << 64, 1), (full_mask(66), 3), (-1, -1), (-0xFFFF, -1)]:
        with pytest.raises(ValueError) as exc:
            set_text(mask)
        assert str(exc.value) == f"not a subset of 1..64: {left}"


@pytest.mark.parametrize("mask", [1 << 64, full_mask(65), -1])
def test_set_text_refuses_masks_outside_64_bits(mask):
    with pytest.raises(ValueError, match="not a subset of 1..64"):
        set_text(mask)


def test_masks_of_size():
    assert masks_of_size(4, 2) == [3, 5, 6, 9, 10, 12]
    for n in range(1, 9):
        assert full_mask(n) == (1 << n) - 1
        for s in range(0, n + 1):
            masks = masks_of_size(n, s)
            assert len(masks) == binomial(n, s)
            assert masks == sorted(masks)
            assert all(m.bit_count() == s for m in masks)
    # summing bits gives the masks mask_of builds from the element lists, in
    # the same order; a ground past 64 elements is refused as mask_of
    # refuses element 65
    for n in range(17):
        for s in range(n + 2):
            assert masks_of_size(n, s) == sorted(
                mask_of(c) for c in combinations(range(1, n + 1), s)
            )
    with pytest.raises(ValueError, match="element out of range 1..64: 65"):
        masks_of_size(65, 3)


def test_type_helpers():
    """solution_residual takes a key as a type when its length is k, its
    support lies in L, its entries are non-negative and sum j * lam_j is n."""
    L = LevelSet.of([1, 3])
    # weight 1 + 6 = 7: the column (1, 0, 2) against b = (7, 0, 35)
    assert solution_residual(7, L, {(1, 0, 2): 1}) == (-6, 0, -33)
    not_types = [
        ((0, 2, 1), 7),  # level 2 not allowed
        ((1, 0, 2), 8),  # weight mismatch
        ((1, 2), 7),  # wrong length
        ((1, 0, 2, 0), 7),  # wrong length, weight right
        ((-1, 0, 2), 5),  # negative entry, weight right
    ]
    for lam, n in not_types:
        with pytest.raises(ValueError, match=rf"^solution key is not an \(n, levels\)-type: {re.escape(str(lam))}$"):
            solution_residual(n, L, {lam: 1})


def test_enumerate_types_example_rows():
    """The 8 types of 7 over levels {1,2,3}, in canonical order."""
    rows = enumerate_types(7, LevelSet.full(3))
    assert rows == [
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 1),
        (4, 0, 1),
        (1, 3, 0),
        (3, 2, 0),
        (5, 1, 0),
        (7, 0, 0),
    ]


def test_enumerate_types_small_cases():
    assert enumerate_types(7, LevelSet.of([3])) == []
    assert enumerate_types(6, LevelSet.of([3])) == [(0, 0, 2)]
    assert enumerate_types(12, LevelSet.of([2, 4])) == [
        (0, 0, 0, 3),
        (0, 2, 0, 2),
        (0, 4, 0, 1),
        (0, 6, 0, 0),
    ]
    assert enumerate_types(1, LevelSet.full(1)) == [(1,)]


def test_types_are_valid_and_canonically_ordered():
    for n in range(1, 16):
        for k in range(1, min(n, 6) + 1):
            L = LevelSet.full(k)
            rows = enumerate_types(n, L)
            assert rows == list(iter_types(n, L))
            for lam in rows:
                assert sum(j * c for j, c in enumerate(lam, start=1)) == n
                # a type: the residual takes it as a key
                solution_residual(n, L, {lam: 1})
            rev = [tuple(reversed(lam)) for lam in rows]
            assert rev == sorted(rev, reverse=True)


def test_types_off_level_entries_are_zero():
    L = LevelSet.of([2, 5])
    for lam in iter_types(14, L):
        assert lam[0] == lam[2] == lam[3] == 0


def _partitions_dp(n, k):
    """Independent counter: partitions of n into parts of size at most k."""
    dp = [1] + [0] * n
    for part in range(1, k + 1):
        for v in range(part, n + 1):
            dp[v] += dp[v - part]
    return dp[n]


def test_type_count_matches_partition_dp():
    for n in range(1, 26):
        for k in range(1, min(n, 8) + 1):
            assert len(enumerate_types(n, LevelSet.full(k))) == _partitions_dp(n, k)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.sets(st.integers(1, 30), min_size=1))
def test_count_types_matches_enumeration(n, levels):
    L = LevelSet.of(levels)
    if L.k > n:
        with pytest.raises(ValueError):
            count_types(n, L)
        return
    assert count_types(n, L) == len(enumerate_types(n, L))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.sets(st.integers(1, 12), min_size=1),
       st.lists(st.integers(0, 6), min_size=12, max_size=12))
def test_a_capped_enumeration_is_the_filtered_one(n, levels, cap):
    """iter_types with a cap yields, in canonical order, exactly the types
    with lambda_j <= cap[j-1]."""
    L = LevelSet.of(levels)
    if L.k > n:
        return
    want = [lam for lam in iter_types(n, L) if all(c <= m for c, m in zip(lam, cap))]
    assert list(iter_types(n, L, cap[: L.k])) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.sets(st.integers(1, 30), min_size=1))
def test_canonical_key_sorts_types_in_canonical_order(n, levels):
    L = LevelSet.of(levels)
    if L.k > n:
        return
    types = enumerate_types(n, L)
    assert types == sorted(types, key=canonical_key)


def test_factor_count():
    assert factor_count(12, LevelSet.full(3)) == 67
    assert factor_count(4, LevelSet.of([2])) == 3
    assert factor_count(6, LevelSet.full(2)) == 6
    assert factor_count(7, LevelSet.full(3)) == 22
    assert factor_count(8, LevelSet.full(4)) == 64
    for n in range(1, 12):
        assert factor_count(n, LevelSet.full(n)) == 2 ** (n - 1)
