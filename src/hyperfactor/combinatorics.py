"""Exact combinatorial primitives: binomials, bit-set subsets, level types.

Ground sets are {1, .., n} with n <= 64; subsets are bit-sets stored in a plain
int (bit i-1 <-> element i).  A "type" records, for a partition of the ground
set into sets whose sizes lie in a level set L, how many parts of each size
occur: a vector (lambda_1, .., lambda_k) with sum of j*lambda_j equal to n and
lambda_j = 0 for j outside L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

#: Hard cap on the ground-set size; subsets must fit in a 64-bit word.
MAX_GROUND_SIZE = 64

TypeVector = tuple[int, ...]


def binomial(a: int, b: int) -> int:
    """C(a, b), taken to be zero whenever a < 0, b < 0 or a < b."""
    if a < 0 or b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _is_int(value: object) -> bool:
    """The one int rule for n, k, levels and multiplicities: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_ground(n: int) -> None:
    if not _is_int(n) or not 1 <= n <= MAX_GROUND_SIZE:
        raise ValueError(f"ground size must be an int in 1..{MAX_GROUND_SIZE}, got {n!r}")


def check_range(n: int, k: int) -> None:
    check_ground(n)
    if not _is_int(k) or not 1 <= k <= n:
        raise ValueError(f"k must be an int in 1..n={n}, got {k!r}")


@dataclass(frozen=True)
class LevelSet:
    """A non-empty, strictly increasing tuple of positive set sizes.

    The largest size is written k throughout.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("level set must be non-empty")
        if any(not _is_int(l) or l < 1 for l in self.levels):
            raise ValueError(f"levels must be positive integers: {self.levels!r}")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly increasing: {self.levels!r}")

    @classmethod
    def of(cls, levels: Iterable[int]) -> "LevelSet":
        """The set of the levels; with a non-int, the levels as given, for the rule to refuse."""
        levels = tuple(levels)
        return cls(tuple(sorted(set(levels))) if all(map(_is_int, levels)) else levels)

    @classmethod
    def full(cls, k: int) -> "LevelSet":
        """The full range {1, .., k}; with a non-int k, (k,), for the rule to refuse."""
        return cls(tuple(range(1, k + 1)) if _is_int(k) else (k,))

    @property
    def k(self) -> int:
        return self.levels[-1]

    def is_full_range(self) -> bool:
        return self.levels == tuple(range(1, self.k + 1))

    def check_against_ground(self, n: int) -> None:
        check_ground(n)
        if self.k > n:
            raise ValueError(f"largest level {self.k} exceeds ground size {n}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.levels)

    def __contains__(self, j: object) -> bool:
        return j in self.levels

    def __len__(self) -> int:
        return len(self.levels)


# ---------------------------------------------------------------------------
# bit-set subsets


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@functools.cache
def set_tables() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Heads `{low` indexed by mask & 0x1FF (elements 1..9) and tails
    `,high}` by mask >> 9 (elements 10..16), tails[0] being `}`: a set
    within 1..16 is spelled by a head and a tail.  Built on first use, so a
    process that spells no set never holds them."""
    heads = tuple("{" + ",".join(map(str, elements_of(b))) for b in range(1 << 9))
    tails = tuple("".join(f",{e}" for e in elements_of(b << 9)) + "}" for b in range(1 << 7))
    return heads, tails


def set_text(mask: int) -> str:
    """The set spelled as `{e1,e2,...}`, elements ascending.  A non-empty set
    within 1..16 is a head and a tail of set_tables, or, with no element
    below 10, `{` and its tail's elements; any other mask is spelled element
    by element."""
    if 0 < mask <= 0xFFFF:
        heads, tails = set_tables()
        low, tail = mask & 0x1FF, tails[mask >> 9]
        return heads[low] + tail if low else "{" + tail[1:]
    if mask >> MAX_GROUND_SIZE:
        raise ValueError(f"not a subset of 1..{MAX_GROUND_SIZE}: {mask >> MAX_GROUND_SIZE}")
    return "{" + ",".join(map(str, elements_of(mask))) + "}"


@functools.cache
def set_decoder() -> Callable[[str], int]:
    """set_mask(piece): the mask whose canonical spelling (set_text) is piece;
    KeyError for any other piece."""
    heads, tails = set_tables()
    head_of = {heads[b]: b for b in range(1, 1 << 9)}.get  # `{` alone is no head
    # every tail but `}` opens with `,1`, which the cut takes off
    tail_of = {tails[b][2:]: b << 9 for b in range(1, 1 << 7)}.get
    # a set with no element in 10..16: its head and `}`
    whole_of = {heads[b] + "}": b for b in range(1, 1 << 9)}.get
    element_bit = {str(e): 1 << (e - 1) for e in range(1, MAX_GROUND_SIZE + 1)}.__getitem__

    def set_mask(piece: str) -> int:
        # element 1 can only come first, so `,1` opens the first element in 10..16
        head, cut, tail = piece.partition(",1")
        # a hit is canonical: each half spells its elements ascending, and 1..9 precede 10..16
        if cut:
            low, high = head_of(head), tail_of(tail)
            if low is not None and high is not None:
                return low | high
        else:
            low = whole_of(head)
            if low is not None:
                return low
        # no element below 10, one beyond 16, or no canonical spelling at all;
        # a repeated element can carry the sum past bit 64, which set_text refuses
        mask = sum(map(element_bit, piece[1:-1].split(",")))
        if mask >> MAX_GROUND_SIZE or set_text(mask) != piece:
            raise KeyError(piece)
        return mask

    return set_mask


def full_mask(n: int) -> int:
    return (1 << n) - 1


def min_element(mask: int) -> int:
    """Smallest element of a non-empty bit-set."""
    if mask == 0:
        raise ValueError("empty set has no minimum element")
    return (mask & -mask).bit_length()


def masks_of_size(n: int, s: int) -> list[int]:
    """All bit-sets over {1..n} of size s, ascending as integers (colex order)."""
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"element out of range 1..{MAX_GROUND_SIZE}: {MAX_GROUND_SIZE + 1}")
    return sorted(map(sum, combinations([1 << i for i in range(n)], s)))


# ---------------------------------------------------------------------------
# types


def type_weight(lam: TypeVector) -> int:
    """Total number of covered elements: sum of j * lambda_j."""
    return sum(j * c for j, c in enumerate(lam, start=1))


def is_valid_type(lam: TypeVector, n: int, levels: LevelSet) -> bool:
    if len(lam) != levels.k or any(c < 0 for c in lam):
        return False
    if any(c and (j not in levels) for j, c in enumerate(lam, start=1)):
        return False
    return type_weight(lam) == n


def iter_types(n: int, levels: LevelSet) -> Iterator[TypeVector]:
    """Yield all (n, levels)-types in canonical order.

    Canonical order is lexicographically decreasing on the reversed vector
    (lambda_k, lambda_{k-1}, .., lambda_1); it is produced directly by
    assigning multiplicities for the largest level first, counting down.
    """
    levels.check_against_ground(n)
    k = levels.k
    desc = sorted(levels, reverse=True)
    lam = [0] * k

    def rec(idx: int, rem: int) -> Iterator[TypeVector]:
        j = desc[idx]
        if idx == len(desc) - 1:
            # last level: multiplicity is forced by divisibility
            if rem % j == 0:
                lam[j - 1] = rem // j
                yield tuple(lam)
                lam[j - 1] = 0
            return
        for c in range(rem // j, -1, -1):
            lam[j - 1] = c
            yield from rec(idx + 1, rem - c * j)
        lam[j - 1] = 0

    yield from rec(0, n)


def canonical_key(lam: TypeVector) -> TypeVector:
    """Ascending sort key of canonical order: sorted by it, the types of one
    (n, levels) come out as iter_types yields them."""
    return tuple(-c for c in reversed(lam))


def enumerate_types(n: int, levels: LevelSet) -> list[TypeVector]:
    """All (n, levels)-types, canonically ordered (see iter_types)."""
    return list(iter_types(n, levels))


def count_types(n: int, levels: LevelSet) -> int:
    """len(enumerate_types(n, levels)) without listing them, in O(n * |levels|).

    The number of partitions of n into parts from levels, one level at a time.
    """
    levels.check_against_ground(n)
    ways = [1] + [0] * n
    for j in levels:
        for rem in range(j, n + 1):
            ways[rem] += ways[rem - j]
    return ways[n]
