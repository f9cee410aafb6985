"""Answer checks that do not rely on the program under test.

Everything here is restated from the paper's arithmetic and from the
definitions, with exact integers and fractions:

* the characterization of factorable full ranges {1..k};
* a Farkas certificate check by unbounded-knapsack dynamic programming, so
  that a check costs O(n * |L|) however many types (rows) the instance has;
* the residual of a multiplicity witness;
* the factor count M = sum of C(n-1, j-1) over the levels;
* parsers for the command-line output the checks read.

Nothing in this module imports hyperfactor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Sequence


def range_factorable(n: int, k: int) -> bool:
    """Whether the subsets of {1..n} with sizes 1..k split into 1-factors."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n} k={k}")
    if k == 1 or k == n:
        return True
    if 2 * k >= n:
        # complement pairs {S, [n] minus S} cover the sizes n-k .. k
        m = n - k - 1
        return m == 0 or range_factorable(n, m)
    if n % k == 0:
        return n >= k * (k - 2)
    if n % k == k - 1:
        return n >= k * (-(-k // 2) - 1) - 1
    return False


def certificate_range(n: int, k: int) -> int:
    """The m such that a certificate for levels {1..k} is stated over {1..m}.

    For n/2 <= k < n the complement reduction makes the instance equivalent
    to the range {1..n-k-1}, and the certificate separates that range.
    """
    if 2 * k < n:
        return k
    if k == n:
        return certificate_range(n, n - 1)
    return n - k - 1


def min_type_value(n: int, levels: Sequence[int], y: Sequence[Fraction]) -> Fraction | None:
    """min of lam . y over all types lam (sum of j * lam_j = n, support in levels).

    Unbounded knapsack over the ground size: best[s] is the least value of
    sum y_j * c_j over multisets of levels with sum j * c_j = s.  Returns
    None when no type exists.
    """
    best: list[Fraction | None] = [None] * (n + 1)
    best[0] = Fraction(0)
    for s in range(1, n + 1):
        cand = None
        for j in levels:
            if j <= s and best[s - j] is not None:
                v = best[s - j] + y[j - 1]
                if cand is None or v < cand:
                    cand = v
        best[s] = cand
    return best[n]


def certificate_holds(n: int, levels: Sequence[int], y: Sequence[Fraction]) -> bool:
    """Both Farkas conditions: lam . y >= 0 for every type, and b . y < 0."""
    levels = sorted(levels)
    if not levels or len(y) != levels[-1]:
        return False
    least = min_type_value(n, levels, y)
    if least is not None and least < 0:
        return False
    return sum(math.comb(n, j) * y[j - 1] for j in levels) < 0


def residual(n: int, levels: Sequence[int], solution: Mapping[tuple[int, ...], int]) -> list[int]:
    """Per level i in 1..k: sum of lam_i * mult minus the target count.

    The target is C(n, i) for i in levels and 0 otherwise.  Raises
    ValueError on a key that is not a type or a multiplicity below 1.
    """
    k = max(levels)
    res = [-(math.comb(n, i) if i in levels else 0) for i in range(1, k + 1)]
    for lam, mult in solution.items():
        if len(lam) != k or any(c < 0 for c in lam):
            raise ValueError(f"{lam} is not a vector of k={k} non-negative counts")
        if any(c and i not in levels for i, c in enumerate(lam, start=1)):
            raise ValueError(f"{lam} uses a size outside the levels")
        if sum(i * c for i, c in enumerate(lam, start=1)) != n:
            raise ValueError(f"{lam} does not partition {n} elements")
        if mult < 1:
            raise ValueError(f"multiplicity {mult} of {lam} is below 1")
        for i, c in enumerate(lam):
            res[i] += c * mult
    return res


def factor_count(n: int, levels: Sequence[int]) -> int:
    """Number of factors in any 1-factorization: sum of C(n-1, j-1)."""
    return sum(math.comb(n - 1, j - 1) for j in levels)


def type_count(n: int, levels: Sequence[int]) -> int:
    """Number of types: partitions of n into parts whose sizes lie in levels."""
    ways = [1] + [0] * n
    for j in levels:
        for s in range(j, n + 1):
            ways[s] += ways[s - j]
    return ways[n]


def family_size(n: int, levels: Sequence[int]) -> int:
    """Number of sets in the family: sum of C(n, j)."""
    return sum(math.comb(n, j) for j in levels)


# ---------------------------------------------------------------------------
# parsers for command-line output


def parse_decide(text: str) -> dict:
    """Status, certificate and its levels, and witness size from `decide`."""
    lines = text.splitlines()
    out: dict = {"status": lines[0] if lines else "", "certificate": None,
                 "certificate_levels": None, "solution_types": None}
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        if key == "certificate":
            out["certificate"] = [Fraction(v) for v in value.split(" ")]
        elif key == "certificate-levels":
            out["certificate_levels"] = [int(v) for v in value.split(",")]
        elif key == "solution-types":
            out["solution_types"] = int(value)
    return out


def parse_solve(text: str) -> list[tuple[int, list[int], dict[tuple[int, ...], int]]]:
    """Blocks of `solve`: (ground size, levels, {type: multiplicity})."""
    blocks: list[tuple[int, list[int], dict[tuple[int, ...], int]]] = []
    for line in text.splitlines():
        if line.startswith("n="):
            m = re.fullmatch(r"n=(\d+) levels=([\d,]+)", line)
            if not m:
                raise ValueError(f"malformed block header {line!r}")
            blocks.append((int(m.group(1)), [int(v) for v in m.group(2).split(",")], {}))
        else:
            lam, _, mult = line.partition(": ")
            if not blocks or not mult:
                raise ValueError(f"malformed solution line {line!r}")
            key = tuple(int(v) for v in lam.split(","))
            if key in blocks[-1][2]:
                raise ValueError(f"type {key} listed twice")
            blocks[-1][2][key] = int(mult)
    return blocks


def levels_text(levels: Sequence[int]) -> str:
    return ",".join(map(str, levels))
