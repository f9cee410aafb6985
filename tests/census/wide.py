"""The two wide censuses, outside the Tier-1 run: every level set with
n <= 16, and every one of three levels with n <= 64.

Each runs test_decide._census over its region: no set is undecided, every
NOT_FACTORABLE verdict carries a certificate that passes check_certificate,
and every witness has a zero residual and no zero multiplicity.  The status
counts and the digest over (n, L, status, family) are pinned.  Run them from
the root of a checkout (about 1 and 1.5 minutes with Python 3.11):

    PYTHONPATH=src:tests python -m pytest -q tests/census/wide.py
"""

from itertools import combinations

from hyperfactor.combinatorics import LevelSet
from hyperfactor.decide import Status

from test_decide import _census


def test_census_of_every_level_set_up_to_n_16():
    """Every non-range level set with 2 <= n <= 16."""
    statuses, digest = _census(
        (n, LevelSet.of(j for j in range(1, n + 1) if bits >> (j - 1) & 1))
        for n in range(2, 17)
        for bits in range(1, 2 ** n)
    )
    assert statuses == {Status.FACTORABLE: 5593, Status.NOT_FACTORABLE: 125325}
    assert digest == "a41b7eb57d795a5dfda75db2be54b38c422cbf848a772c384af72140fec9bd1a"


def test_census_of_every_level_set_of_three_levels_up_to_n_64():
    """Every level set L with |L| = 3 and 3 <= n <= 64, full ranges aside."""
    statuses, digest = _census(
        (n, LevelSet.of(levels))
        for n in range(3, 65)
        for levels in combinations(range(1, n + 1), 3)
    )
    assert statuses == {Status.FACTORABLE: 6781, Status.NOT_FACTORABLE: 670197}
    assert digest == "e46a00051a7d32c0b56dff9ed4f11613714cd9ceec24b84823b38b24a701de7c"
