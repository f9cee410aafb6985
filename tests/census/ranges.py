"""The paper's theorem by a second road, outside the Tier-1 run: every range
{1..k} with 1 <= k < n <= 64, 2,016 in all.

The exact LP knows none of decide's closed forms, yet it is feasible
exactly when decide calls the range FACTORABLE, and the certificate of each
infeasible one passes check_certificate.  The counts are pinned.  Run it
from the root of a checkout (about two minutes with Python 3.11):

    PYTHONPATH=src python -m pytest -q tests/census/ranges.py
"""

from hyperfactor.combinatorics import LevelSet
from hyperfactor.decide import Status, decide
from hyperfactor.linear_system import build_system, check_certificate, lp_feasible


def test_lp_feasibility_of_every_range_matches_decide():
    counts = {True: 0, False: 0}
    for n in range(2, 65):
        for k in range(1, n):
            levels = LevelSet.full(k)
            out = lp_feasible(build_system(n, levels))
            assert out.feasible == (decide(n, k).status is Status.FACTORABLE), (n, k)
            if not out.feasible:
                assert check_certificate(n, levels, out.certificate).ok, (n, k)
            counts[out.feasible] += 1
    assert counts == {True: 571, False: 1445}
