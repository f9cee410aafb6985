"""Tests for the from-scratch factorization verifier."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import LevelSet, elements_of
from hyperfactor.decide import construct
from hyperfactor.errors import LimitExceeded
from hyperfactor.factorization import Factorization
from hyperfactor.flow import run
import hyperfactor.verifier as verifier
from hyperfactor.verifier import _violations, verify_factorization

K4 = Factorization(
    4, (2,), ((0b0011, 0b1100), (0b0101, 0b1010), (0b1001, 0b0110))
)


def test_valid_factorization_has_no_violations():
    assert verify_factorization(K4) == []
    fact = run(12, LevelSet.of([1, 3]), {(3, 0, 3): 4, (0, 0, 4): 52})
    assert verify_factorization(fact) == []


def test_duplicate_set_reported_with_missing_partner():
    factors = [list(f) for f in K4.factors]
    factors[2] = [0b0101, 0b1010]  # copy of factor 1, {1,3} and {2,4}
    bad = Factorization(4, (2,), tuple(tuple(f) for f in factors))
    msgs = verify_factorization(bad)
    assert any("appears in factors 1 and 2" in m for m in msgs)
    assert any("distinct sets appear" in m and "is missing" in m for m in msgs)


def test_empty_factor():
    bad = Factorization(4, (2,), (K4.factors[0], (), K4.factors[2]))
    msgs = verify_factorization(bad)
    assert any("factor 1 is empty" in m for m in msgs)


def test_overlapping_sets():
    bad = Factorization(4, (2,), ((0b0011, 0b0110),) + K4.factors[1:])
    msgs = verify_factorization(bad)
    assert any("factor 0: sets overlap" in m for m in msgs)


def test_uncovered_elements():
    bad = Factorization(4, (2,), ((0b0011,),) + K4.factors[1:])
    msgs = verify_factorization(bad)
    assert "factor 0: elements {3,4} are not covered" in msgs


def test_size_outside_levels():
    bad = Factorization(4, (2,), ((0b0111, 0b1000),) + K4.factors[1:])
    msgs = verify_factorization(bad)
    assert any("size 3 outside levels" in m for m in msgs)
    assert any("size 1 outside levels" in m for m in msgs)


def test_not_a_subset_of_ground():
    bad = Factorization(4, (2,), ((0b10011, 0b1100),) + K4.factors[1:])
    msgs = verify_factorization(bad)
    assert "factor 0: set {1,2,5} is not a subset of the ground set" in msgs
    # set_text spells masks of 1..64; any other stays an integer
    for mask, spelled in ((1 << 63, "{64}"), (1 << 64, str(1 << 64)), (0, "0"), (-3, "-3")):
        msgs = verify_factorization(Factorization(4, (2,), ((mask, 0b1100),)))
        assert msgs[0] == f"factor 0: set {spelled} is not a subset of the ground set"


def test_wrong_factor_count():
    bad = Factorization(4, (2,), K4.factors[:2])
    msgs = verify_factorization(bad)
    assert any("2 factors present, expected 3" in m for m in msgs)


def test_violation_list_is_capped():
    # 30 empty factors: reporting stops after ~20 problems
    bad = Factorization(4, (2,), ((),) * 30)
    msgs = verify_factorization(bad)
    assert msgs[-1] == "... further checks skipped"
    assert len(msgs) <= 22


def test_large_instances_raise_limit():
    huge = Factorization(64, (32,), ())
    with pytest.raises(LimitExceeded):
        verify_factorization(huge)


def test_the_limit_admits_a_family_of_exactly_its_size(monkeypatch):
    """K4's family has 6 sets: a limit of 6 verifies it, a limit of 5 refuses it."""
    monkeypatch.setattr(verifier, "MAX_VERIFY_SETS", 6)
    assert verify_factorization(K4) == []
    monkeypatch.setattr(verifier, "MAX_VERIFY_SETS", 5)
    with pytest.raises(LimitExceeded, match="verification would track 6 sets"):
        verify_factorization(K4)


def test_the_empty_level_set_has_the_empty_factorization():
    assert verify_factorization(Factorization(5, (), ())) == []


def test_a_level_listed_twice_is_refused():
    """The 10 factors of level 3 on 6 elements, with the level listed twice:
    two copies of level 3 would need 2 * C(5, 2) = 20 factors, while
    2 * C(5, 4) = 10 is exactly the count the sets make."""
    fact = construct(6, LevelSet.of([3]))
    doubled = Factorization(6, (3, 3), fact.factors)
    assert verify_factorization(doubled) == ["10 factors present, expected 20"]


#: valid factorizations the mutation tests start from, built on first use
MUTATION_CASES = [
    lambda: K4,
    lambda: construct(6, LevelSet.full(2)),
    lambda: construct(8, LevelSet.full(4)),
    lambda: construct(7, LevelSet.full(7)),
    lambda: construct(12, levels=LevelSet.of([2, 4])),
]


@cache
def _valid(case: int) -> Factorization:
    return MUTATION_CASES[case]()


def _replace(fact: Factorization, changed: dict[int, tuple[int, ...]]) -> Factorization:
    factors = tuple(changed.get(i, f) for i, f in enumerate(fact.factors))
    return Factorization(fact.n, fact.levels, factors)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_removing_a_set_is_reported(data):
    fact = _valid(data.draw(st.integers(0, len(MUTATION_CASES) - 1)))
    assert verify_factorization(fact) == []
    i = data.draw(st.integers(0, len(fact.factors) - 1))
    factor = fact.factors[i]
    j = data.draw(st.integers(0, len(factor) - 1))
    assert verify_factorization(_replace(fact, {i: factor[:j] + factor[j + 1:]}))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_swapping_sets_between_factors_is_reported(data):
    fact = _valid(data.draw(st.integers(0, len(MUTATION_CASES) - 1)))
    i, j = data.draw(st.lists(st.integers(0, len(fact.factors) - 1), min_size=2, max_size=2,
                              unique=True))
    a = data.draw(st.integers(0, len(fact.factors[i]) - 1))
    b = data.draw(st.integers(0, len(fact.factors[j]) - 1))
    fi, fj = list(fact.factors[i]), list(fact.factors[j])
    fi[a], fj[b] = fj[b], fi[a]
    assert verify_factorization(_replace(fact, {i: tuple(fi), j: tuple(fj)}))


MUTATIONS = ("drop", "duplicate", "move", "swap", "empty", "beyond", "negative", "size", "level",
             "copy", "repeat", "zero")


def _mutated(data, fact: Factorization) -> Factorization:
    """fact with one fault of a kind the data draws."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    n, levels = fact.n, fact.levels
    factors = [list(f) for f in fact.factors]
    i = data.draw(st.integers(0, len(factors) - 1))
    j = data.draw(st.integers(0, len(factors[i]) - 1))
    k = data.draw(st.integers(0, len(factors) - 1))
    other = data.draw(st.integers(0, len(factors[k]) - 1))
    mask = factors[i][j]
    if kind == "drop":
        del factors[i][j]
    elif kind == "duplicate":
        factors[i].append(factors[k][other])
    elif kind == "move":  # an element of one set goes to another set, or to a new set
        # a set that an earlier mutation emptied or negated gives element 1
        bit = 1 << data.draw(st.sampled_from(elements_of(mask))) - 1 if mask > 0 else 1
        factors[i][j] ^= bit
        if (k, other) == (i, j):
            factors[i].append(bit)
        else:
            factors[k][other] |= bit
    elif kind == "swap":
        factors[i][j], factors[k][other] = factors[k][other], mask
    elif kind == "empty":
        factors[i] = []
    elif kind == "beyond":
        factors[i][j] |= 1 << data.draw(st.integers(n, n + 70))
    elif kind == "negative":
        factors[i][j] = -mask
    elif kind == "size":  # split a set in two, or merge it with the next one
        low = mask & -mask
        if mask != low:
            factors[i][j:j + 1] = [low, mask ^ low]
        elif j + 1 < len(factors[i]):
            factors[i][j:j + 2] = [mask | factors[i][j + 1]]
        else:
            factors[i].append(mask)
    elif kind == "level":
        levels = levels + (data.draw(st.integers(n + 1, n + 3)),)
    # each fault below keeps every factor a partition with the right sizes
    elif kind == "copy":  # the sets of one factor twice, those of another not at all
        factors[i] = list(factors[k])
    elif kind == "repeat":  # a level listed twice
        levels = levels + (levels[j % len(levels)],)
    else:  # level 0 and the empty set in a factor
        levels = (0,) + levels
        factors[i].append(0)
    return Factorization(n, levels, tuple(map(tuple, factors)))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_verifier_says_what_the_fault_naming_loop_says(data):
    """The passes that accept a genuine factorization let no fault through:
    on a mutated one, verify_factorization returns the loop's list, empty
    exactly when the loop finds nothing."""
    fact = _valid(data.draw(st.integers(0, len(MUTATION_CASES) - 1)))
    assert verify_factorization(fact) == _violations(fact) == []
    for _ in range(data.draw(st.integers(1, 2))):
        fact = _mutated(data, fact)
        if not all(fact.factors):
            break  # an emptied factor offers no set to mutate
    assert verify_factorization(fact) == _violations(fact)
