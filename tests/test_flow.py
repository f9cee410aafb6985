"""Tests for the flow-based evolution engine."""

import pytest

from hyperfactor.combinatorics import LevelSet, binomial, factor_count
from hyperfactor.constructors import Realization, construct_div
from hyperfactor.decide import plan
from hyperfactor.errors import InvariantViolation, LimitExceeded
from hyperfactor.flow import (
    build_step_network,
    evolve_step,
    init_state,
    max_flow_integral,
    run,
)
from hyperfactor.verifier import verify_factorization


def test_init_state_perfect_matchings():
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    assert state.ell == 0
    assert len(state.partitions) == 3
    for p in state.partitions:
        assert p.parts == [(0, 2), (0, 2)]


def test_init_state_rejects_unbalanced():
    with pytest.raises(ValueError):
        init_state(4, LevelSet.of([2]), {(0, 2): 2})
    with pytest.raises(ValueError):
        init_state(6, LevelSet.full(2), {(2, 2): 3, (0, 3): 4})


def test_step_network_shape():
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    net = build_step_network(state)
    assert net.m == 3
    assert net.occ_keys == [(0, 2)]
    assert net.occ_caps == [3]  # C(3, 1) empty parts may receive element 1
    assert net.partition_arcs == [[0], [0], [0]]
    value, flows, sink_flows = max_flow_integral(net)
    assert value == 3
    assert flows == [[1], [1], [1]]
    assert sink_flows == [3]


def test_run_k4_unique_factorization():
    """K_4 has exactly one perfect-matching decomposition; the engine must hit it."""
    fact = run(4, LevelSet.of([2]), {(0, 2): 3})
    assert fact.n == 4 and fact.levels == (2,)
    found = {frozenset(f) for f in fact.factors}
    assert found == {
        frozenset({0b0011, 0b1100}),
        frozenset({0b0101, 0b1010}),
        frozenset({0b1001, 0b0110}),
    }


def test_run_trace_and_verify():
    records = []
    fact = run(6, LevelSet.full(2), construct_div(6, 2), trace=records.append)
    assert len(records) == 6
    assert [r.ell for r in records] == list(range(6))
    assert all(r.flow_value == 6 for r in records)
    assert len(fact.factors) == 6
    assert verify_factorization(fact) == []


def test_run_full_range_three():
    fact = run(12, LevelSet.full(3), {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41})
    assert len(fact.factors) == 67
    assert sum(len(f) for f in fact.factors) == 298
    assert verify_factorization(fact) == []
    # level census
    by_size = {}
    for f in fact.factors:
        for mask in f:
            size = mask.bit_count()
            by_size[size] = by_size.get(size, 0) + 1
    assert by_size == {1: 12, 2: 66, 3: 220}


def test_evolve_step_rejects_tampered_state():
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    state = evolve_step(state)
    # swap one part's potential: the occurrence audit must catch it
    victim = state.partitions[0]
    mask, j = victim.parts[0]
    victim.parts[0] = (mask, j + 1)
    with pytest.raises(InvariantViolation):
        evolve_step(state)


def test_evolve_step_rejects_duplicated_partition():
    # partitions only diverge after two insertions; duplicating one then
    # skews the occurrence census
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    state = evolve_step(evolve_step(state))
    together = next(i for i, p in enumerate(state.partitions) if (0b11, 2) in p.parts)
    apart = next(i for i, p in enumerate(state.partitions) if (0b01, 2) in p.parts)
    state.partitions[apart] = state.partitions[together]
    with pytest.raises(InvariantViolation):
        evolve_step(state)


def test_run_ground_size_limit():
    with pytest.raises(LimitExceeded):
        run(19, LevelSet.of([1]), {(19,): 1})
    with pytest.raises(LimitExceeded):
        run(5, LevelSet.of([1]), {(5,): 1}, max_ground_size=4)
    # the override direction also works
    fact = run(5, LevelSet.of([1]), {(5,): 1}, max_ground_size=5)
    assert len(fact.factors) == 1 and len(fact.factors[0]) == 5


def test_occurrence_census_mid_evolution():
    """Independent recount of the balanced-occurrence invariant each step."""
    from collections import Counter

    state = init_state(6, LevelSet.full(2), construct_div(6, 2))
    for _ in range(6):
        state = evolve_step(state)
        occ = Counter(part for p in state.partitions for part in p.parts)
        seen = 0
        for mask in range(1 << state.ell):
            size = mask.bit_count()
            for j in state.levels:
                if j >= size and j - size <= 6 - state.ell:
                    assert occ[(mask, j)] == binomial(6 - state.ell, j - size)
                    seen += occ[(mask, j)]
        assert seen == sum(occ.values())


@pytest.mark.parametrize(
    "n, levels", [(12, LevelSet.full(3)), (11, LevelSet.full(3)), (12, LevelSet.of([2, 4]))]
)
def test_max_flow_matches_networkx(n, levels):
    """The step networks behind construct(n, levels), solved again by networkx:
    both reach the partition count and saturate every sink arc."""
    import networkx as nx  # a test-only oracle; the other flow tests run without it

    blocks = [b for b in plan(n, levels) if b.realization in (Realization.FLOW, Realization.LIFT)]
    assert blocks
    for block in blocks:
        state = init_state(block.n, block.levels, block.solution)
        for _ in range(block.n):
            net = build_step_network(state)
            graph = nx.DiGraph()
            for i, arcs in enumerate(net.partition_arcs):
                graph.add_edge("s", ("p", i), capacity=1)
                for o in arcs:
                    graph.add_edge(("p", i), ("o", o))  # no capacity: unbounded
            for o, cap in enumerate(net.occ_caps):
                graph.add_edge(("o", o), "t", capacity=cap)
            nx_value, nx_flow = nx.maximum_flow(graph, "s", "t")
            value, _flows, sink_flows = max_flow_integral(net)
            assert value == nx_value == net.m == factor_count(block.n, block.levels)
            assert sink_flows == net.occ_caps
            assert [nx_flow[("o", o)]["t"] for o in range(len(net.occ_caps))] == net.occ_caps
            state = evolve_step(state)
