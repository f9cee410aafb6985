"""Tests for the flow-based evolution engine."""

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import LevelSet, binomial, factor_count
from hyperfactor.constructors import Realization, construct_div
from hyperfactor.decide import plan
from hyperfactor.errors import InvariantViolation, LimitExceeded, NotFactorableError
from hyperfactor.flow import (
    EvolutionState,
    StepNetwork,
    _check_occurrence_counts,
    _MaxFlow,
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
    # three identical partitions: one class of multiplicity 3
    assert state.classes == [(((0, 2), (0, 2)), 3)]


def test_init_state_rejects_unbalanced():
    with pytest.raises(ValueError):
        init_state(4, LevelSet.of([2]), {(0, 2): 2})
    with pytest.raises(ValueError):
        init_state(6, LevelSet.full(2), {(2, 2): 3, (0, 3): 4})


def test_step_network_shape():
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    net = build_step_network(state)
    assert net.m == 3
    # the three perfect matchings start out identical: one class of 3
    assert net.class_sizes == [3]
    assert net.occ_keys == [(0, 2)]
    assert net.occ_caps == [3]  # C(3, 1) empty parts may receive element 1
    assert net.class_arcs == [[0]]
    value, flows, sink_flows = max_flow_integral(net)
    assert value == 3
    assert flows == [[3]]
    assert sink_flows == [3]


def test_step_network_leaves_out_complete_parts():
    state = init_state(4, LevelSet.of([1, 3]), {(1, 0, 1): 4})
    for _ in range(3):
        state = evolve_step(state)
    net = build_step_network(state)
    complete = {
        part for parts, _ in state.classes for part in parts if part[0].bit_count() == part[1]
    }
    assert complete
    assert not complete & set(net.occ_keys)
    assert all(j > mask.bit_count() for mask, j in net.occ_keys)


def test_class_nodes_of_a_full_range_evolution():
    """(12, {1..3}) has 67 partitions per step, 804 partition nodes in all;
    counting identical partitions together leaves 436 class nodes."""
    records = []
    run(12, LevelSet.full(3), {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41}, trace=records.append)
    assert sum(r.flow_value for r in records) == 804
    assert sum(r.class_nodes for r in records) == 436


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
    # split one partition off its class and change one part's potential:
    # the occurrence audit must catch it
    (parts, mult), *rest = state.classes
    (mask, j), *others = parts
    state.classes = [(parts, mult - 1), (((mask, j + 1), *others), 1), *rest]
    with pytest.raises(InvariantViolation):
        evolve_step(state)


def test_evolve_step_rejects_duplicated_partition():
    # partitions only diverge after two insertions; duplicating one then
    # skews the occurrence census
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    state = evolve_step(evolve_step(state))
    # move one partition's worth of multiplicity from one class to another
    together = next(c for c, (parts, _) in enumerate(state.classes) if (0b11, 2) in parts)
    apart = next(c for c, (parts, _) in enumerate(state.classes) if (0b01, 2) in parts)
    classes = list(state.classes)
    classes[together] = (classes[together][0], classes[together][1] + 1)
    classes[apart] = (classes[apart][0], classes[apart][1] - 1)
    state.classes = classes
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


def _first_census_error(state):
    """The message of the first wrong (mask, potential) pair in sorted order, or None."""
    from collections import Counter

    remaining = state.n - state.ell
    occ = Counter()
    for parts, mult in state.classes:
        for part in parts:
            occ[part] += mult
    want = {
        (mask, j): binomial(remaining, j - mask.bit_count())
        for mask in range(1 << state.ell)
        for j in state.levels
        if 0 <= j - mask.bit_count() <= remaining
    }
    for mask, j in sorted(set(occ) | set(want)):
        if occ[(mask, j)] != want.get((mask, j), 0):
            return (
                f"step {state.ell}: occurrence ({mask:#x}, potential {j}) "
                f"appears {occ[(mask, j)]} times, expected {want.get((mask, j), 0)}"
            )
    return None


def test_occurrence_census_mid_evolution():
    """Independent recount of the balanced-occurrence invariant each step."""
    state = init_state(6, LevelSet.full(2), construct_div(6, 2))
    for _ in range(6):
        state = evolve_step(state)
        assert _first_census_error(state) is None
        assert state.last_step.pairs_checked == sum(
            1
            for mask in range(1 << state.ell)
            for j in state.levels
            if 0 <= j - mask.bit_count() <= 6 - state.ell
        )


def test_census_names_the_first_wrong_pair():
    state = init_state(6, LevelSet.full(2), construct_div(6, 2))
    for _ in range(3):
        state = evolve_step(state)
    # {1, 3} with potential 2 lies in exactly C(3, 0) = 1 partition; split
    # it off its class without that part
    c = next(c for c, (parts, _) in enumerate(state.classes) if (0b101, 2) in parts)
    parts, mult = state.classes[c]
    assert mult == 1
    state.classes[c] = (tuple(part for part in parts if part != (0b101, 2)), 1)
    with pytest.raises(InvariantViolation) as exc:
        _check_occurrence_counts(state)
    assert str(exc.value) == "step 3: occurrence (0x5, potential 2) appears 0 times, expected 1"


def test_census_errors_match_a_full_recount():
    """Remove, retarget, replace or add one part of one partition after step 3
    or 4: the audit names the same first pair as a recount over all masks does."""
    state = init_state(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10})
    bases = []
    for _ in range(4):
        state = evolve_step(state)
        bases.append(state)

    def tampered(base):
        for c, (parts, mult) in enumerate(base.classes):
            for a, (mask, j) in enumerate(parts):
                # the two replacements keep the number of distinct pairs when
                # they take the place of a pair that occurs once, and occur
                # as often as a valid pair of their size would: only the
                # element 6 beyond ell, or the potential 4 outside the
                # levels, gives them away
                for changed in (
                    parts[:a] + parts[a + 1:],
                    parts[:a] + ((mask, 5 - j),) + parts[a + 1:],
                    parts[:a] + ((mask | 1 << 5, mask.bit_count() + 1),) + parts[a + 1:],
                    parts[:a] + ((0b1, 4),) + parts[a + 1:],
                    parts + ((mask | 1 << 5, j),),
                ):
                    # one partition of the class is tampered, the rest stay
                    split = [(parts, mult - 1)] if mult > 1 else []
                    classes = base.classes[:c] + split + [(changed, 1)] + base.classes[c + 1:]
                    yield EvolutionState(base.n, base.levels, base.ell, classes)

    checked = 0
    for state in chain(tampered(bases[2]), tampered(bases[3])):
        expected = _first_census_error(state)
        if expected is None:
            _check_occurrence_counts(state)
            continue
        with pytest.raises(InvariantViolation) as exc:
            _check_occurrence_counts(state)
        assert str(exc.value) == expected
        checked += 1
    assert checked > 100


def _replace_a_complete_pair(state, new_part):
    """The state with one complete part of size 2, a pair that occurs once,
    replaced by new_part in its partition."""
    for c, (parts, mult) in enumerate(state.classes):
        for a, (mask, j) in enumerate(parts):
            if j == mask.bit_count() == 2:
                assert mult == 1
                classes = list(state.classes)
                classes[c] = (parts[:a] + (new_part,) + parts[a + 1:], 1)
                return EvolutionState(state.n, state.levels, state.ell, classes)
    raise AssertionError("no complete pair of size 2")


@pytest.mark.parametrize(
    "new_part",
    [(0b111, 1), (0b111, 3), (1 << 5, 1), (0, 2)],
    ids=[
        "set-larger-than-potential-plus-one",
        "potential-outside-levels",
        "mask-beyond-ell",
        "potential-beyond-the-remaining-elements",
    ],
)
def test_census_audit_names_a_pair_outside_the_binomial_row(new_part):
    """After step 5 of (6, {1, 2}) every pair occurs once.  Swap a complete
    pair for a bad one: the census keeps its number of distinct pairs, and
    j - |S| is -2, 0, 0 or 2 against the row C(1, 0..1), so only the
    difference range, the level, the mask or the range again tells it from a
    good pair.  The audit raises InvariantViolation naming the first wrong
    pair, never IndexError."""
    state = init_state(6, LevelSet.full(2), construct_div(6, 2))
    for _ in range(5):
        state = evolve_step(state)
    bad = _replace_a_complete_pair(state, new_part)
    distinct = {part for parts, _ in bad.classes for part in parts}
    assert len(distinct) == state.last_step.pairs_checked  # the one-pass check runs
    expected = _first_census_error(bad)
    assert expected is not None
    with pytest.raises(InvariantViolation) as exc:
        _check_occurrence_counts(bad)
    assert str(exc.value) == expected


def _reference_max_flow_integral(net):
    """The network build and full Dinic run the pour replaced: every edge
    added one by one, every phase run by _MaxFlow.max_flow."""
    sizes = net.class_sizes
    n_classes, n_occ = len(sizes), len(net.occ_keys)
    source, sink = 0, 1 + n_classes + n_occ
    g = _MaxFlow([[] for _ in range(sink + 1)], [], [])

    def add_edge(u, v, cap):
        e = len(g.to)
        g.to += (v, u)
        g.cap += (cap, 0)
        g.adj[u].append(e)
        g.adj[v].append(e + 1)
        return e

    for c, size in enumerate(sizes):
        add_edge(source, 1 + c, size)
    arc_edges = [
        [add_edge(1 + c, 1 + n_classes + o, sizes[c]) for o in arcs]
        for c, arcs in enumerate(net.class_arcs)
    ]
    sink_edges = [add_edge(1 + n_classes + o, sink, net.occ_caps[o]) for o in range(n_occ)]
    value = g.max_flow(source, sink)
    flows = [[g.cap[e ^ 1] for e in row] for row in arc_edges]
    return value, flows, [g.cap[e ^ 1] for e in sink_edges]


@st.composite
def _networks(draw, kind):
    """Class networks of a few classes and occurrences, arcs sorted as
    build_step_network sorts them.  kind "zero-sinks" closes some sink arcs;
    kind "short" adds a class so the partitions outnumber the sink room."""
    n_occ = draw(st.integers(1, 7))
    n_classes = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n_classes, max_size=n_classes))
    arcs = st.sets(st.integers(0, n_occ - 1), min_size=1).map(sorted)
    class_arcs = draw(st.lists(arcs, min_size=n_classes, max_size=n_classes))
    caps = draw(st.lists(st.integers(0, 6), min_size=n_occ, max_size=n_occ))
    if kind == "zero-sinks":
        closed = draw(st.sets(st.integers(0, n_occ - 1), min_size=1))
        caps = [0 if o in closed else cap for o, cap in enumerate(caps)]
    if kind == "short" and sum(sizes) <= sum(caps):
        sizes.append(sum(caps) - sum(sizes) + draw(st.integers(1, 3)))
        class_arcs.append(draw(arcs))
    keys = [(o, 1) for o in range(n_occ)]
    return StepNetwork(sum(sizes), keys, caps, sizes, class_arcs)


@pytest.mark.parametrize("kind", ["random", "zero-sinks", "short"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pour_matches_the_full_dinic_run(kind, data):
    net = data.draw(_networks(kind))
    result = max_flow_integral(net)
    assert result == _reference_max_flow_integral(net)
    if kind == "short":
        assert result[0] < net.m


def test_a_real_run_takes_both_paths(monkeypatch):
    """construct(12, 3)'s flow block: some steps are routed by the pour
    alone, the others also run Dinic on the residual network, and every step
    routes the reference's flows."""
    residual_runs = []
    max_flow = _MaxFlow.max_flow

    def counted(self, s, t):
        residual_runs.append(t)
        return max_flow(self, s, t)

    (block,) = [b for b in plan(12, LevelSet.full(3)) if b.realization == Realization.FLOW]
    state = init_state(block.n, block.levels, block.solution)
    pour_only = 0
    for _ in range(block.n):
        net = build_step_network(state)
        reference = _reference_max_flow_integral(net)
        with monkeypatch.context() as patch:
            patch.setattr(_MaxFlow, "max_flow", counted)
            before = len(residual_runs)
            assert max_flow_integral(net) == reference
            pour_only += len(residual_runs) == before
        state = evolve_step(state)
    assert 0 < pour_only < block.n
    assert len(residual_runs) == block.n - pour_only


@pytest.mark.parametrize(
    "n, levels", [(12, LevelSet.full(3)), (11, LevelSet.full(3)), (12, LevelSet.of([2, 4]))]
)
def test_max_flow_matches_networkx(n, levels):
    """The class networks behind construct(n, levels), solved again by
    networkx: both reach the partition count and saturate every sink arc."""
    import networkx as nx  # a test-only oracle; the other flow tests run without it

    blocks = [b for b in plan(n, levels) if b.realization in (Realization.FLOW, Realization.LIFT)]
    assert blocks
    for block in blocks:
        state = init_state(block.n, block.levels, block.solution)
        for _ in range(block.n):
            net = build_step_network(state)
            graph = nx.DiGraph()
            for c, (size, arcs) in enumerate(zip(net.class_sizes, net.class_arcs)):
                graph.add_edge("s", ("c", c), capacity=size)
                for o in arcs:
                    graph.add_edge(("c", c), ("o", o), capacity=size)
            for o, cap in enumerate(net.occ_caps):
                graph.add_edge(("o", o), "t", capacity=cap)
            nx_value, nx_flow = nx.maximum_flow(graph, "s", "t")
            value, flows, sink_flows = max_flow_integral(net)
            assert value == nx_value == net.m == factor_count(block.n, block.levels)
            assert sink_flows == net.occ_caps
            assert [nx_flow[("o", o)]["t"] for o in range(len(net.occ_caps))] == net.occ_caps
            assert [sum(row) for row in flows] == net.class_sizes
            state = evolve_step(state)
            # the class state relies on: no two classes share parts, and the
            # multiplicities add up to the partition count
            assert len({parts for parts, _ in state.classes}) == len(state.classes)
            assert sum(mult for _, mult in state.classes) == factor_count(block.n, block.levels)


def _flow_blocks_of_full_ranges(max_n):
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            try:
                blocks = plan(n, LevelSet.full(k))
            except NotFactorableError:
                continue
            for block in blocks:
                if block.realization in (Realization.FLOW, Realization.LIFT):
                    yield block


def test_every_flow_block_up_to_13_verifies():
    blocks = list(_flow_blocks_of_full_ranges(13))
    assert len(blocks) > 20
    for block in blocks:
        fact = run(block.n, block.levels, block.solution)
        assert len(fact.factors) == factor_count(block.n, block.levels)
        assert verify_factorization(fact) == []
