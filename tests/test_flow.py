"""Tests for the flow-based evolution engine."""

import gc
import hashlib
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings, strategies as st

import hyperfactor.flow as flow
from hyperfactor.combinatorics import LevelSet, binomial
from hyperfactor.constructors import (
    Realization,
    certificate_with_branch,
    construct_div,
    construct_general_L_div,
)
from hyperfactor.decide import Status, construct, decide, plan
from hyperfactor.errors import InvariantViolation, NotFactorableError
from hyperfactor.fileformat import write_factorization
from hyperfactor.flow import (
    EvolutionState,
    StepNetwork,
    _check_occurrence_counts,
    build_step_network,
    evolve_step,
    init_state,
    max_flow_integral,
    run,
)
from hyperfactor.linear_system import build_system, lp_feasible, solution_residual
from hyperfactor.verifier import verify_factorization

from test_combinatorics import factor_count


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
    assert sum(net.class_sizes) == 3
    # the three perfect matchings start out identical: one class of 3
    assert net.class_sizes == [3]
    assert net.occ_keys == [(0, 2)]
    assert net.occ_caps == [3]  # C(3, 1) empty parts may receive element 1
    assert net.class_arcs == [[0]]
    value, flows = max_flow_integral(net)
    assert value == 3
    assert flows == [[3]]


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


def _with_classes(state, classes):
    """A fresh state with the given classes: a state counts its census on
    first use, so a tampered state is a new one, never an edited one."""
    return EvolutionState(state.n, state.levels, state.ell, classes)


def test_census_counts_each_part_once_per_partition():
    state = init_state(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10})
    assert state.census == {(0, 2): 15, (0, 3): 20}
    state = evolve_step(state)
    assert state.census == {(0, 2): 10, (0b1, 2): 5, (0, 3): 10, (0b1, 3): 10}
    # a hand-built state counts its own
    assert _with_classes(state, [(((0, 2), (0, 2)), 2)]).census == {(0, 2): 4}


def test_evolve_step_rejects_tampered_state():
    state = init_state(4, LevelSet.of([2]), {(0, 2): 3})
    state = evolve_step(state)
    # split one partition off its class and change one part's potential:
    # the occurrence audit must catch it
    (parts, mult), *rest = state.classes
    (mask, j), *others = parts
    tampered = _with_classes(state, [(parts, mult - 1), (((mask, j + 1), *others), 1), *rest])
    with pytest.raises(InvariantViolation):
        evolve_step(tampered)


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
    with pytest.raises(InvariantViolation):
        evolve_step(_with_classes(state, classes))


def _refused_flow(monkeypatch, tamper):
    """The audit's message when step 1 of (6, {2, 3}) grows its state by the
    max flow that tamper(value, flows) returns.  There class 0, of 10
    partitions, routes 6 units into (0x0, 3) and 4 into (0x1, 3)."""
    state = evolve_step(init_state(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10}))
    net = build_step_network(state)
    assert [net.occ_keys[o] for o in net.class_arcs[0]] == [(0, 3), (1, 3)]
    max_flow = flow.max_flow_integral
    monkeypatch.setattr(flow, "max_flow_integral", lambda net: tamper(*max_flow(net)))
    with pytest.raises(InvariantViolation) as exc:
        evolve_step(state)
    return str(exc.value)


def test_the_audit_refuses_a_unit_moved_within_a_class(monkeypatch):
    """A flow of full value whose class 0 sends one unit to its other slot
    leaves both sink arcs of the class wrong: (0x0, 3) is kept in the 5
    partitions where (0x1, 3) grew, one more than the 4 that must keep it."""

    def moved_a_unit(value, flows):
        assert flows[0] == [6, 4]
        flows[0] = [5, 5]
        return value, flows

    message = _refused_flow(monkeypatch, moved_a_unit)
    assert message == "step 2: occurrence (0x0, potential 3) appears 5 times, expected 4"


def test_the_audit_refuses_a_flow_one_unit_short(monkeypatch):
    """A flow of value M - 1 that drops one of class 0's units into (0x0, 3)
    leaves that partition out: (0x1, 3), kept where (0x0, 3) grew, appears 5
    times, one fewer than its 6."""

    def dropped_a_unit(value, flows):
        flows[0][0] -= 1
        return value - 1, flows

    message = _refused_flow(monkeypatch, dropped_a_unit)
    assert message == "step 2: occurrence (0x1, potential 3) appears 5 times, expected 6"


def _last_state(n, levels, solution):
    """The state at ell = n - 1, where the flow is forced."""
    state = init_state(n, levels, solution)
    for _ in range(n - 1):
        state = evolve_step(state)
    return state


def _tampered_last_states():
    """At ell = 5 of (6, {2, 3}) each of the 15 classes is one partition with
    one open part, short of one element.  Three tampers: class 0 loses its
    open part; class 0 takes class 1's open part, which leaves the census as
    it was; class 0 counts twice."""
    state = _last_state(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10})
    (parts0, mult0), (parts1, mult1), *rest = state.classes
    assert (parts0, mult0, parts1, mult1) == (((0b1010, 3), (0b10101, 3)), 1,
                                              ((0b101, 3), (0b11010, 3)), 1)
    moved = ((0b101, 3), (0b1010, 3), (0b10101, 3)), ((0b11010, 3),)
    return {
        "no-open-part": [(parts0[1:], 1), (parts1, 1), *rest],
        "two-open-parts": [(moved[0], 1), (moved[1], 1), *rest],
        "multiplicity-two": [(parts0, 2), (parts1, 1), *rest],
    }, state


@pytest.mark.parametrize(
    "tamper, message",
    [
        ("no-open-part", "step 6: occurrence (0x15, potential 3) appears 0 times, expected 1"),
        ("two-open-parts", "step 6: occurrence (0xa, potential 3) appears 1 times, expected 0"),
        ("multiplicity-two", "step 6: occurrence (0x15, potential 3) appears 2 times, expected 1"),
    ],
    ids=["no-open-part", "two-open-parts", "multiplicity-two"],
)
def test_the_forced_last_step_refuses_an_unbalanced_state(tamper, message):
    """The last step grows each class's one open part without a network,
    so only the audit stands between a tampered state and the factors: a
    class left with no open part is dropped, one with two keeps the second
    open, and one of multiplicity 2 doubles its parts."""
    tampered, state = _tampered_last_states()
    with pytest.raises(InvariantViolation) as exc:
        evolve_step(_with_classes(state, tampered[tamper]))
    assert str(exc.value) == message


@pytest.fixture
def collector():
    """Restores the cyclic collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(collector, enabled):
    """run pauses the cyclic collector for the evolution, then turns it back
    on only if it was on; its thresholds and frozen objects stay as they were."""
    (gc.enable if enabled else gc.disable)()
    thresholds, frozen = gc.get_threshold(), gc.get_freeze_count()
    during = []
    run(12, LevelSet.full(3), {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41},
        trace=lambda record: during.append(gc.isenabled()))
    assert during == [False] * 12
    assert gc.isenabled() is enabled
    assert (gc.get_threshold(), gc.get_freeze_count()) == (thresholds, frozen)


def test_a_refused_step_leaves_the_collector_on(collector, monkeypatch):
    """The tamper of test_the_audit_refuses_a_unit_moved_within_a_class,
    driven through run: the audit's raise at step 2 still turns the
    collector back on."""
    max_flow = flow.max_flow_integral
    steps = []

    def moved_a_unit_at_step_one(net):
        value, flows = max_flow(net)
        steps.append(gc.isenabled())
        if len(steps) == 2:
            assert flows[0] == [6, 4]
            flows[0] = [5, 5]
        return value, flows

    monkeypatch.setattr(flow, "max_flow_integral", moved_a_unit_at_step_one)
    gc.enable()
    with pytest.raises(InvariantViolation) as exc:
        run(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10})
    assert str(exc.value) == "step 2: occurrence (0x0, potential 3) appears 5 times, expected 4"
    assert steps == [False, False]
    assert gc.isenabled()


def test_the_evolution_leaves_the_collector_nothing_to_free(collector):
    """Why run may pause the collector: the flow blocks of (15, {1, 3, 5}),
    whose augmenting paths are the longest, and of construct(12, 3), run
    with the collector off, leave no unreachable object behind."""
    blocks = [
        b for levels in ((15, LevelSet.of([1, 3, 5])), (12, LevelSet.full(3)))
        for b in plan(*levels) if b.realization == Realization.FLOW
    ]
    assert len(blocks) == 2
    gc.collect()
    gc.disable()
    for block in blocks:
        run(block.n, block.levels, block.solution)
    assert not gc.isenabled()
    assert gc.collect() == 0


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
    classes = list(state.classes)
    classes[c] = (tuple(part for part in parts if part != (0b101, 2)), 1)
    with pytest.raises(InvariantViolation) as exc:
        _check_occurrence_counts(_with_classes(state, classes))
    assert str(exc.value) == "step 3: occurrence (0x5, potential 2) appears 0 times, expected 1"


def _tampered_states():
    """Every state after step 3 or 4 of (6, {2, 3}) with one part of one
    partition removed, retargeted, replaced or added."""
    state = init_state(6, LevelSet.of([2, 3]), {(0, 3, 0): 5, (0, 0, 2): 10})
    bases = []
    for _ in range(4):
        state = evolve_step(state)
        bases.append(state)
    for base in bases[2:]:
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


def test_census_errors_match_a_full_recount():
    """Remove, retarget, replace or add one part of one partition after step 3
    or 4: the audit names the same first pair as a recount over all masks does."""
    checked = 0
    for state in _tampered_states():
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


@pytest.mark.parametrize("first", ["absent-pair", "doubled-pair"])
def test_census_audit_at_step_thirty_reads_only_the_census(first):
    """At step 30 of (40, {2}) a full recount would list 2^30 masks.  Move
    one complete pair of one partition onto a pair another partition holds:
    the moved pair then occurs 0 times and the other 2, and the audit names
    the lower of the two within a second."""
    state = init_state(40, LevelSet.of([2]), {(0, 20): 39})
    for _ in range(30):
        state = evolve_step(state)
    complete = [sorted(p for p in parts if p[0].bit_count() == 2) for parts, _ in state.classes]
    (parts, mult), *rest = state.classes
    assert mult == 1 and all(complete)
    others = sorted(chain.from_iterable(complete[1:]))
    if first == "absent-pair":
        moved, onto = complete[0][0], others[-1]
        expected = f"step 30: occurrence ({moved[0]:#x}, potential 2) appears 0 times, expected 1"
        assert moved < onto
    else:
        moved, onto = complete[0][-1], others[0]
        expected = f"step 30: occurrence ({onto[0]:#x}, potential 2) appears 2 times, expected 1"
        assert onto < moved
    tampered = _with_classes(state, [(tuple(onto if p == moved else p for p in parts), 1), *rest])
    start = time.perf_counter()
    with pytest.raises(InvariantViolation) as exc:
        _check_occurrence_counts(tampered)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == expected


def test_census_audit_refuses_a_short_part_of_a_complete_state():
    """At ell = n the audit admits only complete parts, so a factor with a
    part short of its size never leaves run."""
    state = init_state(6, LevelSet.full(2), construct_div(6, 2))
    for _ in range(6):
        state = evolve_step(state)
    (parts, mult), *rest = state.classes
    a, (mask, j) = next((a, p) for a, p in enumerate(parts) if p[1] == 2)
    assert mult == 1 and mask.bit_count() == 2
    short = (mask & (mask - 1), j)
    tampered = _with_classes(state, [(parts[:a] + (short,) + parts[a + 1:], 1), *rest])
    expected = _first_census_error(tampered)
    assert expected is not None
    with pytest.raises(InvariantViolation) as exc:
        _check_occurrence_counts(tampered)
    assert str(exc.value) == expected


def _reference_max_flow(adj, to, cap, s, t):
    """Dinic with levels counted from the source on a network in edge-pair
    form (edge e runs to[e] with residual cap[e], e ^ 1 is its reverse), the
    reference that max_flow_integral's distances to the sink must match:
    every node as deep as the sink is dropped, and the walk still enters
    dead branches short of it."""
    n = len(adj)
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            if level[t] >= 0:
                break
            next_level = level[u] + 1
            for e in adj[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
        depth = level[t]
        if depth < 0:
            return total
        for v in queue:
            if level[v] == depth and v != t:
                level[v] = -1
        it = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                aug = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                total += aug
                cut = 0
                while cap[path[cut]]:
                    cut += 1
                del path[cut:]
                u = to[path[-1]] if path else s
                continue
            arcs = adj[u]
            i = it[u]
            while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == level[u] + 1):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
                continue
            if u == s:
                break
            level[u] = -1
            back = path.pop()
            u = to[back ^ 1]
            it[u] += 1


def _edge_pairs(n_nodes, edges):
    """adj, to and cap of a network with the given (u, v, capacity) edges,
    each added with its reverse edge of capacity 0."""
    adj = [[] for _ in range(n_nodes)]
    to, cap = [], []
    for u, v, c in edges:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0)
    return adj, to, cap


def _reference_max_flow_integral(net):
    """The network build and full Dinic run the pour replaced: every edge
    added one by one, every phase run by the forward-level reference."""
    sizes = net.class_sizes
    n_classes, n_occ = len(sizes), len(net.occ_keys)
    source, sink = 0, 1 + n_classes + n_occ
    edges = [(source, 1 + c, size) for c, size in enumerate(sizes)]
    arc_edges = []
    for c, arcs in enumerate(net.class_arcs):
        arc_edges.append([2 * (len(edges) + i) for i in range(len(arcs))])
        edges += [(1 + c, 1 + n_classes + o, sizes[c]) for o in arcs]
    edges += [(1 + n_classes + o, sink, net.occ_caps[o]) for o in range(n_occ)]
    adj, to, cap = _edge_pairs(sink + 1, edges)
    value = _reference_max_flow(adj, to, cap, source, sink)
    flows = [[cap[e ^ 1] for e in row] for row in arc_edges]
    return value, flows


@st.composite
def _networks(draw, kind):
    """Class networks, arcs sorted as build_step_network sorts them.  Kinds
    "random", "zero-sinks" and "short" have a few classes and occurrences;
    "zero-sinks" closes some sink arcs, "short" adds a class so the
    partitions outnumber the sink room.  Kind "late" has the shape of a late
    step: up to 30 classes, mostly of multiplicity 1, with 2 or 3 arcs each,
    and sink room that one way of routing every partition fills exactly."""
    if kind == "late":
        n_occ = draw(st.integers(3, 12))
        n_classes = draw(st.integers(1, 30))
        sizes = draw(
            st.lists(st.sampled_from([1, 1, 1, 1, 2, 3]), min_size=n_classes, max_size=n_classes)
        )
        arcs = st.sets(st.integers(0, n_occ - 1), min_size=2, max_size=3).map(sorted)
        class_arcs = draw(st.lists(arcs, min_size=n_classes, max_size=n_classes))
        caps = [0] * n_occ
        for size, row in zip(sizes, class_arcs):
            for _ in range(size):
                caps[draw(st.sampled_from(row))] += 1
    else:
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
    return StepNetwork(keys, caps, sizes, class_arcs)


@pytest.mark.parametrize("kind", ["random", "zero-sinks", "short", "late"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pour_matches_the_full_dinic_run(kind, data):
    net = data.draw(_networks(kind))
    result = max_flow_integral(net)
    assert result == _reference_max_flow_integral(net)
    if kind == "short":
        assert result[0] < sum(net.class_sizes)
    if kind == "late":
        assert result[0] == sum(net.class_sizes)


def _pour(net):
    """Each class, in order, fills its occurrences in arc order: the flows,
    the units left per class and the sink room left after Dinic's first
    phase."""
    room = list(net.occ_caps)
    flows, left_over = [], []
    for left, arcs in zip(net.class_sizes, net.class_arcs):
        row = []
        for o in arcs:
            f = min(left, room[o])
            room[o] -= f
            left -= f
            row.append(f)
        flows.append(row)
        left_over.append(left)
    return flows, left_over, room


_any_network = st.sampled_from(["random", "zero-sinks", "short", "late"]).flatmap(_networks)


@settings(max_examples=500, deadline=None)
@given(net=_any_network)
def test_sink_distances_route_the_forward_levels_flow(net):
    """Where the pour leaves units, the later phases label by distance to
    the sink and walk the pour's own rows, and still route the flows of
    Dinic with levels counted from the source on the full edge list."""
    assume(any(_pour(net)[1]))
    assert max_flow_integral(net) == _reference_max_flow_integral(net)


class _ReadRows(list):
    """Arc rows that record which classes' rows were looked up by index."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, c):
        self.read.add(c)
        return super().__getitem__(c)


def _classes_reaching_the_sink(net):
    """The classes with a residual path to the sink after the pour: an arc
    with room into an occurrence that reaches it, which it does with sink
    room or through the reverse of an arc holding flow from such a class."""
    flows, _, room = _pour(net)
    occ_reach = {o for o, r in enumerate(room) if r}
    class_reach = set()
    grown = True
    while grown:
        grown = False
        for c, (size, arcs, row) in enumerate(zip(net.class_sizes, net.class_arcs, flows)):
            if c not in class_reach and any(
                o in occ_reach and f < size for o, f in zip(arcs, row)
            ):
                class_reach.add(c)
                grown = True
            if c in class_reach:
                for o, f in zip(arcs, row):
                    if f and o not in occ_reach:
                        occ_reach.add(o)
                        grown = True
    return class_reach


@settings(max_examples=500, deadline=None)
@given(net=_any_network)
def test_max_flow_reads_no_node_that_cannot_reach_the_sink(net):
    """No augmenting path ever enters a class that cannot reach the sink, so
    the later phases look up no such class's arcs: not the labelling, not
    the walk.  The pour and the reverse-arc lists read every row once, in
    order, without a lookup."""
    reach = _classes_reaching_the_sink(net)
    rows = _ReadRows(net.class_arcs)
    expected = _reference_max_flow_integral(net)
    read_net = StepNetwork(net.occ_keys, net.occ_caps, net.class_sizes, rows)
    assert max_flow_integral(read_net) == expected
    assert rows.read <= reach


def test_the_walk_skips_a_dead_branch_at_the_source(monkeypatch):
    """Two fixed networks whose one augmenting path enters a class back
    through the slot that holds all of its units, so that class's arc there
    is full; the walk looks up no class arc's room and never takes it.

    First, multiplicity 1: class 1 has a unit left but only an arc into the
    full occurrence 0, which class 0 fills and has no other arc out of: a
    dead branch.  Class 3's unit reaches the sink through occurrence 1, back
    to class 2 and on to occurrence 2.  Second, multiplicity 2: the pour
    puts both units of class 0 into occurrence 0, and class 1's two units go
    through occurrence 0, back to class 0 and on to occurrence 1."""
    paths = []
    augment = flow._augment

    def seen(*args):
        path, via = args[-2:]
        paths.append((list(path), list(via)))
        return augment(*args)

    monkeypatch.setattr(flow, "_augment", seen)
    cases = [
        (
            StepNetwork([(o, 1) for o in range(3)], [1, 1, 1], [1, 1, 1, 1],
                        [[0], [0], [1, 2], [1]]),
            [0, 1, 0, 1],
            (3, [[1], [0], [0, 1], [1]]),
            ([3, 1, 2, 2], [-1, 0, 0, 1]),
            {2, 3},
        ),
        (
            StepNetwork([(0, 1), (1, 1)], [2, 2], [2, 2], [[0, 1], [0]]),
            [0, 2],
            (4, [[0, 2], [2]]),
            ([1, 0, 0, 1], [-1, 0, 0, 1]),
            {0, 1},
        ),
    ]
    for net, left_over, expected, path, read in cases:
        assert _pour(net)[1] == left_over
        rows = _ReadRows(net.class_arcs)
        read_net = StepNetwork(net.occ_keys, net.occ_caps, net.class_sizes, rows)
        paths.clear()
        result = max_flow_integral(read_net)
        assert result == expected
        assert result == _reference_max_flow_integral(net)
        assert paths == [path]
        assert rows.read == read


@settings(max_examples=500, deadline=None)
@given(net=_any_network)
def test_later_phases_read_no_flow_row_of_a_spent_one_arc_class(net):
    """A class with one arc and no units left after the pour is on no
    augmenting path, so the later phases, run on the pour's rows, never look
    up its flow row, and still route the reference's flows."""
    flows, left_over, room = _pour(net)
    assume(any(left_over))
    spent = {c for c, (arcs, left) in enumerate(zip(net.class_arcs, left_over))
             if len(arcs) == 1 and not left}
    poured = sum(net.class_sizes) - sum(left_over)
    rows = _ReadRows(flows)
    routed = flow._later_phases(net.class_sizes, net.class_arcs, rows, left_over, room)
    assert (poured + routed, list(rows)) == _reference_max_flow_integral(net)
    assert not rows.read & spent


def _reference_build_step_network(state):
    """The step network built as before the open parts were filtered once
    over the distinct parts: one set of open parts per class."""
    open_parts = [
        {(mask, j) for mask, j in parts if j > mask.bit_count()} for parts, _ in state.classes
    ]
    occ_keys = sorted(set().union(*open_parts))
    occ_index = {key: i for i, key in enumerate(occ_keys)}
    remaining = state.n - state.ell - 1
    occ_caps = [
        binomial(remaining, j - 1 - mask.bit_count())
        if 0 <= j - 1 - mask.bit_count() <= remaining
        else 0
        for mask, j in occ_keys
    ]
    class_arcs = [sorted(occ_index[part] for part in parts) for parts in open_parts]
    sizes = [mult for _, mult in state.classes]
    return StepNetwork(occ_keys, occ_caps, sizes, class_arcs)


def _with_arcs_sorted(net):
    arcs = [sorted(row) for row in net.class_arcs]
    return StepNetwork(net.occ_keys, net.occ_caps, net.class_sizes, arcs)


def test_step_network_matches_the_reference_build():
    """Every step of construct(12, 3)'s flow block gets the network of the
    per-class build; every tampered state of the census tests, whose parts
    may be out of order, gets it up to the order of each class's arcs, with
    no arc repeated."""
    (block,) = [b for b in plan(12, LevelSet.full(3)) if b.realization == Realization.FLOW]
    state = init_state(block.n, block.levels, block.solution)
    for _ in range(block.n):
        assert build_step_network(state) == _reference_build_step_network(state)
        state = evolve_step(state)
    tampered = list(_tampered_states())
    assert len(tampered) > 100
    for state in tampered:
        net = build_step_network(state)
        assert all(len(set(arcs)) == len(arcs) for arcs in net.class_arcs)
        assert _with_arcs_sorted(net) == _reference_build_step_network(state)


def _flow_block_states(n, levels):
    """Every state of the one flow block of plan(n, levels), from the
    initial state to the complete one."""
    (block,) = [b for b in plan(n, levels) if b.realization == Realization.FLOW]
    state = init_state(block.n, block.levels, block.solution)
    states = [state]
    for _ in range(block.n):
        state = evolve_step(state)
        states.append(state)
    return states


def test_evolution_keeps_each_class_s_parts_ascending():
    """The evolution keeps every class's parts in (mask, potential) order,
    so the network reads the arcs off in part order.  A hand-built state
    whose classes list their parts the other way round gets the same
    network up to the order of each class's arcs, and evolves to a state
    the audit passes."""
    states = _flow_block_states(15, LevelSet.of([1, 3, 5]))
    states += _flow_block_states(12, LevelSet.full(3))
    for state in states:
        for parts, _ in state.classes:
            assert list(parts) == sorted(parts)
    reversed_states = [
        _with_classes(state, [(parts[::-1], mult) for parts, mult in state.classes])
        for state in states
        if state.ell < state.n
    ]
    assert len(reversed_states) == 27
    # some class has two open parts, now in descending order
    assert any(
        len(arcs) > 1 and arcs != sorted(arcs)
        for state in reversed_states
        for arcs in build_step_network(state).class_arcs
    )
    for state in reversed_states:
        net = build_step_network(state)
        assert _with_arcs_sorted(net) == _reference_build_step_network(state)
        evolved = evolve_step(state)
        assert _check_occurrence_counts(evolved) == evolved.last_step.pairs_checked


def test_a_real_run_takes_both_paths(monkeypatch):
    """construct(12, 3)'s flow block: some steps are routed by the pour
    alone, the others also run Dinic's later phases on the pour's rows, and
    every step routes the reference's flows."""
    later_runs = []
    later_phases = flow._later_phases

    def counted(*rows):
        later_runs.append(len(rows[0]))
        return later_phases(*rows)

    (block,) = [b for b in plan(12, LevelSet.full(3)) if b.realization == Realization.FLOW]
    state = init_state(block.n, block.levels, block.solution)
    pour_only = 0
    for _ in range(block.n):
        net = build_step_network(state)
        reference = _reference_max_flow_integral(net)
        with monkeypatch.context() as patch:
            patch.setattr(flow, "_later_phases", counted)
            before = len(later_runs)
            assert max_flow_integral(net) == reference
            pour_only += len(later_runs) == before
        state = evolve_step(state)
    assert 0 < pour_only < block.n
    assert len(later_runs) == block.n - pour_only


def test_long_augmenting_paths_route_the_reference_flows(monkeypatch):
    """(15, {1, 3, 5}) is one flow block whose later phases walk augmenting
    paths of up to 571 arcs, zig-zagging through reverse arcs; every step
    routes the reference's flows."""
    longest = []
    augment = flow._augment

    def measured(*args):
        path = args[-2]
        longest.append(len(path) + 1)  # the arcs: one into each node, one to the sink
        return augment(*args)

    monkeypatch.setattr(flow, "_augment", measured)
    (block,) = plan(15, LevelSet.of([1, 3, 5]))
    assert block.realization == Realization.FLOW
    state = init_state(block.n, block.levels, block.solution)
    for _ in range(block.n):
        net = build_step_network(state)
        assert max_flow_integral(net) == _reference_max_flow_integral(net)
        state = evolve_step(state)
    assert max(longest) == 571


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
            value, flows = max_flow_integral(net)
            assert value == nx_value == sum(net.class_sizes) == factor_count(block.n, block.levels)
            sink_flows = [0] * len(net.occ_caps)
            for arcs, row in zip(net.class_arcs, flows):
                for o, f in zip(arcs, row):
                    sink_flows[o] += f
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


def test_a_zero_residual_makes_the_initial_state_balanced():
    """init_state runs no audit: its zero-residual check already makes each
    empty part of potential j occur C(n, j) times.  Every flow and lift
    block of the factorable ranges with n <= 16, and every pairing solution
    with n <= 16 and k <= 6, passes the audit at ell = 0 on its |L| pairs."""
    solved = [(block.n, block.levels, block.solution) for block in _flow_blocks_of_full_ranges(16)]
    ranges = len(solved)
    for n in range(1, 17):
        for k in range(1, min(n, 6) + 1):
            for bits in range(1 << (k - 1)):
                levels = LevelSet.of([i + 1 for i in range(k - 1) if bits >> i & 1] + [k])
                solution = construct_general_L_div(n, levels)
                if solution is not None:
                    solved.append((n, levels, solution))
    assert (ranges, len(solved) - ranges) == (92, 112)
    for n, levels, solution in solved:
        assert _check_occurrence_counts(init_state(n, levels, solution)) == len(levels)


def test_every_flow_block_up_to_13_verifies():
    blocks = list(_flow_blocks_of_full_ranges(13))
    assert len(blocks) > 20
    for block in blocks:
        fact = run(block.n, block.levels, block.solution)
        assert len(fact.factors) == factor_count(block.n, block.levels)
        assert verify_factorization(fact) == []


def _step_by_the_network(state):
    """The classes and StepRecord of a step routed by build_step_network and
    max_flow_integral, as evolve_step routes every step before the last."""
    net = build_step_network(state)
    value, flows = max_flow_integral(net)
    bit = 1 << state.ell
    classes = []
    for (parts, _), arcs, row in zip(state.classes, net.class_arcs, flows):
        for o, f in zip(arcs, row):
            if f:
                mask, j = net.occ_keys[o]
                i = parts.index((mask, j))
                classes.append((parts[:i] + parts[i + 1:] + ((mask | bit, j),), f))
    pairs = _check_occurrence_counts(EvolutionState(state.n, state.levels, state.ell + 1, classes))
    record = flow.StepRecord(state.ell, value, len(state.classes), len(net.occ_keys), pairs)
    return classes, record


def test_carried_open_keys_match_the_census(monkeypatch):
    """Every step of the flow and lift blocks of the factorable ranges with
    n <= 13 hands the next state its open keys, equal to the sorted open
    parts of its census.  The last step builds no network, and its classes
    and record are those the network and max flow give on the same state."""
    blocks = list(_flow_blocks_of_full_ranges(13))
    assert {1, 2} <= {block.n for block in blocks}
    assert any(block.realization == Realization.LIFT for block in blocks)
    networks = []  # n - ell of each network built
    build = flow.build_step_network
    monkeypatch.setattr(
        flow, "build_step_network", lambda state: networks.append(state.n - state.ell) or build(state)
    )
    steps = 0
    for block in blocks:
        state = init_state(block.n, block.levels, block.solution)
        for _ in range(block.n):
            if state.ell == state.n - 1:
                forced = _step_by_the_network(state)
            state = evolve_step(state)
            assert "open_keys" in vars(state)  # handed over, not read off the census
            assert state.open_keys == sorted(
                (mask, j) for mask, j in state.census if j > mask.bit_count()
            )
            steps += 1
        assert (state.classes, state.last_step) == forced
    assert len(networks) == steps - len(blocks) and 1 not in networks


def _pairing_sets():
    """(n, levels) for n in 12..16 and each divisor k >= 2 of n: every level
    set with top level k (lower levels as the bits of 0..2^(k-1)-1, ascending),
    but the full range and families of more than 5,000 sets, that no
    certificate refutes and the pairing pattern builds."""
    for n in range(12, 17):
        for k in (k for k in range(2, n + 1) if n % k == 0):
            for bits in range(1 << (k - 1)):
                levels = tuple(i + 1 for i in range(k - 1) if bits >> i & 1) + (k,)
                if levels == tuple(range(1, k + 1)):
                    continue
                if sum(binomial(n, j) for j in levels) > 5000:
                    continue
                L = LevelSet.of(levels)
                if certificate_with_branch(n, L) is not None:
                    continue
                if construct_general_L_div(n, L) is not None:
                    yield n, L


def test_pairing_set_factorizations_are_pinned():
    """Any change to the flows shows in the factorizations of the pairing
    sets; one digest over their files keeps them byte for byte."""
    digest = hashlib.sha256()
    sets = list(_pairing_sets())
    for n, levels in sets:
        digest.update(write_factorization(construct(n, levels=levels)).encode())
    assert len(sets) == 109
    assert digest.hexdigest() == (
        "08d581d67055938617328f90b9c5ad5ccb3a9b5c423906564ab48284e7c0afac"
    )


def test_range_factorizations_are_pinned():
    """The full ranges beside the pairing sets: for n = 12..16, every factorable
    {1..k} with k >= 2 and 2k < n (small k) or n <= 15 (complement pairing)."""
    pairs = [
        (n, k)
        for n in range(12, 17)
        for k in range(2, n + 1)
        if (2 * k < n or n <= 15) and decide(n, k).status is Status.FACTORABLE
    ]
    digest = hashlib.sha256()
    for n, k in pairs:
        digest.update(write_factorization(construct(n, LevelSet.full(k))).encode())
    assert (len(pairs), sum(2 * k < n for n, k in pairs)) == (36, 13)
    assert digest.hexdigest() == (
        "036325721c2044a974c72acc3faa9af40fca947bdb727bc627773e2671cd26b7"
    )


def test_run_refuses_a_rational_solution():
    """The LP's vertex for (10, {1, 2, 4, 6}) solves the counts with 35/2 and
    5/2; the input check names the first multiplicity that is not an int."""
    levels = LevelSet.of([1, 2, 4, 6])
    outcome = lp_feasible(build_system(10, levels))
    solution = {lam: Fraction(v, outcome.det) for lam, v in outcome.solution.items()}
    assert {Fraction(35, 2), Fraction(5, 2)} <= set(solution.values())
    for j in range(1, 7):
        covered = sum(lam[j - 1] * mult for lam, mult in solution.items())
        assert covered == (binomial(10, j) if j in levels else 0)
    with pytest.raises(ValueError, match=r"is not an int: Fraction\("):
        run(10, levels, solution)


def test_a_type_at_multiplicity_zero_changes_nothing():
    """A witness may list a type it does not use.  Type (1, 1, 3) of
    (12, {1..3}) at multiplicity 0 leaves the residual zero, and run builds
    the same factors, byte for byte, as without it."""
    levels = LevelSet.full(3)
    solution = {(3, 0, 3): 4, (0, 3, 2): 22, (0, 0, 4): 41}
    padded = {(1, 1, 3): 0, **solution}
    assert solution_residual(12, levels, padded) == (0, 0, 0)
    assert write_factorization(run(12, levels, padded)) == write_factorization(
        run(12, levels, solution)
    )
