"""Element-by-element evolution of labeled partitions via integral max flow.

A zero-residual multiplicity vector fixes how many labeled partitions of the
final ground set exist of each type.  The engine starts from partitions of the
empty set (each part an empty bit-set labeled with its target size, the
"potential") and inserts elements 1, .., n one at a time.  At step ell, a flow
network decides which part of each partition receives element ell+1:

    source -> partition          capacity 1
    partition -> occurrence(S,j) capacity "unbounded" (M+1 works)
    occurrence(S,j) -> sink      capacity C(n-ell-1, j-1-|S|)

where occurrence (S, j) stands for "some part currently equal to S with
potential j".  The balanced-occurrence invariant (every (S, j) with
j - |S| <= n - ell occurs in exactly C(n-ell, j-|S|) partitions) guarantees a
max flow of value M = number of partitions that saturates every sink arc, and
routing each partition's unit of flow tells it which part to grow.  The same
invariant is re-checked after every step, so a broken step cannot propagate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .combinatorics import MAX_GROUND_SIZE, LevelSet, binomial, factor_count
from .errors import InvariantViolation, LimitExceeded
from .factorization import Factorization
from .linear_system import SolutionVector, solution_residual

#: Refuse evolutions beyond this ground size unless explicitly raised; the
#: per-step invariant audit walks all subsets of {1..ell}.
DEFAULT_MAX_GROUND = 18


@dataclass
class LabeledPartition:
    """Parts as (bit-set, potential) pairs; potentials never change."""

    parts: list[tuple[int, int]]


@dataclass
class EvolutionState:
    n: int
    levels: LevelSet
    ell: int
    partitions: list[LabeledPartition]
    last_step: "StepRecord | None" = field(default=None)


@dataclass(frozen=True)
class StepRecord:
    ell: int
    flow_value: int
    occurrence_nodes: int
    pairs_checked: int


# ---------------------------------------------------------------------------
# integral max flow (level-graph shortest augmenting paths, deterministic)


class _MaxFlow:
    def __init__(self, n_nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        e = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(e)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(e + 1)
        return e

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        n = len(self.adj)
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            # blocking flow by iterative path walk; augmenting paths can
            # zig-zag through residual arcs, so recursion depth would grow
            # with the network size
            it = [0] * n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    aug = min(self.cap[e] for e in path)
                    for e in path:
                        self.cap[e] -= aug
                        self.cap[e ^ 1] += aug
                    total += aug
                    cut = next(i for i, e in enumerate(path) if self.cap[e] == 0)
                    del path[cut:]
                    u = self.to[path[-1]] if path else s
                    continue
                advanced = False
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        path.append(e)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if u == s:
                    break
                level[u] = -1
                back = path.pop()
                u = self.to[back ^ 1]
                it[u] += 1

    def flow_on(self, e: int) -> int:
        return self.cap[e ^ 1]


@dataclass
class StepNetwork:
    """The step-ell network in explicit form (mainly for tests and tracing)."""

    m: int  # number of partitions
    occ_keys: list[tuple[int, int]]  # canonical (mask, potential) order
    occ_caps: list[int]
    #: per partition, the sorted occurrence indices it points to
    partition_arcs: list[list[int]]


def build_step_network(state: EvolutionState) -> StepNetwork:
    n, ell = state.n, state.ell
    occ_keys: list[tuple[int, int]] = sorted(
        {part for p in state.partitions for part in p.parts}
    )
    occ_index = {key: i for i, key in enumerate(occ_keys)}
    occ_caps = [binomial(n - ell - 1, j - 1 - mask.bit_count()) for mask, j in occ_keys]
    partition_arcs = [
        sorted({occ_index[part] for part in p.parts}) for p in state.partitions
    ]
    return StepNetwork(len(state.partitions), occ_keys, occ_caps, partition_arcs)


def max_flow_integral(net: StepNetwork) -> tuple[int, list[list[int]], list[int]]:
    """Run max flow; returns (value, per-partition arc flows, per-occurrence sink flow)."""
    m, n_occ = net.m, len(net.occ_keys)
    source = 0
    sink = 1 + m + n_occ
    g = _MaxFlow(sink + 1)
    for i in range(m):
        g.add_edge(source, 1 + i, 1)
    arc_edges: list[list[int]] = []
    unbounded = m + 1
    for i, arcs in enumerate(net.partition_arcs):
        arc_edges.append([g.add_edge(1 + i, 1 + m + o, unbounded) for o in arcs])
    sink_edges = [g.add_edge(1 + m + o, sink, net.occ_caps[o]) for o in range(n_occ)]
    value = g.max_flow(source, sink)
    flows = [[g.flow_on(e) for e in row] for row in arc_edges]
    sink_flows = [g.flow_on(e) for e in sink_edges]
    return value, flows, sink_flows


# ---------------------------------------------------------------------------
# state construction and evolution


def init_state(n: int, levels: LevelSet, solution: SolutionVector) -> EvolutionState:
    """Spread multiplicities into labeled partitions of the empty ground set."""
    levels.check_against_ground(n)
    res = solution_residual(n, levels, solution)
    if any(res):
        raise ValueError(f"solution does not balance the level counts, residual {res}")
    partitions: list[LabeledPartition] = []
    for lam in sorted(solution, key=lambda l: tuple(reversed(l)), reverse=True):
        mult = solution[lam]
        parts = [(0, j) for j in levels for _ in range(lam[j - 1])]
        for _ in range(mult):
            partitions.append(LabeledPartition(list(parts)))
    expected = factor_count(n, levels)
    if len(partitions) != expected:
        raise InvariantViolation(f"{len(partitions)} partitions != M = {expected}")
    state = EvolutionState(n, levels, 0, partitions)
    _check_occurrence_counts(state)
    return state


def _check_occurrence_counts(state: EvolutionState) -> int:
    """Audit the balanced-occurrence invariant; returns the pair count checked."""
    n, ell = state.n, state.ell
    remaining = n - ell
    occ = Counter(part for p in state.partitions for part in p.parts)
    required: dict[tuple[int, int], int] = {}
    for mask in range(1 << ell):
        size = mask.bit_count()
        for j in state.levels:
            if j >= size and j - size <= remaining:
                required[(mask, j)] = binomial(remaining, j - size)
    if occ != required:
        for key in sorted(set(occ) | set(required)):
            have, want = occ.get(key, 0), required.get(key, 0)
            if have != want:
                mask, j = key
                raise InvariantViolation(
                    f"step {ell}: occurrence ({mask:#x}, potential {j}) "
                    f"appears {have} times, expected {want}"
                )
    return len(required)


def evolve_step(state: EvolutionState) -> EvolutionState:
    """Insert element ell+1 into every partition; returns the evolved state."""
    n, ell = state.n, state.ell
    if ell >= n:
        raise ValueError(f"state is already complete (ell = n = {n})")
    m = len(state.partitions)
    net = build_step_network(state)
    value, flows, sink_flows = max_flow_integral(net)
    if value != m:
        raise InvariantViolation(f"step {ell}: max flow {value} < partition count {m}")
    for o, flow in enumerate(sink_flows):
        if flow != net.occ_caps[o]:
            raise InvariantViolation(
                f"step {ell}: sink arc of occurrence {net.occ_keys[o]} not saturated"
            )
    new_bit = 1 << ell
    new_partitions: list[LabeledPartition] = []
    for i, p in enumerate(state.partitions):
        unit = [net.occ_keys[net.partition_arcs[i][a]] for a, f in enumerate(flows[i]) if f]
        if len(unit) != 1:
            raise InvariantViolation(f"step {ell}: partition {i} pushed {len(unit)} units")
        mask, j = unit[0]
        if j <= mask.bit_count():
            raise InvariantViolation(
                f"step {ell}: partition {i} would grow a full part {(mask, j)}"
            )
        where = p.parts.index((mask, j))
        parts = list(p.parts)
        parts[where] = (mask | new_bit, j)
        new_partitions.append(LabeledPartition(parts))
    new_state = EvolutionState(n, state.levels, ell + 1, new_partitions)
    pairs = _check_occurrence_counts(new_state)
    new_state.last_step = StepRecord(ell, value, len(net.occ_keys), pairs)
    return new_state


def run(
    n: int,
    levels: LevelSet,
    solution: SolutionVector,
    *,
    max_ground_size: int = DEFAULT_MAX_GROUND,
    trace: Callable[[StepRecord], None] | None = None,
) -> Factorization:
    """Full evolution from the empty ground set to a verified-shape factorization."""
    if n > MAX_GROUND_SIZE:
        raise LimitExceeded(
            f"ground size {n} exceeds the {MAX_GROUND_SIZE}-element bit-mask cap of the "
            "evolution engine; no max_ground_size can lift it"
        )
    if n > max_ground_size:
        raise LimitExceeded(
            f"ground size {n} exceeds the evolution work limit {max_ground_size}; "
            "raise max_ground_size explicitly to proceed"
        )
    state = init_state(n, levels, solution)
    for _ in range(n):
        state = evolve_step(state)
        if trace is not None and state.last_step is not None:
            trace(state.last_step)
    factors = []
    for p in state.partitions:
        if any(mask.bit_count() != j for mask, j in p.parts):
            raise InvariantViolation(f"evolution ended with a part short of its size: {p.parts}")
        factors.append([mask for mask, _ in p.parts])
    return Factorization.build(n, levels, factors)
