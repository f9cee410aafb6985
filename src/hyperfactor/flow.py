"""Element-by-element evolution of labeled partitions via integral max flow.

A zero-residual multiplicity vector fixes how many labeled partitions of the
final ground set exist of each type.  The engine starts from partitions of the
empty set (each part an empty bit-set labeled with its target size, the
"potential") and inserts elements 1, .., n one at a time.  As in Baranyai's
proof, identical partitions are counted together: the state is an ordered
list of classes (parts, multiplicity), and only the final factorization lists
each partition.  At step ell, a flow network decides which part receives
element ell+1:

    source -> class              capacity = multiplicity
    class -> occurrence(S,j)     capacity = multiplicity
    occurrence(S,j) -> sink      capacity C(n-ell-1, j-1-|S|)

where occurrence (S, j) stands for "some part currently equal to S with
potential j".  A class arc holds as much as its source arc, so it is full
only when all of the class's partitions grow that one part; it never limits
a path, and only the source, sink and reverse arcs can run out.  A complete
part (|S| = j) has sink capacity 0, so it gets no node.  The
balanced-occurrence invariant (every (S, j) with j - |S| <= n - ell
occurs in exactly C(n-ell, j-|S|) partitions) guarantees a max flow of value
M = number of partitions that saturates every sink arc.  A flow of f units
from a class to an occurrence becomes a class of multiplicity f whose part
(S, j) grows by ell+1; the new classes follow the old ones' order, then arc
order.  Two classes never grow into the same parts (dropping the new element
gives back the parent), so the classes stay distinct.  The audit of this
invariant after every step is the one check of the flow's outcome.

The last step is forced: at ell = n - 1 each open (S, j) is one element
short and occurs in one partition, so every class has multiplicity 1 and
one open part.  That step builds no network and pours nothing: each class
grows its open part, and the audit runs on the result as after any step.

Each class keeps its parts in ascending (S, j) order: the initial parts are
empty, listed by potential, and the grown part, the only one holding
element ell+1, is the largest, so it moves to the end.  Occurrences are
numbered in the same order, so a class's arcs are read off its parts,
ascending, with no sort.  The order of the parts never reaches the output,
because run sorts each factor by minimum element.

Nor does a step sort the occurrences: a state is built with its open keys.
The initial state's are (0, j) for each level j, ascending.  evolve_step
hands the next state this step's keys with j - |S| <= n - ell - 1, then the
grown keys (S + {ell+1}, j) with j - |S| >= 2, both in this step's order;
every grown mask holds element ell+1, above every kept mask.  The audit that
passes on the new state makes them exactly its census's open parts.

The max flow is Dinic's, with its first phase done without a graph, as a
pour: each class, in order, puts its multiplicity into its occurrences in
arc order, each taking what the class has left or what its sink arc has
room for, whichever is less.  That is exactly the phase's blocking flow.
When the pour routes every partition, as it does whenever each class has
one open part, that is all.  Otherwise Dinic's later phases run on the
pour's own state: the per-class arc flows, the units each class has left,
the room each sink arc has left, and one list per occurrence of the
(class, slot) arcs into it.  Each node's arcs are scanned in the order of
Dinic's edge list, and each node is labelled by its residual distance to
the sink, so the path walk only enters nodes that can still reach it.
Either way the flows, and so the factorization, are those of the plain
Dinic run.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Callable

from .combinatorics import LevelSet, binomial, canonical_key, min_element
from .errors import InvariantViolation
from .factorization import Factorization
from .linear_system import SolutionVector, solution_residual

#: the parts of a partition as (bit-set, potential) pairs; potentials never change
Parts = tuple[tuple[int, int], ...]


@dataclass
class EvolutionState:
    n: int
    levels: LevelSet
    ell: int
    #: classes of identical partitions as (parts, multiplicity); listing each
    #: class's parts multiplicity times, in order, lists the partitions.
    #: init_state and evolve_step keep each class's parts ascending, the
    #: grown part last, so build_step_network need not sort them
    classes: list[tuple[Parts, int]]
    #: the open parts (|S| < j) of the census in (mask, potential) order: the
    #: step network's occurrences.  init_state seeds them, evolve_step carries
    #: them from the last step's keys
    open_keys: list[tuple[int, int]]
    last_step: "StepRecord | None" = field(default=None)

    @functools.cached_property
    def census(self) -> dict[tuple[int, int], int]:
        """How often each (mask, potential) part occurs over the partitions:
        each class's parts counted with its multiplicity, complete parts
        included.  Counted on first use; the classes must not change after."""
        occ: dict[tuple[int, int], int] = {}
        count = occ.get
        for parts, mult in self.classes:
            for part in parts:
                occ[part] = count(part, 0) + mult
        return occ


@dataclass(frozen=True)
class StepRecord:
    ell: int
    flow_value: int
    class_nodes: int
    occurrence_nodes: int
    pairs_checked: int


@dataclass
class StepNetwork:
    """The step-ell network as per-class rows.  max_flow_integral pours
    into rows of the same shape and runs Dinic's later phases on them; no
    edge list is built."""

    occ_keys: list[tuple[int, int]]  # canonical (mask, potential) order, open parts only
    occ_caps: list[int]
    #: per class of the state, its multiplicity
    class_sizes: list[int]
    #: per class, the occurrence indices it points to, in part order
    class_arcs: list[list[int]]


def _binomial_row(a: int) -> dict[int, int]:
    """C(a, d) keyed by d in 0..a; .get gives None or a default for any other d."""
    return {d: binomial(a, d) for d in range(a + 1)}


def build_step_network(state: EvolutionState) -> StepNetwork:
    """The step-ell network of the state.  A class's arcs are the indices of
    its open parts' occurrences, in part order and without repeats.
    Occurrences are numbered in (mask, potential) order, the order
    init_state and evolve_step keep each class's parts in, so the arcs come
    out ascending with no sort."""
    n, ell = state.n, state.ell
    # complete parts (|S| = j) have sink capacity 0 and get no node
    occ_keys = state.open_keys
    index = {key: i for i, key in enumerate(occ_keys)}.get
    sink_cap = _binomial_row(n - ell - 1).get
    occ_caps = [sink_cap(j - 1 - mask.bit_count(), 0) for mask, j in occ_keys]
    class_arcs = []
    for parts, _ in state.classes:
        arcs = []
        last = -1
        # a complete part looks up None; equal parts (empty ones) repeat an index
        for o in map(index, parts):
            if o is None or o == last:
                continue
            arcs.append(o)
            last = o
        class_arcs.append(arcs)
    sizes = [mult for _, mult in state.classes]
    return StepNetwork(occ_keys, occ_caps, sizes, class_arcs)


# ---------------------------------------------------------------------------
# integral max flow (Dinic, deterministic)


def max_flow_integral(net: StepNetwork) -> tuple[int, list[list[int]]]:
    """Run max flow; returns (value, per-class arc flows).

    The pour is Dinic's first phase: on the level graph source -> class ->
    occurrence -> sink a class arc holds as much as its source arc, so each
    path the phase walks, in edge order, is cut at the source arc (the class
    is done) or at the sink arc (the occurrence is full).  Only when units
    are left do the later phases run, on the pour's own rows.
    """
    sizes, class_arcs = net.class_sizes, net.class_arcs
    room = list(net.occ_caps)
    flows: list[list[int]] = []
    left_over: list[int] = []
    for left, arcs in zip(sizes, class_arcs):
        row = []
        for o in arcs:
            f = room[o] if room[o] < left else left
            room[o] -= f
            left -= f
            row.append(f)
        flows.append(row)
        left_over.append(left)
    value = sum(sizes) - sum(left_over)
    if any(left_over):
        value += _later_phases(sizes, class_arcs, flows, left_over, room)
    return value, flows


def _later_phases(
    sizes: list[int],
    class_arcs: list[list[int]],
    flows: list[list[int]],
    left_over: list[int],
    room: list[int],
) -> int:
    """Dinic's phases 2 on, pushed into the rows in place; returns the units
    they route.

    The rows are the residual network: source -> class c has room
    left_over[c], the arc of c's slot i room sizes[c] - flows[c][i] and its
    reverse flows[c][i], occurrence o -> sink room[o].  A class scans its
    arcs by slot; an occurrence scans its reverse arcs in class order, then
    its sink arc.  That is the order of Dinic's edge list (source arcs,
    class arcs class by class, sink arcs), so the paths and amounts are Dinic's.

    Each phase labels the nodes by their residual distance to the sink, a
    level at a time, up to the level of the source, over arcs with room.
    The walk takes an arc whose head is one step closer to the sink, checks
    room only on a reverse arc, and drops a node that turns out a dead end.
    A class arc without room holds all of its class's units, so the walk
    enters that class only back from the arc's occurrence, one step farther
    from the sink, never closer.  On a shortest path from the source these
    are exactly the arcs into the next level from the source that still
    lead to the sink, in the same order, so the paths, the amounts pushed
    and the residual left are those of the levels counted from the source;
    the walk just never enters a branch that cannot reach the sink.  Paths
    alternate class, occurrence, class, ..., so a node's kind is the parity
    of its place on the path.  A class with one arc and no units left after
    the pour is on no path (one starts only where units are left, which only
    fall, and passes through a class by a reverse arc in and a second arc
    out), so the reverse-arc lists leave it out.  Room only falls, so each
    phase's distance-1 list is the last one's filtered by room.
    """
    n_classes = len(sizes)
    # per occurrence, the (class, slot) of each arc into it, in class order
    into: list[list[tuple[int, int]]] = [[] for _ in room]
    for c, (arcs, left) in enumerate(zip(class_arcs, left_over)):
        if left or len(arcs) > 1:
            for i, o in enumerate(arcs):
                into[o].append((c, i))
    ones = range(len(room))
    total = 0
    while True:
        # occurrences with sink room are at distance 1; a class is one
        # farther than an occurrence its arcs have room into, an occurrence
        # one farther than a class that holds flow in it
        class_dist = [-1] * n_classes
        occ_dist = [-1] * len(room)
        ones = level = [o for o in ones if room[o]]
        for o in level:
            occ_dist[o] = 1
        d = 1
        while level:
            reached = []
            for o in level:
                for c, i in into[o]:
                    if class_dist[c] < 0 and flows[c][i] < sizes[c]:
                        class_dist[c] = d + 1
                        reached.append(c)
            d += 2
            if any(map(left_over.__getitem__, reached)):
                break
            level = []
            for c in reached:
                for o, f in zip(class_arcs[c], flows[c]):
                    if f and occ_dist[o] < 0:
                        occ_dist[o] = d
                        level.append(o)
        else:
            return total
        # the source is at distance d; blocking flow by iterative path walk,
        # since augmenting paths zig-zag through reverse arcs and grow with
        # the network.  path lists the nodes after the source; via[p] is the
        # slot of the arc into path[p]: the slot of class path[p - 1] for an
        # occurrence, path[p]'s own slot, held in reverse, for a class
        source_it = 0
        class_it = [0] * n_classes
        occ_it = [0] * len(room)
        path: list[int] = []
        via: list[int] = []
        top = d - 1
        before = total
        while True:
            depth = len(path)
            if not depth:
                c = source_it
                while c < n_classes and not (left_over[c] and class_dist[c] == top):
                    c += 1
                source_it = c
                if c == n_classes:
                    # the labels promise a path: a phase that routes nothing
                    # would repeat forever
                    if total == before:
                        raise InvariantViolation("max flow phase found no path to the sink")
                    break
                path.append(c)
                via.append(-1)
            elif depth & 1:
                c = path[-1]
                arcs = class_arcs[c]
                closer = class_dist[c] - 1
                n_arcs = len(arcs)
                i = class_it[c]
                while i < n_arcs and occ_dist[arcs[i]] != closer:
                    i += 1
                class_it[c] = i
                if i < n_arcs:
                    path.append(arcs[i])
                    via.append(i)
                    continue
                class_dist[c] = -1
                path.pop()
                via.pop()
                if path:
                    occ_it[path[-1]] += 1
                else:
                    source_it += 1
            else:
                o = path[-1]
                closer = occ_dist[o] - 1
                if closer:
                    entries = into[o]
                    n_entries = len(entries)
                    k = occ_it[o]
                    while k < n_entries:
                        c, j = entries[k]
                        if flows[c][j] and class_dist[c] == closer:
                            break
                        k += 1
                    occ_it[o] = k
                    if k < n_entries:
                        path.append(c)
                        via.append(j)
                        continue
                elif room[o]:
                    total += _augment(flows, left_over, room, path, via)
                    continue
                occ_dist[o] = -1
                path.pop()
                via.pop()
                class_it[path[-1]] += 1


def _augment(
    flows: list[list[int]],
    left_over: list[int],
    room: list[int],
    path: list[int],
    via: list[int],
) -> int:
    """Push the most the path from the source to the sink takes, and cut the
    path before its first arc left without room; returns the amount.  A
    class arc has room at least the class's left_over and the flow of each
    of its other slots, so it never runs out before the arc into its class."""
    first, last = path[0], path[-1]
    aug = min(left_over[first], room[last])
    for p in range(2, len(path), 2):
        r = flows[path[p]][via[p]]
        if r < aug:
            aug = r
    left_over[first] -= aug
    room[last] -= aug
    cut = len(path) if left_over[first] else 0
    for p in range(1, len(path)):
        if p & 1:  # class path[p - 1] into occurrence path[p]
            flows[path[p - 1]][via[p]] += aug
        else:  # occurrence path[p - 1] back into class path[p]
            row = flows[path[p]]
            row[via[p]] -= aug
            if not row[via[p]] and p < cut:
                cut = p
    del path[cut:]
    del via[cut:]
    return aug


# ---------------------------------------------------------------------------
# state construction and evolution


def init_state(n: int, levels: LevelSet, solution: SolutionVector) -> EvolutionState:
    """One class of partitions of the empty ground set per type in use.  A zero
    residual makes M partitions: n * sum x_lam = sum_{j in L} j*C(n, j) = n * M.
    It also balances the state, so no audit runs: each empty part of potential
    j occurs sum lam_j * x_lam = C(n, j) times, the |L| pairs ell = 0 needs.
    Since C(n, j) > 0, every (0, j) occurs: they are the open keys."""
    levels.check_against_ground(n)
    res = solution_residual(n, levels, solution)
    if any(res):
        raise ValueError(f"solution does not balance the level counts, residual {res}")
    classes = [
        (tuple((0, j) for j in levels for _ in range(lam[j - 1])), solution[lam])
        for lam in sorted(solution, key=canonical_key)
        if solution[lam] > 0
    ]
    return EvolutionState(n, levels, 0, classes, [(0, j) for j in levels])


def _check_occurrence_counts(state: EvolutionState) -> int:
    """Audit the balanced-occurrence invariant; returns the pair count checked.

    Every (mask, j) with mask a subset of {1..ell}, j in levels and
    0 <= j - |mask| <= n - ell must occur exactly C(n-ell, j-|mask|) times,
    and no other pair may occur.  One scan of the census finds the pairs that
    occur a wrong number of times; with none, and as many pairs as should
    occur, the census is right.  Otherwise the first wrong pair in (mask, j)
    order is named, found from the census alone, never from all 2^ell masks.
    """
    n, ell, levels = state.n, state.ell, state.levels
    remaining = n - ell
    occ = state.census
    sizes = {j: range(max(0, j - remaining), min(j, ell) + 1) for j in levels}
    required_pairs = sum(binomial(ell, size) for j in levels for size in sizes[j])
    # a pair (mask, j) must occur C(n-ell, j-|mask|) times; a difference
    # j - |mask| outside 0..n-ell looks up None, which no count equals
    target = _binomial_row(remaining).get
    wrong = []
    for (mask, j), have in occ.items():
        want = target(j - mask.bit_count()) if mask >> ell == 0 and j in sizes else None
        if have != want:
            wrong.append(((mask, j), have, want or 0))
    if not wrong and len(occ) == required_pairs:
        return required_pairs
    for j in levels:
        for size in sizes[j]:
            mask = _least_absent(occ, j, size, ell)
            if mask is not None:
                wrong.append(((mask, j), 0, target(j - size)))
    (mask, j), have, expected = min(wrong)
    raise InvariantViolation(
        f"step {ell}: occurrence ({mask:#x}, potential {j}) "
        f"appears {have} times, expected {expected}"
    )


def _least_absent(occ: dict[tuple[int, int], int], j: int, size: int, ell: int) -> int | None:
    """The least mask of `size` elements of {1..ell} with (mask, j) not in occ,
    or None; masks of one size are stepped in ascending order (Gosper's hack),
    so the walk passes only masks that occur."""
    mask = (1 << size) - 1
    while (mask, j) in occ:
        if not mask:
            return None
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
        if mask >> ell:
            return None
    return mask


def evolve_step(state: EvolutionState) -> EvolutionState:
    """Insert element ell+1 into every partition; returns the evolved state.
    Each occurrence's grown part is built once, shared by the classes growing it.

    At ell = n - 1 the flow is forced, so no network is built: each class
    grows its first open part, and a class with none routes nothing and is
    dropped, as in the flow.  An unbalanced state leaves a part open, doubled
    or missing, which the audit refuses."""
    n, ell = state.n, state.ell
    if ell >= n:
        raise ValueError(f"state is already complete (ell = n = {n})")
    new_bit = 1 << ell
    classes: list[tuple[Parts, int]] = []
    if ell == n - 1:
        keys = state.open_keys
        for parts, mult in state.classes:
            for i, (mask, j) in enumerate(parts):
                if j > mask.bit_count():
                    classes.append((parts[:i] + parts[i + 1:] + ((mask | new_bit, j),), mult))
                    break
        value = sum(mult for _, mult in classes)
    else:
        net = build_step_network(state)
        value, flows = max_flow_integral(net)
        keys = net.occ_keys
        grown = [((mask | new_bit, j),) for mask, j in keys]
        for (parts, _), arcs, row in zip(state.classes, net.class_arcs, flows):
            for o, f in zip(arcs, row):
                if not f:
                    continue
                # the grown part is the only one holding element ell+1, so it is
                # the largest: moved to the end, the parts stay ascending
                i = parts.index(keys[o])
                classes.append((parts[:i] + parts[i + 1:] + grown[o], f))
    # the audit makes these the census's open keys: the kept parts still
    # short of more than element ell+1, then the grown parts still short;
    # each grown mask holds bit ell, above every kept mask
    last = n - ell - 1
    open_keys = [key for key in keys if key[1] - key[0].bit_count() <= last] + [
        (mask | new_bit, j) for mask, j in keys if j - mask.bit_count() >= 2
    ]
    new_state = EvolutionState(n, state.levels, ell + 1, classes, open_keys)
    pairs = _check_occurrence_counts(new_state)
    new_state.last_step = StepRecord(ell, value, len(state.classes), len(keys), pairs)
    return new_state


def run(
    n: int,
    levels: LevelSet,
    solution: SolutionVector,
    *,
    trace: Callable[[StepRecord], None] | None = None,
) -> Factorization:
    """Full evolution to a factorization: at ell = n the audit admits only
    complete parts.  init_state checks the input; no size limit applies here,
    construct checks its blocks against the work limit before any runs.

    The evolution's tuples, lists, dicts and records form no cycle, so the
    cyclic collector would free nothing: it is paused until the factors are
    built and the last state dropped, and resumed only if it was on."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        state = init_state(n, levels, solution)
        for _ in range(n):
            state = evolve_step(state)
            if trace is not None:
                trace(state.last_step)
        # each factor in canonical order: its sets by minimum element
        factors = tuple(
            tuple(sorted([mask for mask, _ in parts], key=min_element))
            for parts, mult in state.classes
            for _ in range(mult)
        )
        del state
    finally:
        if collecting:
            gc.enable()
    return Factorization(n, levels.levels, factors)
