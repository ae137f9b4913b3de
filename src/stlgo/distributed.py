"""Distributed offline monitoring from partial state knowledge.

An observer agent holds a knowledge mask saying which (subject, time) states
it can see; graph topology is always fully known. Verdicts are three-valued:
0, 1, or ? (undetermined), with ? represented as None in the values of the
``central.Signal`` that the centralized monitor returns too.

``monitor_dist`` lowers the formula exactly as the centralized monitor does
and runs the same compiled cell functions (``central.Cells``, one per core
node, a whole & chain being one, for both monitors and both logic layers),
with the mask: atoms over masked states yield ? even when the expression
would be constant in the masked components, Boolean and temporal operators
follow the strong Kleene tables, and graph operators decide from the counts
of satisfying and non-violating neighbor verdicts, weighted by edge
multiplicity (``central.graph_op_verdict``). Finite traces and strict mode
follow the centralized conventions, including the up-front strict-horizon
check, so both monitors raise on the same inputs. ``is_determinable``
builds the same prepared query (``central._Query``), so it raises on the
same inputs and covers the same [0, min(T + T_f, L)].

The monitor is sound: a 0/1 verdict always agrees with the centralized
verdict on the full run. Count sets with several intervals take the
three-valued OR of the per-interval verdicts; since achievable counts form a
contiguous range and canonical count sets keep their intervals non-adjacent,
this is exact with respect to completion enumeration of the neighbor
verdicts, and a negated graph operator is exactly the operator over the
complemented count set. Parallel edges are the one source of imprecision: a
hidden neighbor contributes its whole multiplicity at once, and the scalar
count bounds cannot express the resulting gaps, so some
determined-by-enumeration cases report ?.

``is_determinable`` checks the leaves of the core form the monitors read
(``lower``, which keeps & and | chains as written, so a chain never splits
a leaf): leaf k is the k-th maximal graph-operator-free subformula of
``lower(f)`` in depth-first pre-order, and its chain is the ``GraphOp``
nodes above it, outermost first (``build_operator_tree``, from the
query's marks). Each leaf that reads a state takes one sweep: out from the
subject along the leaf's chain, level by level, to the composed neighbor
set, then back in, folding the nested neighbor counts over the same
levels. Both read each operator's
neighbors per agent, one per edge, each as often as its most edges at any
one time, from the run's neighbor index
(``model.NeighborIndex.over_time``), which the monitors read too and which
lives as long as the run. Neither depends on the time step; the check stays
sufficient. Per step it reads the mask's visible ranges, not its states one
by one: the observer and agents visible over the leaf's whole span drop
out, an agent no visible range touches in a step's window adds that whole
window, and only the few (step, agent) pairs a range touches walk the gaps
between ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import formula as F
from .central import Signal, _Query, _shared_signal, signal_cells
from .formula import lower as prepare_for_distributed  # noqa: F401, perfbench's spans name it
from .model import MasRun


@dataclass(frozen=True)
class KnowledgeMask:
    """Which (subject, time) states an observer can see.

    Self-knowledge is total: the observer always knows its own state, so
    ``ranges`` carries only other agents' visible stretches, and an entry
    that names the observer is checked and dropped. Built from any mix of
    (subject, t) pairs and (subject, t_from, t_to) ranges, it keeps them
    sorted, maximal and disjoint: equal sets, equal masks.
    """

    observer: int
    ranges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if type(self.observer) is not int or self.observer < 1:
            raise ValueError(f"observer {self.observer!r}: agents are ints from 1")
        ends: dict[int, dict[int, int]] = {}  # subject -> start -> furthest end + 1
        for entry in self.ranges:
            if len(entry) not in (2, 3):
                raise ValueError(f"mask entry must be (subject, t) or (subject, t0, t1): {entry}")
            j, lo, hi = entry[0], entry[1], entry[-1]
            if type(j) is not int or type(lo) is not int or type(hi) is not int or not (
                    j >= 1 and 0 <= lo <= hi):
                raise ValueError(f"mask entry {entry}: need ints, subject >= 1, 0 <= t0 <= t1")
            if j == self.observer:
                continue
            starts = ends.setdefault(j, {})
            if starts.get(lo, 0) <= hi:
                starts[lo] = hi + 1
        # subject -> flat [start, end + 1, start, end + 1, ...] of its ranges
        bounds = {}
        for j, starts in sorted(ends.items()):
            flat = bounds[j] = []
            for lo in sorted(starts):
                if not flat or lo > flat[-1]:
                    flat += (lo, starts[lo])
                elif starts[lo] > flat[-1]:  # overlaps or touches the last range
                    flat[-1] = starts[lo]
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "ranges", tuple(
            (j, flat[i], flat[i + 1] - 1) for j, flat in bounds.items()
            for i in range(0, len(flat), 2)))

    def knows(self, subject: int, t: int) -> bool:
        return subject == self.observer or bisect_right(self._bounds.get(subject, ()), t) % 2 == 1

    @classmethod
    def self_only(cls, observer: int) -> KnowledgeMask:
        return cls(observer)

    @classmethod
    def full(cls, observer: int, num_agents: int, length: int) -> KnowledgeMask:
        return cls(observer, [(j, 0, length) for j in range(1, num_agents + 1)])


def refine(mask: KnowledgeMask, additions) -> KnowledgeMask:
    """Extend a mask with more visible states; knowledge only ever grows.

    ``additions`` is an iterable of (subject, t) pairs or (subject, t_from,
    t_to) ranges, or another KnowledgeMask for the same observer that is
    pointwise at least as knowledgeable.
    """
    if isinstance(additions, KnowledgeMask):
        if additions.observer != mask.observer:
            raise ValueError("refine cannot change the observer")
        if KnowledgeMask(mask.observer, mask.ranges + additions.ranges) != additions:
            raise ValueError("refine cannot hide previously known states")
        return additions
    return KnowledgeMask(mask.observer, (*mask.ranges, *additions))


def monitor_dist(
    run: MasRun,
    mask: KnowledgeMask,
    f: F.LocalFormula,
    subject: int,
    T: int,
    strict: bool = False,
) -> Signal:
    """Three-valued satisfaction signal of f at the subject agent, as seen by
    the mask's observer. The observer may monitor a subject other than
    itself; the mask governs what is visible, the subject selects where the
    formula is imposed."""
    return _shared_signal(signal_cells(run, f, subject, T, strict, mask))


# ---------------------------------------------------------------------------
# determinability analysis


@dataclass(frozen=True)
class LeafFailure:
    """One (leaf, time) pair where neither determinability condition holds.

    Leaf k is the k-th maximal graph-operator-free subformula of
    ``lower(f)`` in depth-first pre-order, counting from 1."""

    leaf_index: int
    time: int
    unknown_states: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DeterminabilityReport:
    """Whether every verdict of the signal will be 0/1, and the (leaf,
    time) pairs where the check could not show it."""

    determinable: bool
    failures: tuple[LeafFailure, ...]


def is_determinable(
    run: MasRun,
    mask: KnowledgeMask,
    f: F.LocalFormula,
    subject: int,
    T: int,
) -> DeterminabilityReport:
    """Sufficient per-leaf, per-time check that the distributed verdict will
    be 0/1 at every time of the signal's whole domain, [0, min(T + T_f, L)]
    with T_f the formula's horizon; the check has no strict mode, so this is
    its domain even where ``monitor_dist(..., strict=True)`` stops at T.
    The leaves, their horizons and the domain come from one ``_Query``.

    A leaf passes at time t when either (a) it reads no state at all, or the
    observer knows the states of every agent in the leaf's composed neighbor
    set, across the leaf's own time window; or (b) the nested neighbor
    counts along the leaf's ancestor chain fall short of the chain's minimum
    count thresholds, so the outermost operator is determined regardless of
    any state. Counts are weighted by edge multiplicity.

    One sweep per leaf serves both conditions. It walks the chain outward
    from the subject, keeping the agents each level reaches (``levels[0]``
    is the subject alone); the last level is the neighbor set of (a). For
    (b) it folds the counts back inward over the same levels: an edge
    counts when its neighbor's count one level further out reaches that
    level's minimum threshold.

    Neither depends on t: a chain of static graphs has one topology, and a
    chain touching a time-varying graph takes the union of neighbor sets
    (maximum of edge multiplicities) over all times, since temporal
    operators between nested graph operators can shift evaluation to
    instants where the topology differs. Those neighbors, one per edge,
    come from the run's neighbor index, per (graph, direction, weight
    window) and agent (``NeighborIndex.over_time``); an entry is computed
    on its first read by any query and kept as long as the run, so later
    calls on the run read it again.

    Only the window scan runs per time step, and it reads the mask's
    visible ranges clipped to the leaf's span [0, last]. The observer and
    agents visible over all of it drop out up front. At a step t whose
    window [t, t + leaf horizon] no range of an agent touches, the agent's
    hidden states are the whole window, a slice of its (agent, time) pairs
    over the span; only the (t, agent) pairs a range touches walk the gaps
    between the agent's ranges. Failures list their states by agent, then
    time.
    """
    query = _Query(run, f, subject, T)
    end, failures = query.end, []

    for index, leaf, chain in build_operator_tree(query):
        # per operator of the chain, an agent's neighbors in it over all times
        over_time = [run.graphs.neighbor_index(
            op.graphs[0], op.direction, op.weights.lo, op.weights.hi).over_time for op in chain]
        levels = [{subject}]
        for neighbors in over_time:
            levels.append({j for a in levels[-1] for j in neighbors(a)})
        # condition (b): every edge of the innermost operator counts, and a
        # leaf with no chain keeps count 1 against need 1
        count, need = dict.fromkeys(levels[-1], 1), 1
        for op, neighbors, agents in zip(reversed(chain), reversed(over_time),
                                         reversed(levels[:-1])):
            count = {a: sum(count[j] >= need for j in neighbors(a)) for a in agents}
            need = op.counts.min_value()
        if count[subject] < need:
            continue  # condition (b) holds at every t
        _, leaf_t_max = query.marks[id(leaf)][2]
        last = int(min(end + leaf_t_max, run.length))
        # the visible ranges within [0, last] of the composed neighbor set;
        # the observer, and agents visible over all of [0, last], drop out
        seen: dict[int, list[tuple[int, int]]] = {}
        for j, lo, hi in mask.ranges:
            if lo <= last and j in levels[-1]:
                seen.setdefault(j, []).append((lo, min(hi, last)))
        agents = [j for j in sorted(levels[-1])
                  if j != mask.observer and seen.get(j) != [(0, last)]]
        if not agents:
            continue
        # t -> the agents with a visible range that touches the window
        # [t, t + leaf_t_max]; every other agent is hidden over all of it
        touched_at: dict[int, set[int]] = {}
        for j in agents:
            for lo, hi in seen.get(j, ()):
                for t in range(int(max(0, lo - leaf_t_max)), min(hi, end) + 1):
                    touched_at.setdefault(t, set()).add(j)
        # each agent's (agent, time) pairs over [0, last], which every
        # failure of the leaf slices
        rows = [(j, [(j, u) for u in range(last + 1)]) for j in agents]
        for t in range(end + 1):
            stop = int(min(t + leaf_t_max, run.length)) + 1
            touched = touched_at.get(t, ())
            missing = []
            for j, row in rows:
                if j in touched:
                    for lo, hi in _gaps(seen[j], t, stop):
                        missing += row[lo:hi]
                else:
                    missing += row[t:stop]
            if missing:
                failures.append(LeafFailure(index, t, tuple(missing)))

    return DeterminabilityReport(not failures, tuple(failures))


def build_operator_tree(query) -> list:
    """The leaves of a query's core (a ``central._Query``) that read a
    state, as (k, leaf, chain) triples: leaf k is the k-th maximal
    graph-operator-free subformula in depth-first pre-order, every leaf
    counted, those without an atom and each occurrence of a shared node
    included, and its chain is the ``GraphOp`` nodes above it, outermost
    first. The query's marks tell which nodes are leaves and which read a
    state."""
    leaves, count, marks = [], 0, query.marks
    stack = [(query.core, ())]
    while stack:
        node, chain = stack.pop()
        over_graphs, reads_state, _ = marks[id(node)]
        if not over_graphs:
            count += 1
            if reads_state:
                leaves.append((count, node, chain))
            continue
        if type(node) is F.GraphOp:
            chain += (node,)
        stack.extend((sub, chain) for sub in reversed(F.operands(node)))
    return leaves


def _gaps(ranges, lo: int, stop: int):
    """The maximal runs [start, stop) of times in [lo, stop) that no range
    of the sorted, disjoint, inclusive (start, end) ``ranges`` covers."""
    for a, b in ranges:
        if b >= lo:
            if a >= stop:
                break
            if a > lo:
                yield lo, a
            lo = b + 1
    if lo < stop:
        yield lo, stop
