"""Offline monitoring: satisfaction signals from one compiled kernel.

``Cells`` is the semantic kernel of the centralized and the distributed
monitor alike. Each query compiles its formula, lowered to the core fragment
(see ``lower``), into one cell function per core node, a whole & chain
counting as one node, and each function memoizes its (agent, time) cells.
The same functions serve both monitors and both logic layers: an
agent-local atom and a system-level atom differ only in the state their
compiled expression reads. A cell is 1, 0 or None (?). Without a knowledge
mask every state is visible and every cell is Boolean; ``monitor_local``
and ``monitor_global`` read the cells that way. All three monitors drive
the kernel through one call, ``signal_cells``.
Under a mask (``distributed.monitor_dist``) an atom over a hidden state is
?, negation and conjunction follow the strong Kleene tables, and Until is
the Kleene disjunction over its witness times. A graph operator, over one
graph in the core, counts the edges to neighbors that satisfy its child
(n_sat) and to those that do not violate it (n_nviol), and decides with
``graph_op_verdict``. It stops reading neighbors as soon as the edges not
yet read cannot change that verdict (``Cells._graph_op``), but always
reads one when it has any. With no ? among the neighbors the two counts are
equal and the verdict is the Boolean count test, so the central monitor is
the mask-free case of the distributed one: the same functions, reading the
same cells in the same order as under a mask that hides nothing. Both
return one ``Signal`` type: a centralized signal is one without ?.

Until (and F, G, which lower to it) reads its window through next-witness
searches rather than a scan per cell. Because phi1 must hold through the
witness, the earliest candidate decides: the cell is 0 without a phi2 cell
other than 0 in the window, at least ? iff phi1 has no 0 up to the first
such r, and 1 iff phi1 is 1 up to the first p where phi2 is 1 (min and max
commute with the thresholds "is 1" and "is not 0", so this is exact in
strong Kleene logic). Each search keeps path-compressed next-hit pointers
per (subformula, agent, kind of cell sought), so the windows of
consecutive times share their work: a full signal of ``G[0,inf] p`` or
``p U[a,b] q`` reads each cell of p and q O(1) times amortized, O(L) per
agent in all, and never reads a cell outside [t, t + b].

``oracle_eval`` / ``oracle_eval_global`` are deliberately separate: a plain,
memo-free recursive transcription of the semantics that also interprets
sugar directly. The oracle is the reference the monitor is tested against
and shares no evaluation logic with it but the expression semantics:
``eval_expr`` is a thin wrapper over the ``compile_expr`` the atoms use.

Finite traces: by default a window reaching past the trace end L is clamped
to the available samples; for an unbounded interval the window becomes
[min(t + lo, L), L], so "always" over [0, inf] means "at every available
sample". With ``strict=True`` the signal covers [0, T] only, and before any
cell is evaluated the formula is refused with InsufficientTraceError if
evaluation from [0, T] can reach a bounded window that ends past L. A
subformula is evaluated at times up to T plus the upper bounds of its
enclosing windows, capped at L; under an unbounded window, up to L. So
``G[0,inf] F[0,3] p`` is refused for every T, because the outer window
reaches t = L, where ``F[0,3]`` needs [L, L + 3]; ``F[0,3] G[0,inf] p`` is
accepted when T + 3 <= L. The check reads no cell, so it cannot depend on
which operands evaluation happens to skip, and both monitors raise on the
same inputs.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass

from . import formula as F
from .formula import INF, compile_expr, eval_expr, expr_vars, horizon, lower
from .model import MasRun, TimeOutOfRangeError


class InsufficientTraceError(ValueError):
    """Raised in strict mode when the trace is too short for a bounded window."""


@dataclass(frozen=True, slots=True)
class Signal:
    """Per-time verdicts over the contiguous domain t0..t0+len-1: 0, 1, or
    None for ?. A centralized signal is one without ?."""

    t0: int
    values: tuple

    def __post_init__(self):
        if type(self.t0) is not int or self.t0 < 0:
            raise ValueError(f"signal t0 must be an int >= 0, not {self.t0!r}")
        # types first: they rule out bools, floats and unhashable values
        values = self.values
        if type(values) is not tuple or not values or not {int, type(None)}.issuperset(
                map(type, values)) or not {0, 1, None}.issuperset(values):
            raise ValueError("signal values must be a non-empty tuple of 0, 1 and None")

    @property
    def t1(self) -> int:
        return self.t0 + len(self.values) - 1

    def value_at(self, t: int):
        if not self.t0 <= t <= self.t1:
            raise TimeOutOfRangeError.of(t, self.t0, self.t1)
        return self.values[t - self.t0]


_SYSTEM_ONLY = (F.GlobalAtom,) + F.BINDERS


def validate_local(run: MasRun, f: F.LocalFormula):
    """Check that f is agent-local and its state accessors fit the run."""
    for node in F.nodes(f):
        if isinstance(node, _SYSTEM_ONLY):
            raise ValueError(f"{type(node).__name__} inside an agent-local formula")
        if isinstance(node, F.Atom):
            for var in expr_vars(node.expr):
                if isinstance(var, F.AgentStateVar):
                    raise ValueError("agent-indexed accessor inside an agent-local formula")
                _check_component(run, var)


def validate_global(run: MasRun, f: F.GlobalFormula):
    """Check that f reads agent states only through agent bindings, and its
    agent references and state accessors fit the run."""
    system = list(F.nodes(f, into_binders=False))
    for node in system:
        if isinstance(node, (F.Atom, F.GraphOp)):
            raise ValueError(
                f"{type(node).__name__} outside an agent binding in a system-level formula"
            )
    for node in system:
        if isinstance(node, F.BINDERS):
            agents = (node.agent,) if isinstance(node, F.AgentBind) else node.agents
            for agent in agents:
                if agent > run.num_agents:
                    raise ValueError(f"agent {agent} out of range (N={run.num_agents})")
            validate_local(run, node.child)
    for node in system:
        if isinstance(node, F.GlobalAtom):
            for var in expr_vars(node.expr):
                if isinstance(var, F.StateVar):
                    raise ValueError("x[k] accessor inside a system-level atom")
                if not 1 <= var.agent <= run.num_agents:
                    raise ValueError(f"agent {var.agent} out of range (N={run.num_agents})")
                _check_component(run, var)


def _check_component(run: MasRun, var):
    if var.index >= run.trajectory.state_dim:
        raise ValueError(
            f"state component {var.index} out of range "
            f"(state_dim={run.trajectory.state_dim})"
        )


def clamp_window(t: int, interval: F.TimeInterval, length: int) -> tuple[int, int]:
    """The evaluation window (t + I) intersected with the available trace.

    Unbounded intervals clamp to [min(t + lo, L), L]; bounded intervals may
    come out empty (lo > hi) when they start past the trace end.
    """
    if interval.hi == INF:
        return (min(t + interval.lo, length), length)
    return (t + interval.lo, min(t + int(interval.hi), length))


# ---------------------------------------------------------------------------
# three-valued kernel


def k_not(a):
    return None if a is None else 1 - a


def k_or(a, b):
    if a == 1 or b == 1:
        return 1
    if a is None or b is None:
        return None
    return 0


def graph_op_verdict(counts: F.CountSet, n_sat: int, n_nviol: int):
    """Three-valued verdict of a counting operator from neighbor verdicts.

    For one interval [e1, e2]: 1 when even the pessimistic count fits
    (n_sat >= e1 and n_nviol <= e2), 0 when no completion can fit
    (n_nviol < e1 or n_sat > e2), otherwise ?. Several intervals combine by
    three-valued OR. With n_sat == n_nviol this is the exact Boolean test
    ``counts.contains(n_sat)``.
    """
    out = 0
    for e1, e2 in counts.intervals:
        if n_sat >= e1 and n_nviol <= e2:
            v = 1
        elif n_nviol < e1 or n_sat > e2:
            v = 0
        else:
            v = None
        out = k_or(out, v)
        if out == 1:
            return 1
    return out


_UNSET = object()
# the cells a window search stops at: 1, not 0, 0, not 1
_ONE = frozenset((1,))
_NOT_ZERO = frozenset((1, None))
_ZERO = frozenset((0,))
_NOT_ONE = frozenset((0, None))


class Cells:
    """A lowered core formula compiled over one run: one cell function per
    node, where a maximal & chain is one node over its parts.

    ``Cells(run, core, mask)[node]`` is the function ``(agent, t) -> cell``
    of a node of ``core`` other than an & inside a chain: an agent-local
    subformula at (agent, t), a system-level one with agent None. Cells are
    1, 0 or None (?). None occurs only under a ``mask`` (an object with
    ``knows(subject, t)``, such as ``distributed.KnowledgeMask``), where an
    agent-local atom over a hidden state is ?; the same functions are built
    with a mask or without. The functions are built by one fold over the
    core DAG, so compiling does not recurse, and an & chain of any length
    is one loop. Each one calls its operands' functions directly and
    memoizes its cells in ``rows[id(node)]``, one list per agent indexed by
    t (truth, negation and agent binding map an operand's cells and keep
    none); an atom's expression is compiled once. The memos live as long
    as the ``Cells``, one query. A graph operator's neighbors come from the
    run's ``NeighborIndex``, which lives as long as the run and is shared
    by every query on it and by ``is_determinable``.
    Cells do not depend on the order in which they are evaluated, so
    operators may skip operands that cannot change their verdict.
    """

    def __init__(self, run: MasRun, core, mask=None):
        self.run = run
        self.mask = mask
        self.core = core  # keeps the nodes, and so their ids, alive
        self.rows: dict = {}  # id(node) -> its memo (``_memo``)
        self._searches: dict = {}  # (id(node), want) -> first-hit search
        self._fns: dict = {}
        size = run.length + 1
        self._new_row = lambda: [_UNSET] * size
        F.fold(core, self._compile, self._fns, layout=_CELL_OPERANDS)

    def __getitem__(self, node):
        return self._fns[id(node)]

    def _compile(self, f, subs):
        name = _COMPILE.get(type(f))
        if name is None:
            raise TypeError(f"monitor requires a lowered core formula, got {type(f).__name__}")
        return getattr(self, name)(f, *subs)

    def _memo(self, f) -> defaultdict:
        """f's memo, agent -> a list of cells indexed by t, ``_UNSET`` where
        not yet evaluated."""
        rows = self.rows[id(f)] = defaultdict(self._new_row)
        return rows

    def _truth(self, f):
        return lambda agent, t: 1

    def _atom(self, f):
        # an agent-local atom reads the agent's vector of the time slice and
        # is ? where the mask hides it; a system-level one reads the slice
        rows, expr, states = self._memo(f), compile_expr(f.expr), self.run.trajectory.states
        local = type(f) is F.Atom
        knows = self.mask.knows if local and self.mask is not None else None

        def cell(agent, t):
            row = rows[agent]
            v = row[t]
            if v is _UNSET:
                if knows is not None and not knows(agent, t):
                    v = row[t] = None
                else:
                    x = states[t][agent - 1] if local else states[t]
                    v = row[t] = 1 if expr(x) >= 0 else 0
            return v
        return cell

    def _bind(self, f, child):
        bound = f.agent
        return lambda agent, t: child(bound, t)

    def _not(self, f, child):
        return lambda agent, t: k_not(child(agent, t))

    def _and(self, f, *parts):
        """An & chain's cell, the Kleene conjunction of its parts: read left
        to right up to the first 0, as the chain's binary & nodes would."""
        rows = self._memo(f)

        def cell(agent, t):
            row = rows[agent]
            v = row[t]
            if v is _UNSET:
                v = 1
                for part in parts:
                    c = part(agent, t)
                    if c == 0:
                        v = 0
                        break
                    if c is None:
                        v = None
                row[t] = v
            return v
        return cell

    def _until(self, f, left, right):
        # the earliest candidate witness decides (module docstring); F and
        # G lower to a Truth phi1, which is not read. Without a mask every
        # cell is Boolean, "is 1" is "is not 0", and the searches for 1 and
        # for not 1 are those for not 0 and for 0: r is the witness.
        rows, interval, length = self._memo(f), f.interval, self.run.length
        one, not_one = (_NOT_ZERO, _ZERO) if self.mask is None else (_ONE, _NOT_ONE)
        first_not_zero = self._search(f.right, right, _NOT_ZERO)
        first_one = self._search(f.right, right, one)
        left_zero = left_not_one = None
        if type(f.left) is not F.Truth:
            left_zero = self._search(f.left, left, _ZERO)
            left_not_one = self._search(f.left, left, not_one)

        def cell(agent, t):
            row = rows[agent]
            v = row[t]
            if v is _UNSET:
                lo, hi = clamp_window(t, interval, length)
                r = first_not_zero(agent, lo, hi)
                if r is None:
                    v = 0
                else:
                    p = r if right(agent, r) == 1 else first_one(agent, r, hi)
                    if left_zero is None:
                        v = None if p is None else 1
                    elif p is not None and left_not_one(agent, t, p) is None:
                        v = 1
                    else:
                        v = None if left_zero(agent, t, r) is None else 0
                row[t] = v
            return v
        return cell

    def _search(self, g, cell, want):
        """The first-hit search over g's cells: ``first(agent, s, hi)`` is the
        first u in [s, hi] whose cell of g is in ``want``, or None.

        Each (g, agent, want) has a table of next-hit pointers over 0..L+1:
        ``nxt[u] == u`` marks a hit, ``nxt[u] = v > u`` says no cell in
        [u, v) is a hit, and -1 that cell u has not been read. A search
        points every entry on its path at the position it stopped at, so
        overlapping windows share their scans and each cell is read O(1)
        times amortized. No cell past ``hi`` is read.
        """
        key = (id(g), want)
        first = self._searches.get(key)
        if first is not None:
            return first
        tables, size = {}, self.run.length + 2

        def first(agent, s, hi):
            nxt = tables.get(agent)
            if nxt is None:
                nxt = tables[agent] = [-1] * size
            u = s
            while u <= hi:
                v = nxt[u]
                if v == u:
                    break
                if v < 0:
                    if cell(agent, u) in want:
                        nxt[u] = u
                        break
                    v = nxt[u] = u + 1
                u = v
            w = s
            while w < u:
                v = nxt[w]
                nxt[w] = u
                w = v
            return u if u <= hi else None
        self._searches[key] = first
        return first

    def _graph_op(self, f, child):
        """A single-graph operator's cell: ``graph_op_verdict`` of n_sat and
        n_nviol, the edges to neighbors whose child cell is 1, and is 1 or
        ?. The neighbors come from the run's ``NeighborIndex`` of the
        operator's graph, direction and weight window, which every query on
        the run shares: one per edge, so each element counts 1 and a
        neighbor's parallel edges read its memoized cell again.

        The neighbor loop stops once its verdict is fixed. While it runs,
        ``s`` (the edges read so far whose child is 1) can only grow and
        ``n`` (n_nviol plus the edges not yet read) can only shrink, and the
        final counts lie in [s, n]. So with [e1, e2] the first interval of
        the count set that does not end below s (an unbounded sentinel past
        the last), the verdict is already 1 when s >= e1 and n <= e2, and
        already 0 when n < e1: the answer ``graph_op_verdict`` gives on the
        full counts. The loop reads at least one child cell, so a nested
        operator over an unknown graph raises as soon as one of its cells
        is needed.
        """
        rows, counts = self._memo(f), f.counts
        bounds = (*counts.intervals, (INF, INF))
        (tag,), weights = f.graphs, f.weights
        at = self.run.graphs.neighbor_index(tag, f.direction, weights.lo, weights.hi).at
        truth = type(f.child) is F.Truth

        def cell(agent, t):
            row = rows[agent]
            v = row[t]
            if v is _UNSET:
                entry = at(agent, t)
                n = len(entry)
                if truth:
                    s = n
                else:
                    s = k = 0
                    e1, e2 = bounds[0]
                    for j in entry:
                        c = child(j, t)
                        if c == 1:
                            s += 1
                            while s > e2:
                                k += 1
                                e1, e2 = bounds[k]
                        elif c == 0:
                            n -= 1
                        if n < e1:
                            v = 0
                            break
                        if s >= e1 and n <= e2:
                            v = 1
                            break
                if v is _UNSET:
                    v = graph_op_verdict(counts, s, n)
                row[t] = v
            return v
        return cell


def _chain_parts(f) -> tuple:
    """The parts of the maximal & chain at f, left to right: the operands of
    f and of every & below it without another node between."""
    parts, stack = [], [f]
    while stack:
        node = stack.pop()
        if type(node) is F.And:
            stack += (node.right, node.left)
        else:
            parts.append(node)
    return tuple(parts)


# a node's function is compiled over its operands, and an & chain's over its parts
_CELL_OPERANDS = {**F._OPERANDS, F.And: _chain_parts}
# the method that compiles each core node type, by name so that a subclass
# can replace one
_COMPILE = {
    F.Truth: "_truth",
    F.Atom: "_atom",
    F.GlobalAtom: "_atom",
    F.AgentBind: "_bind",
    F.Not: "_not",
    F.And: "_and",
    F.Until: "_until",
    F.GraphOp: "_graph_op",
}


def _signal_end(run: MasRun, f, agent, T: int, strict: bool = False) -> int:
    """Check a query and return the last time of f's signal.

    f must be agent-local at ``agent`` (system-level at agent None) and fit
    the run, and 0 <= T <= L. The signal ends at min(T + T_f, L), or at T
    in strict mode once no bounded window reachable from [0, T] is found to
    end past L.
    """
    if agent is None:
        validate_global(run, f)
    else:
        validate_local(run, f)
        if not 1 <= agent <= run.num_agents:
            raise ValueError(f"unknown agent {agent}")
    length = run.length
    if not 0 <= T <= length:
        raise TimeOutOfRangeError.of(T, 0, length)
    if not strict:
        return int(min(T + horizon(f)[1], length))
    # (subformula, latest time evaluation can reach it at)
    pending = [(f, T)]
    while pending:
        node, t = pending.pop()
        interval = getattr(node, "interval", None)
        if interval is not None:
            if interval.hi == INF:
                t = length
            elif t + interval.hi > length:
                raise InsufficientTraceError(
                    f"insufficient trace: window [{t + interval.lo}, "
                    f"{t + interval.hi}] exceeds length {length}"
                )
            else:
                t += interval.hi
        pending.extend((sub, t) for sub in F.operands(node))
    return T


def signal_cells(run: MasRun, f, agent, T: int, strict: bool = False, mask=None) -> tuple:
    """Cells of f over its signal domain: at ``agent`` for an agent-local
    formula, at system level for agent None; three-valued under a mask.
    The cell functions' recursion past the stack limit is reported as a
    ValueError."""
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    try:
        cell = Cells(run, core, mask)[core]
        return tuple(cell(agent, t) for t in range(end + 1))
    except RecursionError:
        raise ValueError(
            "formula too deep for the monitor "
            f"(Python recursion limit {sys.getrecursionlimit()})"
        ) from None


def monitor_local(
    run: MasRun, f: F.LocalFormula, agent: int, T: int, strict: bool = False
) -> Signal:
    """Boolean satisfaction signal of an agent-local formula at one agent.

    The signal covers [0, min(T + T_f, L)] (or [0, T] in strict mode); its
    value at t is 1 exactly when the run satisfies f at (agent, t).
    """
    return Signal(0, signal_cells(run, f, agent, T, strict))


def monitor_global(run: MasRun, f: F.GlobalFormula, T: int, strict: bool = False) -> Signal:
    """Boolean satisfaction signal of a system-level formula."""
    return Signal(0, signal_cells(run, f, None, T, strict))


# ---------------------------------------------------------------------------
# independent semantics oracle
#
# A direct recursive transcription of the satisfaction relation. No memo, no
# lowering: sugar is interpreted through its defining semantics. Kept free of
# the evaluator machinery above so the two routes can check each other.


def oracle_eval(run: MasRun, f, agent: int | None, t: int) -> int:
    """1 iff the run satisfies f at (agent, t): an agent-local formula at an
    agent, a system-level one at agent None."""
    if isinstance(f, F.Truth):
        return 1
    if agent is None and isinstance(f, (F.Atom, F.GraphOp)):
        raise TypeError(f"not a global formula: {f!r}")
    if agent is not None and isinstance(
        f, (F.GlobalAtom, F.AgentBind, F.ForAllAgents, F.ExistsAgent)
    ):
        raise TypeError(f"not a local formula: {f!r}")
    if isinstance(f, F.Atom):
        return 1 if eval_expr(f.expr, run.trajectory.state(agent, t)) >= 0 else 0
    if isinstance(f, F.GlobalAtom):
        return 1 if eval_expr(f.expr, run.trajectory.full_state(t)) >= 0 else 0
    if isinstance(f, F.AgentBind):
        return oracle_eval(run, f.child, f.agent, t)
    if isinstance(f, F.Not):
        return 1 - oracle_eval(run, f.child, agent, t)
    if isinstance(f, F.And):
        return min(oracle_eval(run, f.left, agent, t), oracle_eval(run, f.right, agent, t))
    if isinstance(f, F.Or):
        return max(oracle_eval(run, f.left, agent, t), oracle_eval(run, f.right, agent, t))
    if isinstance(f, F.Implies):
        return max(1 - oracle_eval(run, f.left, agent, t), oracle_eval(run, f.right, agent, t))
    if isinstance(f, F.Until):
        lo, hi = _oracle_window(t, f.interval, run.length)
        for t2 in range(lo, hi + 1):
            if oracle_eval(run, f.right, agent, t2) == 1 and all(
                oracle_eval(run, f.left, agent, u) == 1 for u in range(t, t2 + 1)
            ):
                return 1
        return 0
    if isinstance(f, F.Eventually):
        lo, hi = _oracle_window(t, f.interval, run.length)
        return 1 if any(
            oracle_eval(run, f.child, agent, t2) == 1 for t2 in range(lo, hi + 1)
        ) else 0
    if isinstance(f, F.Always):
        lo, hi = _oracle_window(t, f.interval, run.length)
        return 1 if all(
            oracle_eval(run, f.child, agent, t2) == 1 for t2 in range(lo, hi + 1)
        ) else 0
    if isinstance(f, F.GraphOp):
        per_graph = []
        for tag in f.graphs:
            snap = run.graphs.at(tag, t)
            count = 0
            for e in snap.oriented_edges(agent, f.direction):
                if f.weights.contains(e.weight):
                    j = e.src if f.direction == "in" else e.dst
                    count += oracle_eval(run, f.child, j, t)
            per_graph.append(f.counts.contains(count))
        ok = any(per_graph) if f.quantifier == "exists" else all(per_graph)
        return 1 if ok else 0
    if isinstance(f, F.ForAllAgents):
        return 1 if all(oracle_eval(run, f.child, a, t) == 1 for a in f.agents) else 0
    if isinstance(f, F.ExistsAgent):
        return 1 if any(oracle_eval(run, f.child, a, t) == 1 for a in f.agents) else 0
    raise TypeError(f"not a formula: {f!r}")


def oracle_eval_global(run: MasRun, f: F.GlobalFormula, t: int) -> int:
    """1 iff the run satisfies the system-level formula at time t."""
    return oracle_eval(run, f, None, t)


def _oracle_window(t: int, interval: F.TimeInterval, length: int) -> tuple[int, int]:
    # same finite-trace convention as the monitor, transcribed separately
    if interval.hi == INF:
        return (min(t + interval.lo, length), length)
    return (t + interval.lo, min(t + int(interval.hi), length))
