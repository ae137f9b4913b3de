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

``signal_cells`` evaluates the part of the core above the graph operators
(every node the root reaches without crossing one) as whole rows over the
times the signal needs, bottom-up by a walk on an explicit stack
(``Cells._signal``): an atom is one comprehension over the trajectory,
negation and & map and filter their operands' rows, and Until sweeps its
operands' rows once per kind of cell sought. A subformula without graph
operators is filled over the whole range of times it is asked for. Graph
operators, and everything below them, stay pointwise: one cell function
call per (agent, t), reading its operands' cells on demand. Above them, a
row reads each operand only at the cells its pointwise cells read (an &
part only where the parts before it are not 0), so every graph-operator
cell that the pointwise drive evaluates is evaluated, and no other. Rows
do not recurse, so a U chain above the graph operators may have any
length; below one, cells recurse once per nesting level of the formula.

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
agent in all, and never reads a cell outside [t, t + b]. A row of Until
applies the same rule with one forward sweep over its windows in order.

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
import weakref
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from . import formula as F
from .formula import INF, compile_expr, eval_expr, expr_vars, horizon, lower
from .model import MasRun, TimeOutOfRangeError


class InsufficientTraceError(ValueError):
    """Raised in strict mode when the trace is too short for a bounded window."""


@dataclass(frozen=True)
class Signal:
    """Per-time verdicts over the contiguous domain t0..t0+len-1: 0, 1, or
    None for ?. A centralized signal is one without ?. The monitors return
    one object for equal signals while it lives (``_shared_signal``)."""

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


# the live monitor signals by their values: a caller that keeps the answers
# of repeated queries holds each distinct signal once
_SIGNALS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_signal(values: tuple) -> Signal:
    """``Signal(0, values)``, or the live monitor signal equal to it."""
    sig = _SIGNALS.get(values)
    if sig is None:
        sig = _SIGNALS[values] = Signal(0, values)
    return sig


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
    none); an atom's expression is compiled once. The same fold marks the
    nodes without a graph operator at or below them, whose rows ``_signal``
    fills over whole ranges; rows share the memos with the functions. The
    memos live as long as the ``Cells``, one query. A graph operator's
    neighbors come from the run's ``NeighborIndex``, which lives as long as
    the run and is shared by every query on it and by ``is_determinable``.
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
        self._over_graphs: set = set()  # id(node) with a graph operator at or below it
        self._exprs: dict = {}  # id(atom) -> its compiled expression
        self._spans: dict = {}  # (id(node), agent) -> the span its row covers
        self._negations: dict = {}  # (id(not node), agent) -> its row
        size = run.length + 1
        self._new_row = lambda: [_UNSET] * size
        F.fold(core, self._compile, self._fns, layout=_CELL_OPERANDS)

    def __getitem__(self, node):
        return self._fns[id(node)]

    def _compile(self, f, subs):
        name = _COMPILE.get(type(f))
        if name is None:
            raise TypeError(f"monitor requires a lowered core formula, got {type(f).__name__}")
        over = self._over_graphs
        if type(f) is F.GraphOp or not over.isdisjoint(map(id, _CELL_OPERANDS[type(f)](f))):
            over.add(id(f))
        return getattr(self, name)(f, *subs)

    def _graph_free(self, f) -> bool:
        """Whether no graph operator is at or below f."""
        return id(f) not in self._over_graphs

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
        self._exprs[id(f)] = expr
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

    # whole rows above the graph operators: a request (node, agent, times)
    # fills the node's row at those times and returns it, a list indexed by
    # t. A memoized node's row is its memo, a negation keeps its own, and an
    # agent binding's is its operand's at the bound agent.

    def _signal(self, agent, end: int) -> tuple:
        """The root's cells at agent over [0, end], evaluated as rows.

        A request that reads operand rows is a generator: it yields their
        requests and receives their rows. The generators wait on an explicit
        stack, so the walk does not recurse. A graph-free node fills its row
        over the whole range from its first to its last requested time. Any
        other node fills exactly the requested times and requests of its
        operands exactly the cells its cell function reads first; an Until
        reads on through its first-hit searches. So every graph operator is
        read at the same (agent, t) cells as by the pointwise drive, through
        its cell function.
        """
        stack, row = [], self._row(self.core, agent, range(end + 1))
        while True:
            if type(row) is not list:  # a request that reads operand rows
                stack.append(row)
                row = None
            elif not stack:
                return tuple(row[:end + 1])
            try:
                row = self._row(*stack[-1].send(row))
            except StopIteration as done:
                stack.pop()
                row = done.value

    def _row(self, f, agent, times):
        return _ROW[type(f)](self, f, agent, times)

    def _todo(self, f, agent, times, row):
        """The times a request must fill in f's row: for a graph-free f the
        range from the first to the last requested time, unless an earlier
        request covered it; for any other f the requested times not yet
        filled."""
        if not self._graph_free(f):
            todo = [t for t in times if row[t] is _UNSET]
            return times if len(todo) == len(times) else todo
        lo, hi = times[0], times[-1]
        key = (id(f), agent)
        span = self._spans.get(key)
        if span is not None and lo <= span[1] + 1 and span[0] <= hi + 1:
            if span[0] <= lo and hi <= span[1]:
                return ()
            self._spans[key] = (min(lo, span[0]), max(hi, span[1]))
        else:
            self._spans[key] = (lo, hi)
        return range(lo, hi + 1)

    def _truth_row(self, f, agent, times):
        return [1] * (self.run.length + 1)

    def _atom_row(self, f, agent, times):
        row = self.rows[id(f)][agent]
        todo = self._todo(f, agent, times, row)
        if todo:
            expr = self._exprs[id(f)]
            states = self.run.trajectory.states[todo.start:todo.stop]
            if type(f) is F.GlobalAtom:
                values = [1 if expr(x) >= 0 else 0 for x in states]
            elif self.mask is None:
                i = agent - 1
                values = [1 if expr(x[i]) >= 0 else 0 for x in states]
            else:
                i, knows = agent - 1, self.mask.knows
                values = [(1 if expr(x[i]) >= 0 else 0) if knows(agent, t) else None
                          for t, x in zip(todo, states)]
            row[todo.start:todo.stop] = values
        return row

    def _bind_row(self, f, agent, times):
        return (yield f.child, f.agent, times)

    def _not_row(self, f, agent, times):
        key = (id(f), agent)
        row = self._negations.get(key)
        if row is None:
            row = self._negations[key] = self._new_row()
        todo = self._todo(f, agent, times, row)
        if todo:
            cells = yield f.child, agent, todo
            _fill(row, todo, [None if c is None else 1 - c for c in _take(cells, todo)])
        return row

    def _and_row(self, f, agent, times):
        """Each part is read where every part before it is not 0, as the
        chain's cell reads it."""
        row = self.rows[id(f)][agent]
        todo = self._todo(f, agent, times, row)
        if todo:
            alive, unknown = todo, set()
            for part in _chain_parts(f):
                cells = yield part, agent, alive
                if self.mask is not None:
                    unknown.update(t for t in alive if cells[t] is None)
                alive = [t for t in alive if cells[t] != 0]
                if not alive:
                    break
            _fill(row, todo, [0] * len(todo))
            for t in alive:
                row[t] = None if t in unknown else 1
        return row

    def _until_row(self, f, agent, times):
        """The rule of ``_until`` over rows: per window the first phi2 cell
        r other than 0, the first 1 from r, and phi1's first cell other than
        1 up to that 1 or first 0 up to r, each found by one forward sweep
        over the windows (``_first_hits``). A graph-free operand is filled
        over all the windows; another only where every cell of the Until
        reads it first (the window start for phi2, t for phi1, once a
        witness is found), and the sweeps read on through its first-hit
        searches."""
        row = self.rows[id(f)][agent]
        todo = self._todo(f, agent, times, row)
        if not todo:
            return row
        left, right, length = f.left, f.right, self.run.length
        a, b = f.interval.lo, f.interval.hi
        if b == INF:
            starts, ends = [min(t + a, length) for t in todo], [length] * len(todo)
        else:
            b = int(b)
            starts = [t + a for t in todo]
            ends = [t + b if t + b < length else length for t in todo]
        live = bisect_right(starts, length)  # the windows that are not empty
        if not live:
            _fill(row, todo, [0] * len(todo))
            return row
        if self._graph_free(right):
            cells = yield right, agent, range(starts[0], ends[live - 1] + 1)
        else:
            cells = yield right, agent, list(dict.fromkeys(starts[:live]))
        witness = self._first_hits(cells, starts, ends, _NOT_ZERO, right, agent)
        ones = witness  # without a mask, a cell other than 0 is 1
        if self.mask is not None:
            ones = list(witness)
            ks = [k for k, r in enumerate(witness) if r is not None and cells[r] is None]
            found = self._first_hits(
                cells, [witness[k] for k in ks], [ends[k] for k in ks], _ONE, right, agent)
            for k, p in zip(ks, found):
                ones[k] = p
        if type(left) is F.Truth:
            _fill(row, todo, [0 if r is None else 1 if p is not None else None
                              for r, p in zip(witness, ones)])
            return row
        values = [0] * len(todo)
        ks = [k for k, r in enumerate(witness) if r is not None]
        if ks:
            if self._graph_free(left):
                last = max(witness[k] if ones[k] is None else ones[k] for k in ks)
                cells = yield left, agent, range(todo[ks[0]], last + 1)
            else:
                cells = yield left, agent, [todo[k] for k in ks]
            with_one = [k for k in ks if ones[k] is not None]
            found = self._first_hits(cells, [todo[k] for k in with_one],
                                     [ones[k] for k in with_one],
                                     _ZERO if self.mask is None else _NOT_ONE, left, agent)
            for k, q in zip(with_one, found):
                if q is None:  # phi1 is 1 up to the first 1 of phi2
                    values[k] = 1
            if self.mask is not None:  # without a mask, the cell other than 1 found is a 0
                ks = [k for k in ks if values[k] != 1]
                found = self._first_hits(cells, [todo[k] for k in ks],
                                         [witness[k] for k in ks], _ZERO, left, agent)
                for k, z in zip(ks, found):
                    values[k] = None if z is None else 0
        _fill(row, todo, values)
        return row

    def _first_hits(self, cells, starts, ends, want, g, agent) -> list:
        """For windows [s, hi] in nondecreasing order of s: the first u in
        each whose cell of g is in ``want``, or None. One cursor sweeps the
        windows over ``cells``, g's row, so no cell is visited twice; where
        the row lacks a cell, g's first-hit search reads on from it, just as
        the window's pointwise cell would."""
        hits, u, search = [], 0, None
        for s, hi in zip(starts, ends):
            if u < s:
                u = s
            while u <= hi:
                c = cells[u]
                if c in want:
                    break
                if c is _UNSET:
                    cell = self._fns[id(g)]
                    if search is None:
                        search = self._search(g, cell, want)
                    u = search(agent, u, hi)
                    if u is None:
                        u = hi + 1
                    elif cells[u] is _UNSET:  # a negation's row: the search fills its operand's
                        cells[u] = cell(agent, u)
                    break
                u += 1
            hits.append(u if u <= hi else None)
        return hits

    def _graph_op_row(self, f, agent, times):
        cell, row = self._fns[id(f)], self.rows[id(f)][agent]
        for t in times:
            row[t] = cell(agent, t)
        return row


def _take(cells, times) -> list:
    """cells at times, a range or a list of times."""
    if type(times) is range:
        return cells[times.start:times.stop]
    return [cells[t] for t in times]


def _fill(row, times, values):
    """Set row at times, a range or a list of times, to values."""
    if type(times) is range:
        row[times.start:times.stop] = values
    else:
        for t, v in zip(times, values):
            row[t] = v


def _chain_parts(f) -> tuple:
    """The parts of the maximal & chain at f, left to right: the operands of
    f and of every & below it without another node between. A shared & node
    or part is taken once, where it first occurs: Kleene & is idempotent,
    and a part read again would be a memo hit, so the chain reads the same
    cells and stops at the same part, and a DAG of shared & nodes gives a
    chain as long as the DAG, not one part per path through it."""
    parts, seen, stack = [], set(), [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
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
# the method that fills each core node type's row
_ROW = {
    F.Truth: Cells._truth_row,
    F.Atom: Cells._atom_row,
    F.GlobalAtom: Cells._atom_row,
    F.AgentBind: Cells._bind_row,
    F.Not: Cells._not_row,
    F.And: Cells._and_row,
    F.Until: Cells._until_row,
    F.GraphOp: Cells._graph_op_row,
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

    The nodes above the graph operators are evaluated as whole rows
    (``Cells._signal``), and may evaluate an atom at a time that the
    pointwise cells never read. If the rows raise, the query is driven
    pointwise from fresh cells, so it ends with the error it raises there.
    The cell functions' recursion past the stack limit is reported as a
    ValueError."""
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    try:
        return Cells(run, core, mask)._signal(agent, end)
    except Exception:
        pass
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
    return _shared_signal(signal_cells(run, f, agent, T, strict))


def monitor_global(run: MasRun, f: F.GlobalFormula, T: int, strict: bool = False) -> Signal:
    """Boolean satisfaction signal of a system-level formula."""
    return _shared_signal(signal_cells(run, f, None, T, strict))


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
