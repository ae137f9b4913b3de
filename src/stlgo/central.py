"""Offline monitoring: satisfaction signals from one memoized evaluator.

``Evaluator`` is the semantic kernel of the centralized and the distributed
monitor alike. It evaluates a formula lowered to the core fragment pointwise
and memoizes every (subformula, agent, time) cell. A cell is 1, 0 or None
(?). Without a knowledge mask every state is visible and every cell is
Boolean; ``monitor_local``, ``monitor_global`` and ``signal_table`` read the
cells that way. Under a mask (``distributed.monitor_dist``) an atom over a
hidden state is ?, negation and conjunction follow the strong Kleene tables,
and Until is the Kleene disjunction over its witness times. A graph
operator counts, per graph tag, the edges to neighbors that satisfy its
child (n_sat) and to those that do not violate it (n_nviol), and decides
with ``graph_op_verdict``; several tags combine by Kleene any (exists) or
all (forall). With no ? among the neighbors the two counts are equal and
the verdict is the Boolean count test, so the central monitor is the
mask-free case of the distributed one.

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
and must not share evaluation logic with it.

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

from dataclasses import dataclass

from . import formula as F
from .formula import INF, eval_expr, expr_vars, horizon, lower
from .model import MasRun, TimeOutOfRangeError, neighbor_multiplicities


class InsufficientTraceError(ValueError):
    """Raised in strict mode when the trace is too short for a bounded window."""


@dataclass(frozen=True, slots=True)
class BoolSignal:
    """Boolean satisfaction signal over the contiguous domain t0..t0+len-1."""

    t0: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("signal domain must be non-empty")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("Boolean signal values must be 0 or 1")

    @property
    def t1(self) -> int:
        return self.t0 + len(self.values) - 1

    def value_at(self, t: int) -> int:
        if not self.t0 <= t <= self.t1:
            raise TimeOutOfRangeError("time out of range")
        return self.values[t - self.t0]


@dataclass(frozen=True)
class SignalTable:
    """Signals of every core subformula, per agent (or None for system level)."""

    entries: dict

    def signal(self, subformula, agent=None) -> BoolSignal:
        return self.entries[(subformula, agent)]


_BINDERS = (F.AgentBind, F.ForAllAgents, F.ExistsAgent)
_SYSTEM_ONLY = (F.GlobalAtom,) + _BINDERS


def validate_local(run: MasRun, f: F.LocalFormula):
    """Check that f is agent-local and its state accessors fit the run."""
    for node in _nodes(f):
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
    system = list(_nodes(f, into_binders=False))
    for node in system:
        if isinstance(node, (F.Atom, F.GraphOp)):
            raise ValueError(
                f"{type(node).__name__} outside an agent binding in a system-level formula"
            )
    for node in system:
        if isinstance(node, _BINDERS):
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


def _operands(f) -> tuple:
    """The direct subformulas of a formula node, sugar included."""
    if hasattr(f, "child"):
        return (f.child,)
    if hasattr(f, "left"):
        return (f.left, f.right)
    return ()


def _nodes(f, into_binders: bool = True):
    """The nodes of f in pre-order; with ``into_binders`` False, only the
    system-level part (binders are yielded, their children are not)."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if into_binders or not isinstance(node, _BINDERS):
            stack.extend(reversed(_operands(node)))


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


def k_and(a, b):
    if a == 0 or b == 0:
        return 0
    if a is None or b is None:
        return None
    return 1


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


class Evaluator:
    """Memoized pointwise evaluation of core formulas over one run.

    ``eval(f, agent, t)`` is the cell of a lowered formula: an agent-local
    subformula at (agent, t), a system-level one with agent None. Cells are
    1, 0 or None (?). None occurs only under a ``mask`` (an object with
    ``knows(subject, t)``, such as ``distributed.KnowledgeMask``), where an
    agent-local atom over a hidden state is ?. Cells do not depend on the
    order in which they are evaluated, so operators may skip operands that
    cannot change their verdict.
    """

    def __init__(self, run: MasRun, mask=None):
        self.run = run
        self.mask = mask
        self._static = run.graphs.static
        self._memo: dict = {}
        self._mult: dict = {}
        self._next: dict = {}

    def eval(self, f, agent, t):
        key = (id(f), agent, t)
        v = self._memo.get(key, _UNSET)
        if v is _UNSET:
            handler = _HANDLERS.get(type(f))
            if handler is None:
                raise TypeError(
                    f"monitor requires a lowered core formula, got {type(f).__name__}"
                )
            v = self._memo[key] = handler(self, f, agent, t)
        return v

    def _truth(self, f, agent, t):
        return 1

    def _atom(self, f, agent, t):
        if self.mask is not None and not self.mask.knows(agent, t):
            return None
        state = self.run.trajectory.state(agent, t)
        return 1 if eval_expr(f.expr, local_state=state) >= 0 else 0

    def _global_atom(self, f, agent, t):
        full = self.run.trajectory.full_state(t)
        return 1 if eval_expr(f.expr, full_state=full) >= 0 else 0

    def _bind(self, f, agent, t):
        return self.eval(f.child, f.agent, t)

    def _not(self, f, agent, t):
        return k_not(self.eval(f.child, agent, t))

    def _and(self, f, agent, t):
        a = self.eval(f.left, agent, t)
        return 0 if a == 0 else k_and(a, self.eval(f.right, agent, t))

    def _until(self, f, agent, t):
        # the earliest candidate witness decides (module docstring); F and
        # G lower to a Truth phi1, which is not read
        lo, hi = clamp_window(t, f.interval, self.run.length)
        r = self._first(f.right, agent, lo, hi, _NOT_ZERO)
        if r is None:
            return 0
        left = None if type(f.left) is F.Truth else f.left
        if self.mask is None:  # Boolean cells: r is the witness
            return 1 if left is None or self._first(left, agent, t, r, _ZERO) is None else 0
        p = r if self.eval(f.right, agent, r) == 1 else self._first(f.right, agent, r, hi, _ONE)
        if left is None:
            return None if p is None else 1
        if p is not None and self._first(left, agent, t, p, _NOT_ONE) is None:
            return 1
        return None if self._first(left, agent, t, r, _ZERO) is None else 0

    def _first(self, g, agent, s, hi, want):
        """The first u in [s, hi] whose cell of g is in ``want``, or None.

        Each (g, agent, want) has a table of next-hit pointers over 0..L+1:
        ``nxt[u] == u`` marks a hit, ``nxt[u] = v > u`` says no cell in
        [u, v) is a hit, and -1 that cell u has not been read. A search
        points every entry on its path at the position it stopped at, so
        overlapping windows share their scans and each cell is read O(1)
        times amortized. No cell past ``hi`` is read.
        """
        key = (id(g), agent, want)
        nxt = self._next.get(key)
        if nxt is None:
            nxt = self._next[key] = [-1] * (self.run.length + 2)
        u = s
        while u <= hi:
            v = nxt[u]
            if v == u:
                break
            if v < 0:
                if self.eval(g, agent, u) in want:
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

    def _graph_op(self, f, agent, t):
        # exists is Kleene any over the tags, forall Kleene all; a decisive
        # tag verdict ends the scan
        decisive = 1 if f.quantifier == "exists" else 0
        out = 1 - decisive
        for tag in f.graphs:
            n_sat, n_nviol = self._counts(f, tag, agent, t)
            v = graph_op_verdict(f.counts, n_sat, n_nviol)
            if v == decisive:
                return v
            if v is None:
                out = None
        return out

    def _counts(self, f, tag, agent, t) -> tuple[int, int]:
        """(n_sat, n_nviol) of one tag of a graph operator: edges to
        neighbors whose child cell is 1, and is 1 or ?."""
        key = (id(f), tag, agent, None if tag in self._static else t)
        hit = self._mult.get(key)
        if hit is None:
            mult = neighbor_multiplicities(
                self.run, tag, t, agent, f.direction, f.weights.bounds
            )
            hit = self._mult[key] = (tuple(mult.items()), sum(mult.values()))
        mult, edges = hit
        if type(f.child) is F.Truth:
            return edges, edges
        n_sat = n_unknown = 0
        for j, m in mult:
            v = self.eval(f.child, j, t)
            if v == 1:
                n_sat += m
            elif v is None:
                n_unknown += m
        return n_sat, n_sat + n_unknown


_HANDLERS = {
    F.Truth: Evaluator._truth,
    F.Atom: Evaluator._atom,
    F.GlobalAtom: Evaluator._global_atom,
    F.AgentBind: Evaluator._bind,
    F.Not: Evaluator._not,
    F.And: Evaluator._and,
    F.Until: Evaluator._until,
    F.GraphOp: Evaluator._graph_op,
}


def _signal_domain_end(f, T: int, length: int, strict: bool) -> int:
    """Last time of the signal: min(T + T_f, L), or T in strict mode once
    no bounded window reachable from [0, T] is found to end past L."""
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
        pending.extend((sub, t) for sub in _operands(node))
    return T


def signal_cells(run: MasRun, f, agent, T: int, strict: bool = False, mask=None) -> tuple:
    """Cells of f over its signal domain: at ``agent`` for an agent-local
    formula, at system level for agent None; three-valued under a mask."""
    if agent is None:
        validate_global(run, f)
    else:
        validate_local(run, f)
        if not 1 <= agent <= run.num_agents:
            raise ValueError(f"unknown agent {agent}")
    if not 0 <= T <= run.length:
        raise TimeOutOfRangeError("time out of range")
    end = _signal_domain_end(f, T, run.length, strict)
    core = lower(f)
    ev = Evaluator(run, mask)
    return tuple(ev.eval(core, agent, t) for t in range(end + 1))


def monitor_local(
    run: MasRun, f: F.LocalFormula, agent: int, T: int, strict: bool = False
) -> BoolSignal:
    """Boolean satisfaction signal of an agent-local formula at one agent.

    The signal covers [0, min(T + T_f, L)] (or [0, T] in strict mode); its
    value at t is 1 exactly when the run satisfies f at (agent, t).
    """
    return BoolSignal(0, signal_cells(run, f, agent, T, strict))


def monitor_global(
    run: MasRun, f: F.GlobalFormula, T: int, strict: bool = False
) -> BoolSignal:
    """Boolean satisfaction signal of a system-level formula."""
    return BoolSignal(0, signal_cells(run, f, None, T, strict))


def signal_table(
    run: MasRun, f: F.LocalFormula | F.GlobalFormula, T: int, strict: bool = False
) -> SignalTable:
    """Signals of every core subformula over [0, min(T + T_f, L)].

    f is system-level when it binds an agent or reads the whole state, and
    agent-local otherwise. Local subformulas get one signal per agent;
    system-level subformulas one signal under the agent key None.
    """
    system = any(isinstance(node, _SYSTEM_ONLY) for node in _nodes(f))
    if system:
        validate_global(run, f)
    else:
        validate_local(run, f)
    end = _signal_domain_end(f, T, run.length, strict)
    core = lower(f)
    ev = Evaluator(run)
    entries: dict = {}

    def add(sub, local: bool):
        for agent in range(1, run.num_agents + 1) if local else (None,):
            entries[(sub, agent)] = BoolSignal(
                0, tuple(ev.eval(sub, agent, t) for t in range(end + 1))
            )
        for child in _operands(sub):
            add(child, local or isinstance(sub, F.AgentBind))

    add(core, not system)
    return SignalTable(entries)


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
        return 1 if eval_expr(f.expr, local_state=run.trajectory.state(agent, t)) >= 0 else 0
    if isinstance(f, F.GlobalAtom):
        return 1 if eval_expr(f.expr, full_state=run.trajectory.full_state(t)) >= 0 else 0
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
