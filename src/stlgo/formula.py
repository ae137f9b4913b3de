"""Formula ASTs for the agent-local and the system-level logic layers.

Both layers are built from one set of Boolean and temporal nodes (Truth,
Not, And, Or, Implies, Until, Eventually, Always), each a ``LocalFormula``
and a ``GlobalFormula`` at once. The layers differ only in their leaves:
the agent-local layer adds atoms over the current agent's state (``Atom``)
and the graph operators In/Out (``GraphOp``); the system-level layer adds
predicates over the whole MAS state (``GlobalAtom``) and embeds local
formulas through agent binding (``AgentBind``, ``ForAllAgents``,
``ExistsAgent``). Sugar (Or, Implies, F, G, FA, EX) is kept as explicit AST
nodes; monitors lower to the core {truth, atom, not, and, until, graph op /
agent bind} before evaluating, so there is a single semantic kernel.

All nodes are frozen dataclasses; every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

INF = math.inf


# ---------------------------------------------------------------------------
# intervals and count sets


@dataclass(frozen=True)
class TimeInterval:
    """Closed discrete interval [lo, hi]; hi may be infinite."""

    lo: int
    hi: float  # int or math.inf

    def __post_init__(self):
        if self.lo < 0 or (self.hi != INF and self.hi < 0):
            raise ValueError("time interval bounds must be >= 0")
        if self.lo > self.hi:
            raise ValueError(f"time interval reversed: [{self.lo}, {self.hi}]")
        if self.hi != INF and int(self.hi) != self.hi:
            raise ValueError("finite time bounds must be integers")
        object.__setattr__(self, "lo", int(self.lo))
        if self.hi != INF:
            object.__setattr__(self, "hi", int(self.hi))


@dataclass(frozen=True)
class WeightInterval:
    """Closed real interval [lo, hi]; either bound may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("weight bounds may not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"weight interval reversed: [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    def contains(self, w: float) -> bool:
        return self.lo <= w <= self.hi

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.lo, self.hi)


FULL_WEIGHTS = WeightInterval(-INF, INF)


@dataclass(frozen=True)
class CountSet:
    """Finite union of disjoint closed integer intervals within [0, inf].

    Stored canonically: sorted, disjoint, with adjacent intervals merged.
    The complement within {0, 1, ...} u {inf} is again a CountSet, which is
    what negation elimination over graph operators produces. The empty
    union is legal and contains no count.
    """

    intervals: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canon_intervals(self.intervals))

    @classmethod
    def single(cls, lo: int, hi: float) -> CountSet:
        return cls(((lo, hi),))

    @classmethod
    def empty(cls) -> CountSet:
        return cls(())

    @classmethod
    def full(cls) -> CountSet:
        return cls(((0, INF),))

    def contains(self, k: int) -> bool:
        return any(lo <= k <= hi for lo, hi in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def min_value(self) -> float:
        """Smallest member; inf for the empty set (no count can satisfy it)."""
        return self.intervals[0][0] if self.intervals else INF

    def complement(self) -> CountSet:
        """Complement within {0, 1, ...} u {inf}."""
        out: list[tuple[int, float]] = []
        next_lo = 0
        for lo, hi in self.intervals:
            if lo > next_lo:
                out.append((next_lo, lo - 1))
            if hi == INF:
                return CountSet(tuple(out))
            next_lo = int(hi) + 1
        out.append((next_lo, INF))
        return CountSet(tuple(out))

    def union(self, other: CountSet) -> CountSet:
        return CountSet(self.intervals + other.intervals)


def _canon_intervals(intervals) -> tuple[tuple[int, float], ...]:
    cleaned = []
    for lo, hi in intervals:
        if lo < 0:
            raise ValueError("count bounds must be >= 0")
        if lo > hi:
            raise ValueError(f"count interval reversed: [{lo}, {hi}]")
        if int(lo) != lo or (hi != INF and int(hi) != hi):
            raise ValueError("finite count bounds must be integers")
        cleaned.append((int(lo), INF if hi == INF else int(hi)))
    cleaned.sort()
    merged: list[list] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


# ---------------------------------------------------------------------------
# arithmetic expressions over states


class Expr:
    """Base class for predicate-function expression trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class StateVar(Expr):
    """Component k of the current agent's state (local layer only)."""

    index: int


@dataclass(frozen=True)
class AgentStateVar(Expr):
    """Component k of a named agent's state (global layer only)."""

    agent: int
    index: int


@dataclass(frozen=True)
class BinOp(Expr):
    op: Literal["+", "-", "*", "/"]
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryFn(Expr):
    fn: Literal["abs", "sqrt"]
    arg: Expr


@dataclass(frozen=True)
class BinFn(Expr):
    fn: Literal["min", "max"]
    left: Expr
    right: Expr


def eval_expr(expr: Expr, local_state=None, full_state=None) -> float:
    """Evaluate an expression against an agent state and/or the MAS state."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, StateVar):
        return local_state[expr.index]
    if isinstance(expr, AgentStateVar):
        return full_state[expr.agent - 1][expr.index]
    if isinstance(expr, BinOp):
        a = eval_expr(expr.left, local_state, full_state)
        b = eval_expr(expr.right, local_state, full_state)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if b == 0:
            raise ValueError("division by zero in predicate function")
        return a / b
    if isinstance(expr, UnaryFn):
        a = eval_expr(expr.arg, local_state, full_state)
        if expr.fn == "abs":
            return abs(a)
        if a < 0:
            raise ValueError("sqrt of a negative value in predicate function")
        return math.sqrt(a)
    if isinstance(expr, BinFn):
        a = eval_expr(expr.left, local_state, full_state)
        b = eval_expr(expr.right, local_state, full_state)
        return min(a, b) if expr.fn == "min" else max(a, b)
    raise TypeError(f"not an expression: {expr!r}")


def expr_vars(expr: Expr) -> set[Expr]:
    """All StateVar/AgentStateVar leaves of an expression."""
    if isinstance(expr, (StateVar, AgentStateVar)):
        return {expr}
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, UnaryFn):
        return expr_vars(expr.arg)
    if isinstance(expr, BinFn):
        return expr_vars(expr.left) | expr_vars(expr.right)
    return set()


# ---------------------------------------------------------------------------
# formulas


class LocalFormula:
    __slots__ = ()


class GlobalFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Truth(LocalFormula, GlobalFormula):
    pass


@dataclass(frozen=True)
class Not(LocalFormula, GlobalFormula):
    child: Formula


@dataclass(frozen=True)
class And(LocalFormula, GlobalFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(LocalFormula, GlobalFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(LocalFormula, GlobalFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(LocalFormula, GlobalFormula):
    left: Formula
    right: Formula
    interval: TimeInterval


@dataclass(frozen=True)
class Eventually(LocalFormula, GlobalFormula):
    child: Formula
    interval: TimeInterval


@dataclass(frozen=True)
class Always(LocalFormula, GlobalFormula):
    child: Formula
    interval: TimeInterval


@dataclass(frozen=True)
class Atom(LocalFormula):
    """Predicate mu(x_t^i) >= 0 over the current agent's state."""

    expr: Expr


@dataclass(frozen=True)
class GraphOp(LocalFormula):
    """In/Out neighbor-counting operator.

    Counts edges in the named graphs (incoming to or outgoing from the
    current agent) whose weight lies in ``weights`` and whose opposite
    endpoint satisfies ``child``; the count must fall in ``counts``. The
    quantifier ranges over the graph tags: with ``exists`` one graph must
    pass, with ``forall`` all of them.
    """

    direction: Literal["in", "out"]
    quantifier: Literal["exists", "forall"]
    graphs: tuple[str, ...]
    counts: CountSet
    weights: WeightInterval
    child: LocalFormula

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("graph operator needs at least one graph tag")
        if len(set(self.graphs)) != len(self.graphs):
            raise ValueError("duplicate graph tag in graph operator")


@dataclass(frozen=True)
class GlobalAtom(GlobalFormula):
    """Predicate mu(x_t) >= 0 over the full MAS state."""

    expr: Expr


@dataclass(frozen=True)
class AgentBind(GlobalFormula):
    """Impose a local formula on one named agent (the i.phi operator)."""

    agent: int
    child: LocalFormula

    def __post_init__(self):
        if self.agent < 1:
            raise ValueError("agent indices start at 1")


@dataclass(frozen=True)
class ForAllAgents(GlobalFormula):
    """FA_V: the bound local formula must hold at every agent in V."""

    agents: tuple[int, ...]
    child: LocalFormula

    def __post_init__(self):
        _check_agent_set(self.agents)


@dataclass(frozen=True)
class ExistsAgent(GlobalFormula):
    """EX_V: the bound local formula must hold at some agent in V."""

    agents: tuple[int, ...]
    child: LocalFormula

    def __post_init__(self):
        _check_agent_set(self.agents)


def _check_agent_set(agents: tuple[int, ...]):
    if not agents:
        raise ValueError("agent set must be non-empty")
    if any(a < 1 for a in agents):
        raise ValueError("agent indices start at 1")
    if len(set(agents)) != len(agents):
        raise ValueError("duplicate agent in agent set")


Formula = Union[LocalFormula, GlobalFormula]

FALSITY = Not(Truth())


# ---------------------------------------------------------------------------
# horizon


def horizon(f: Formula) -> tuple[float, float]:
    """Minimum and maximum time offsets [S, T] that can influence a verdict.

    Follows the standard recursion: leaves contribute (0, 0); negation and
    the graph operators are transparent; conjunction takes (min, max);
    until over [a, b] yields S = a + min(S1, S2) and T = b + max(T1, T2).
    Sugar is handled via its defining expansion, and agent binding is
    transparent. Infinite upper bounds propagate.
    """
    if isinstance(f, (Truth, Atom, GlobalAtom)):
        return (0, 0)
    if isinstance(f, (Not, GraphOp, AgentBind, ForAllAgents, ExistsAgent)):
        return horizon(f.child)
    if isinstance(f, (And, Or, Implies)):
        s1, t1 = horizon(f.left)
        s2, t2 = horizon(f.right)
        return (min(s1, s2), max(t1, t2))
    if isinstance(f, Until):
        s1, t1 = horizon(f.left)
        s2, t2 = horizon(f.right)
        return (f.interval.lo + min(s1, s2), f.interval.hi + max(t1, t2))
    if isinstance(f, (Eventually, Always)):
        # F_I phi = T U_I phi and G_I phi = !F_I !phi share one recursion
        s, t = horizon(f.child)
        return (f.interval.lo + min(0, s), f.interval.hi + max(0, t))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# lowering to the core fragment


def lower(f: Formula) -> Formula:
    """Rewrite sugar into the core {truth, atom, not, and, until, graph op,
    agent bind} fragment, preserving semantics.

    FA and EX become a balanced conjunction of the bound copies, in the
    order of the agent set, so the tree is logarithmically deep in the
    number of agents; the copies share one lowered child.
    """
    if isinstance(f, (Truth, Atom, GlobalAtom)):
        return f
    if isinstance(f, Not):
        return Not(lower(f.child))
    if isinstance(f, And):
        return And(lower(f.left), lower(f.right))
    if isinstance(f, Or):
        return Not(And(Not(lower(f.left)), Not(lower(f.right))))
    if isinstance(f, Implies):
        return Not(And(lower(f.left), Not(lower(f.right))))
    if isinstance(f, Until):
        return Until(lower(f.left), lower(f.right), f.interval)
    if isinstance(f, Eventually):
        return Until(Truth(), lower(f.child), f.interval)
    if isinstance(f, Always):
        return Not(Until(Truth(), Not(lower(f.child)), f.interval))
    if isinstance(f, GraphOp):
        return GraphOp(
            f.direction, f.quantifier, f.graphs, f.counts, f.weights, lower(f.child)
        )
    if isinstance(f, AgentBind):
        return AgentBind(f.agent, lower(f.child))
    if isinstance(f, ForAllAgents):
        child = lower(f.child)
        return _balanced_and([AgentBind(i, child) for i in f.agents])
    if isinstance(f, ExistsAgent):
        child = lower(f.child)
        return Not(_balanced_and([Not(AgentBind(i, child)) for i in f.agents]))
    raise TypeError(f"not a formula: {f!r}")


def _balanced_and(parts: list) -> Formula:
    """The conjunction of parts, split at the middle. Evaluated left to
    right it reads the same parts, and stops at the same one, as the
    left-deep chain."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return And(_balanced_and(parts[:mid]), _balanced_and(parts[mid:]))


# ---------------------------------------------------------------------------
# normalizations over graph operators


def push_negations(f: LocalFormula) -> LocalFormula:
    """Eliminate negations sitting directly above graph operators.

    A negated graph operator is replaced by the same operator with the
    complemented count set; all other structure is preserved.
    """
    if isinstance(f, Not):
        child = push_negations(f.child)
        if isinstance(child, GraphOp):
            # Over several graphs the negation also dualizes the quantifier:
            # not(exists g: count in E) = forall g: count in complement(E).
            # For a single graph the quantifier is immaterial and kept as is.
            quant = child.quantifier
            if len(child.graphs) > 1:
                quant = "forall" if quant == "exists" else "exists"
            return GraphOp(
                child.direction,
                quant,
                child.graphs,
                child.counts.complement(),
                child.weights,
                child.child,
            )
        return Not(child)
    if isinstance(f, (Truth, Atom)):
        return f
    if isinstance(f, And):
        return And(push_negations(f.left), push_negations(f.right))
    if isinstance(f, Or):
        return Or(push_negations(f.left), push_negations(f.right))
    if isinstance(f, Implies):
        return Implies(push_negations(f.left), push_negations(f.right))
    if isinstance(f, Until):
        return Until(push_negations(f.left), push_negations(f.right), f.interval)
    if isinstance(f, Eventually):
        return Eventually(push_negations(f.child), f.interval)
    if isinstance(f, Always):
        return Always(push_negations(f.child), f.interval)
    if isinstance(f, GraphOp):
        return GraphOp(
            f.direction, f.quantifier, f.graphs, f.counts, f.weights,
            push_negations(f.child),
        )
    raise TypeError(f"not a local formula: {f!r}")


def expand_graph_quantifier(f: LocalFormula) -> LocalFormula:
    """Rewrite each graph operator over m > 1 graphs into m single-graph
    operators joined by disjunction (exists) or conjunction (forall)."""
    if isinstance(f, (Truth, Atom)):
        return f
    if isinstance(f, Not):
        return Not(expand_graph_quantifier(f.child))
    if isinstance(f, And):
        return And(expand_graph_quantifier(f.left), expand_graph_quantifier(f.right))
    if isinstance(f, Or):
        return Or(expand_graph_quantifier(f.left), expand_graph_quantifier(f.right))
    if isinstance(f, Implies):
        return Implies(
            expand_graph_quantifier(f.left), expand_graph_quantifier(f.right)
        )
    if isinstance(f, Until):
        return Until(
            expand_graph_quantifier(f.left),
            expand_graph_quantifier(f.right),
            f.interval,
        )
    if isinstance(f, Eventually):
        return Eventually(expand_graph_quantifier(f.child), f.interval)
    if isinstance(f, Always):
        return Always(expand_graph_quantifier(f.child), f.interval)
    if isinstance(f, GraphOp):
        child = expand_graph_quantifier(f.child)
        singles = [
            GraphOp(f.direction, f.quantifier, (g,), f.counts, f.weights, child)
            for g in f.graphs
        ]
        if len(singles) == 1:
            return singles[0]
        out = singles[0]
        for s in singles[1:]:
            out = Or(out, s) if f.quantifier == "exists" else And(out, s)
        return out
    raise TypeError(f"not a local formula: {f!r}")


def contains_graph_op(f: LocalFormula) -> bool:
    if isinstance(f, GraphOp):
        return True
    if isinstance(f, (Truth, Atom)):
        return False
    if isinstance(f, (Not, Eventually, Always)):
        return contains_graph_op(f.child)
    if isinstance(f, (And, Or, Implies, Until)):
        return contains_graph_op(f.left) or contains_graph_op(f.right)
    raise TypeError(f"not a local formula: {f!r}")


def contains_atom(f: LocalFormula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Truth):
        return False
    if isinstance(f, (Not, Eventually, Always)):
        return contains_atom(f.child)
    if isinstance(f, (And, Or, Implies, Until)):
        return contains_atom(f.left) or contains_atom(f.right)
    if isinstance(f, GraphOp):
        return contains_atom(f.child)
    raise TypeError(f"not a local formula: {f!r}")


# ---------------------------------------------------------------------------
# graph operator tree


@dataclass(frozen=True)
class OperatorNode:
    """One graph operator of the formula; ``index`` is depth-first pre-order."""

    index: int
    level: int
    direction: Literal["in", "out"]
    graph: str
    counts: CountSet
    weights: WeightInterval


@dataclass(frozen=True)
class LeafNode:
    """One maximal graph-operator-free subformula with its ancestor chain."""

    index: int
    level: int
    formula: LocalFormula
    ancestors: tuple[int, ...]


@dataclass(frozen=True)
class GraphOpTree:
    root: LocalFormula
    operators: tuple[OperatorNode, ...]
    leaves: tuple[LeafNode, ...]


def build_operator_tree(f: LocalFormula) -> GraphOpTree:
    """Decompose a negation-normalized, single-graph formula into its graph
    operators and the maximal graph-operator-free leaves between them.

    Indices are assigned in depth-first pre-order. Each leaf records the
    chain of operator indices connecting it to the root, so its level is
    one more than the chain length.
    """
    operators: list[OperatorNode] = []
    leaves: list[LeafNode] = []
    _visit_operators(f, (), operators, leaves)
    return GraphOpTree(f, tuple(operators), tuple(leaves))


def _visit_operators(node: LocalFormula, chain: tuple[int, ...], operators: list, leaves: list):
    if not contains_graph_op(node):
        leaves.append(LeafNode(len(leaves) + 1, len(chain) + 1, node, chain))
        return
    if isinstance(node, GraphOp):
        if len(node.graphs) != 1:
            raise ValueError("expand graphs first")
        p = len(operators) + 1
        operators.append(
            OperatorNode(
                p, len(chain) + 1, node.direction, node.graphs[0],
                node.counts, node.weights,
            )
        )
        _visit_operators(node.child, chain + (p,), operators, leaves)
        return
    if isinstance(node, Not):
        if isinstance(node.child, GraphOp):
            raise ValueError("formula must be negation-normalized first")
        _visit_operators(node.child, chain, operators, leaves)
        return
    if isinstance(node, (Eventually, Always)):
        _visit_operators(node.child, chain, operators, leaves)
        return
    if isinstance(node, (And, Or, Implies, Until)):
        _visit_operators(node.left, chain, operators, leaves)
        _visit_operators(node.right, chain, operators, leaves)
        return
    raise TypeError(f"not a local formula: {node!r}")


def graph_ops(f: LocalFormula) -> list[GraphOp]:
    """All graph operator nodes of a local formula, in depth-first pre-order."""
    out: list[GraphOp] = []
    _collect_graph_ops(f, out)
    return out


def _collect_graph_ops(node: LocalFormula, out: list):
    if isinstance(node, GraphOp):
        out.append(node)
        _collect_graph_ops(node.child, out)
    elif isinstance(node, (Not, Eventually, Always)):
        _collect_graph_ops(node.child, out)
    elif isinstance(node, (And, Or, Implies, Until)):
        _collect_graph_ops(node.left, out)
        _collect_graph_ops(node.right, out)
