"""Formula ASTs for the agent-local and the system-level logic layers.

Both layers are built from one set of Boolean and temporal nodes (Truth,
Not, And, Or, Implies, Until, Eventually, Always), each a ``LocalFormula``
and a ``GlobalFormula`` at once. The layers differ only in their leaves:
the agent-local layer adds atoms over the current agent's state (``Atom``)
and the graph operators In/Out (``GraphOp``); the system-level layer adds
predicates over the whole MAS state (``GlobalAtom``) and embeds local
formulas through agent binding (``AgentBind``, ``ForAllAgents``,
``ExistsAgent``). Sugar (Or, Implies, F, G, FA, EX) is kept as explicit AST
nodes; monitors lower to the core {truth, atom, not, and, until,
single-graph op / agent bind} before evaluating, so there is a single
semantic kernel.

All nodes are frozen dataclasses; every operation here is a pure function.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
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
        lo, hi = _discrete_bounds("time", self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def _discrete_bounds(kind: str, lo, hi) -> tuple[int, float]:
    """[lo, hi] of a time or count interval as an int and an int or inf, or
    a ValueError naming the ``kind`` of bounds that do not fit one."""
    if lo != lo or hi != hi:  # NaN; isnan would overflow on a huge int
        raise ValueError(f"{kind} bounds may not be NaN")
    if lo < 0 or hi < 0:
        raise ValueError(f"{kind} bounds must be >= 0")
    if lo > hi:
        raise ValueError(f"{kind} interval reversed: [{lo}, {hi}]")
    if lo == INF:
        raise ValueError(f"{kind} interval lower bound must be finite")
    if int(lo) != lo or (hi != INF and int(hi) != hi):
        raise ValueError(f"finite {kind} bounds must be integers")
    return int(lo), INF if hi == INF else int(hi)


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


def _canon_intervals(intervals) -> tuple[tuple[int, float], ...]:
    cleaned = sorted(_discrete_bounds("count", lo, hi) for lo, hi in intervals)
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


_EXPR_LEAVES = (Const, StateVar, AgentStateVar)
# the operands of the other expression nodes, and the source of each one's
# value from its operands' values
_EXPR_OPERANDS = {UnaryFn: lambda e: (e.arg,), BinOp: operator.attrgetter("left", "right"),
                  BinFn: operator.attrgetter("left", "right")}
_EXPR_SOURCE = {
    (BinOp, "+"): "{} + {}", (BinOp, "-"): "{} - {}", (BinOp, "*"): "{} * {}",
    (BinOp, "/"): "_divide({}, {})", (BinFn, "min"): "min({}, {})",
    (BinFn, "max"): "max({}, {})", (UnaryFn, "abs"): "abs({})", (UnaryFn, "sqrt"): "_sqrt({})",
}


def compile_expr(expr: Expr):
    """The expression as one function of the state its atom reads: a
    ``StateVar`` reads ``x[k]`` of an agent's vector x, an ``AgentStateVar``
    reads ``x[i][k]`` of a time slice x (the layer checks keep each accessor
    in its own layer).

    The function is straight-line Python source with one assignment per
    operator node, written by one post-order walk on an explicit stack, so
    neither compiling nor evaluating recurses and an arithmetic chain may
    have any length. Operands are evaluated left before right, a shared
    subexpression once; ``min``, ``max`` and ``abs`` are the builtins, with
    their operands in the written order. A division by zero or the sqrt of
    a negative value raises ValueError. Constants are bound as arguments,
    never printed, so expressions of one shape share one compiled factory
    (``_expr_factory``)."""
    args, lines, text = [], [], {}  # id(operator node) -> the name of its value

    def index(k) -> str:
        if type(k) is int:
            return str(k)
        args.append(k)
        return f"c{len(args) - 1}"

    def value(e) -> str:
        """The source text of an operand's value, once its operands are done."""
        kind = type(e)
        if kind is Const:
            args.append(e.value)
            return f"c{len(args) - 1}"
        if kind is StateVar:
            return f"x[{index(e.index)}]"
        if kind is AgentStateVar:
            return f"x[{index(e.agent - 1)}][{index(e.index)}]"
        return text[id(e)]

    stack = [expr]
    while stack:
        e = stack.pop()
        if type(e) is tuple:  # its operands are done
            (e,) = e
            kind = type(e)
            source = _EXPR_SOURCE.get((kind, e.op if kind is BinOp else e.fn))
            if source is None:
                raise ValueError(f"unknown function in expression: {e!r}")
            # operands left before right, so that constants are bound in order
            line = source.format(*[value(sub) for sub in _EXPR_OPERANDS[kind](e)])
            text[id(e)] = name = f"v{len(lines)}"
            lines.append(f"        {name} = {line}\n")
            continue
        get = _EXPR_OPERANDS.get(type(e))
        if get is None:
            if type(e) not in _EXPR_LEAVES:
                raise TypeError(f"not an expression: {e!r}")
        elif id(e) not in text:
            stack.append((e,))
            stack.extend(reversed(get(e)))
    result = value(expr)
    params = ", ".join(f"c{k}" for k in range(len(args)))
    source = "".join((f"def factory({params}):\n    def expr(x):\n", *lines,
                      f"        return {result}\n    return expr\n"))
    return _expr_factory(source)(*args)


@lru_cache(maxsize=256)
def _expr_factory(source: str):
    """The ``factory`` that ``source`` defines, compiled once per shape."""
    namespace = {"_divide": _divide, "_sqrt": _sqrt}
    exec(compile(source, "<stlgo expression>", "exec"), namespace)
    return namespace["factory"]


def _divide(a: float, b: float) -> float:
    if b == 0:
        raise ValueError("division by zero in predicate function")
    return a / b


def _sqrt(a: float) -> float:
    if a < 0:
        raise ValueError("sqrt of a negative value in predicate function")
    return math.sqrt(a)


def expr_vars(expr: Expr) -> set[Expr]:
    """All StateVar/AgentStateVar leaves of an expression."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (StateVar, AgentStateVar)):
            out.add(e)
        elif isinstance(e, (BinOp, BinFn)):
            stack += (e.left, e.right)
        elif isinstance(e, UnaryFn):
            stack.append(e.arg)
    return out


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
        if self.direction not in ("in", "out"):
            raise ValueError(f"direction must be 'in' or 'out', not {self.direction!r}")
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
# traversal: every structural pass is a step over ``fold`` or a scan of
# ``nodes``, both explicit-stack walks; these tables record operand layout.

_LEAVES = (Truth, Atom, GlobalAtom)
_UNARY = (Not, Eventually, Always, GraphOp, AgentBind, ForAllAgents, ExistsAgent)
_BINARY = (And, Or, Implies, Until)
_OPERANDS = {**dict.fromkeys(_LEAVES, lambda f: ()), **dict.fromkeys(_UNARY, lambda f: (f.child,)),
             **dict.fromkeys(_BINARY, operator.attrgetter("left", "right"))}
# a node with new operands, built by its class: a copy filled in through
# __dict__ would be slower for the evaluator to read
_REBUILD = {
    Not: lambda f, s: Not(*s), And: lambda f, s: And(*s), Or: lambda f, s: Or(*s),
    Implies: lambda f, s: Implies(*s), Until: lambda f, s: Until(*s, f.interval),
    Eventually: lambda f, s: Eventually(*s, f.interval), Always: lambda f, s: Always(*s, f.interval),
    GraphOp: lambda f, s: GraphOp(f.direction, f.quantifier, f.graphs, f.counts, f.weights, *s),
    AgentBind: lambda f, s: AgentBind(f.agent, *s),
    ForAllAgents: lambda f, s: ForAllAgents(f.agents, *s),
    ExistsAgent: lambda f, s: ExistsAgent(f.agents, *s),
}
BINDERS = (AgentBind, ForAllAgents, ExistsAgent)


def operands(f) -> tuple:
    """The direct subformulas of a formula node, sugar included."""
    get = _OPERANDS.get(type(f))
    if get is None:
        raise TypeError(f"not a formula: {f!r}")
    return get(f)


def _with_operands(f, subs):
    """f with its operands replaced by subs; f itself when none changed."""
    if all(map(operator.is_, subs, _OPERANDS[type(f)](f))):
        return f
    return _REBUILD[type(f)](f, subs)


def nodes(f, into_binders: bool = True, seen: set | None = None):
    """Every node occurrence of f in depth-first pre-order; with
    ``into_binders`` False, only the system-level part (binders are yielded,
    their children are not). With a ``seen`` set of node ids, only the
    nodes not in it, each at its first occurrence, and each is added to it:
    a node that occurs again is skipped with all of its subformulas, so a
    formula that shares subformulas is walked in time linear in its
    distinct nodes."""
    stack = [f]
    while stack:
        node = stack.pop()
        if seen is not None:
            if id(node) in seen:
                continue
            seen.add(id(node))
        yield node
        if into_binders or not isinstance(node, BINDERS):
            stack.extend(reversed(operands(node)))


def fold(f, step, memo: dict | None = None, layout: dict = _OPERANDS):
    """Post-order fold: ``step(node, values)`` receives the values of the
    node's subformulas, in order, and returns the node's own; the root's
    value is returned. A subformula shared by several parents is stepped
    once. ``memo``, when given, is filled with every node's value under
    ``id(node)``; ``layout`` maps node types to their subformulas, for
    passes that see some nodes' subformulas differently."""
    done = {} if memo is None else memo
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # its operands are done
            node, subs = node
            done[id(node)] = step(node, [done[id(sub)] for sub in subs])
            continue
        key = id(node)
        if key in done:
            continue
        get = layout.get(type(node))
        if get is None:
            raise TypeError(f"not a formula: {node!r}")
        subs = get(node)
        if subs:
            stack.append((node, subs))
            stack.extend(reversed(subs))
        else:
            done[key] = step(node, subs)
    return done[id(f)]


def join_left(cls, parts: list) -> Formula:
    """parts joined by And or Or into a left-deep chain, as the parser reads
    "p1 & p2 & p3"; no parts is the chain's unit (true, or false)."""
    if not parts:
        return Truth() if cls is And else FALSITY
    return reduce(cls, parts)


# ---------------------------------------------------------------------------
# horizon


def horizon(f: Formula) -> tuple[float, float]:
    """Minimum and maximum time offsets [S, T] that can influence a verdict.

    Follows the standard recursion: leaves contribute (0, 0); negation and
    the graph operators are transparent; conjunction takes (min, max);
    until over [a, b] yields S = a + min(S1, S2) and T = b + max(T1, T2).
    Sugar is handled via its defining expansion, and agent binding is
    transparent. An infinite upper bound absorbs whatever it is added to.
    """
    return fold(f, _horizon_step)


def _horizon_step(f, subs):
    if not subs:
        return (0, 0)
    s, t = subs[0]
    if len(subs) == 2:
        s2, t2 = subs[1]
        s, t = min(s, s2), max(t, t2)
    interval = getattr(f, "interval", None)
    if interval is None:
        return (s, t)
    if len(subs) == 1:  # F_I phi = T U_I phi and G_I phi = !F_I !phi
        s, t = min(0, s), max(0, t)
    hi = interval.hi
    return (interval.lo + s, INF if hi == INF or t == INF else hi + t)


# ---------------------------------------------------------------------------
# lowering to the core fragment


def lower(f: Formula) -> Formula:
    """Rewrite sugar into the core fragment, preserving semantics:
    ``h ::= true | atom | global atom | !h | h & h | h U_I h | In/Out{tag} h
    | i.h``, with one tag per graph operator and no negation directly above
    a negation or a graph operator.

    Several tags combine by Kleene any/all: forall is the conjunction of the
    single-tag copies, exists its dual. Each & and | is lowered on its own,
    so a chain keeps its written shape; the kernel reads a whole & chain as
    one cell (``central.Cells``). The conjunctions that lowering itself
    builds, of the single-tag copies and of FA and EX's bound copies (which
    share one lowered child), are balanced, in order, so a shallow formula
    gives a shallow core. Core nodes whose operands lower to themselves are
    returned as they are.
    """
    return fold(f, _lower_step)


def _lower_step(f, subs):
    kind = type(f)
    if kind is Or:
        return _negate(And(_negate(subs[0]), _negate(subs[1])))
    if kind is Implies:
        return _negate(And(subs[0], _negate(subs[1])))
    if kind is Eventually:
        return Until(Truth(), subs[0], f.interval)
    if kind is Always:
        return _negate(Until(Truth(), _negate(subs[0]), f.interval))
    if kind is Not and type(subs[0]) in (Not, GraphOp):
        return _negate(subs[0])
    if kind is GraphOp and len(f.graphs) > 1:  # the | (or &) of its single-tag copies
        copies = [GraphOp(f.direction, f.quantifier, (g,), f.counts, f.weights, subs[0])
                  for g in f.graphs]
        if f.quantifier == "forall":
            return _balanced_and(copies)
        return _negate(_balanced_and([_negate(c) for c in copies]))
    if kind is ForAllAgents:
        return _balanced_and([AgentBind(i, subs[0]) for i in f.agents])
    if kind is ExistsAgent:
        return _negate(_balanced_and([_negate(AgentBind(i, subs[0])) for i in f.agents]))
    return _with_operands(f, subs)


def _balanced_and(parts: list) -> Formula:
    """The conjunction of parts, split at the middle so that it is only
    logarithmically deep; the kernel reads it as one & chain of the parts."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return And(_balanced_and(parts[:mid]), _balanced_and(parts[mid:]))


def _negate(g):
    """The negation of a core formula g as lowering builds it: not(not h) is
    h, and a negated graph operator, which lowering has already cut down to
    one graph, is the operator over the complemented count set."""
    if type(g) is Not:
        return g.child
    if type(g) is not GraphOp:
        return Not(g)
    return GraphOp(g.direction, g.quantifier, g.graphs, g.counts.complement(), g.weights, g.child)

