"""Shared fixtures: the worked seven-node distance graph and seeded random
instance generators used by the per-module tests and the acceptance suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stlgo import (
    AgentBind,
    AgentStateVar,
    Always,
    And,
    Atom,
    BinFn,
    BinOp,
    Const,
    CountSet,
    Edge,
    Eventually,
    ExistsAgent,
    ForAllAgents,
    GlobalAtom,
    GraphOp,
    GraphTrajectory,
    Implies,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    Not,
    Or,
    StateVar,
    TimeInterval,
    Truth,
    UnaryFn,
    Until,
    WeightInterval,
)
from stlgo.formula import nodes

FIG_EDGES = [
    (1, 3, 1, 6.0),
    (2, 3, 1, 8.0),
    (3, 4, 1, 8.0),
    (3, 5, 1, 6.0),
    (4, 6, 1, 8.0),
    (5, 7, 1, 8.0),
    (6, 7, 1, 8.0),
]

FIG_LABELS = {1: {"H"}, 2: {"H"}, 3: {"C"}, 4: {"H"}, 5: {"H"}, 6: {"H"}, 7: {"H"}}


@pytest.fixture
def fig_snapshot() -> MultigraphSnapshot:
    return MultigraphSnapshot("d", False, FIG_EDGES)


@pytest.fixture
def fig_run(fig_snapshot) -> MasRun:
    traj = MasTrajectory([[(float(i),) for i in range(1, 8)]])
    return MasRun(traj, GraphTrajectory(0, static={"d": fig_snapshot}))


def make_fig_run(states_by_agent=None, length=0) -> MasRun:
    """Seven agents on the worked distance graph; states default to the id."""
    snap = MultigraphSnapshot("d", False, FIG_EDGES)
    slices = []
    for t in range(length + 1):
        if states_by_agent is None:
            slices.append([(float(i),) for i in range(1, 8)])
        else:
            slices.append([(float(states_by_agent[i]),) for i in range(1, 8)])
    traj = MasTrajectory(slices)
    return MasRun(traj, GraphTrajectory(length, static={"d": snap}))


# ---------------------------------------------------------------------------
# random runs


def random_run(
    rng: random.Random,
    max_agents: int = 6,
    max_len: int = 8,
    tags: tuple[str, ...] = ("g1", "g2", "g3"),
    min_len: int = 1,
) -> MasRun:
    """Small random run: g1 is a directed multigraph (up to two parallel
    edges), g2 an undirected single-edge graph, g3 a directed single-edge
    graph; each is static or time-varying at random."""
    num_agents = rng.randint(2, max_agents)
    length = rng.randint(min_len, max_len)
    state_dim = rng.randint(1, 2)
    states = [
        [
            tuple(float(rng.randint(-3, 8)) for _ in range(state_dim))
            for _ in range(num_agents)
        ]
        for _ in range(length + 1)
    ]
    traj = MasTrajectory(states)

    def snapshot(tag: str) -> MultigraphSnapshot:
        directed = tag != "g2"
        multigraph = tag == "g1"
        density = rng.uniform(0.2, 0.6)
        edges = []
        for i in range(1, num_agents + 1):
            for j in range(1, num_agents + 1):
                if not directed and j <= i:
                    continue
                if directed and i == j and rng.random() > 0.05:
                    continue  # occasional self-loop on directed graphs
                if rng.random() < density:
                    if rng.random() < 0.05:
                        w = rng.choice((float("inf"), float("-inf")))
                    else:
                        w = float(rng.randint(0, 9))
                    edges.append(Edge(i, j, 1, w))
                    if multigraph and rng.random() < 0.4:
                        edges.append(Edge(i, j, 2, float(rng.randint(0, 9))))
        return MultigraphSnapshot(tag, directed, edges)

    static = {}
    dynamic = {}
    for tag in tags:
        if rng.random() < 0.5:
            static[tag] = snapshot(tag)
        else:
            dynamic[tag] = tuple(snapshot(tag) for _ in range(length + 1))
    return MasRun(traj, GraphTrajectory(length, static, dynamic))


# ---------------------------------------------------------------------------
# random formulas


def graph_ops(f) -> list[GraphOp]:
    """All graph operator nodes of a local formula, in depth-first pre-order."""
    return [node for node in nodes(f) if type(node) is GraphOp]


def _random_expr(rng: random.Random, state_dim: int):
    k = rng.randrange(state_dim)
    c = Const(float(rng.randint(-3, 6)))
    x = StateVar(k)
    pick = rng.random()
    if pick < 0.3:
        return BinOp("-", x, c)
    if pick < 0.5:
        return BinOp("-", c, x)
    if pick < 0.65:
        j = rng.randrange(state_dim)
        return BinOp("-", x, StateVar(j))
    if pick < 0.8:
        return BinOp("-", BinFn("min", x, Const(float(rng.randint(0, 5)))), c)
    if pick < 0.9:
        return BinOp("-", UnaryFn("abs", BinOp("-", x, c)), Const(2.0))
    return BinOp("+", x, c)


def _random_count_set(rng: random.Random) -> CountSet:
    lo = rng.randint(0, 3)
    hi = rng.choice([lo, lo + 1, lo + 2, float("inf")])
    intervals = ((lo, hi),)
    if rng.random() < 0.25 and hi != float("inf"):
        lo2 = int(hi) + 2 + rng.randint(0, 2)
        intervals += ((lo2, rng.choice([lo2 + 1, float("inf")])),)
    return CountSet(intervals)


def _random_weight_interval(rng: random.Random) -> WeightInterval:
    pick = rng.random()
    if pick < 0.3:
        return WeightInterval(-float("inf"), float("inf"))
    lo = rng.randint(0, 5)
    if pick < 0.6:
        return WeightInterval(float(lo), float("inf"))
    return WeightInterval(float(lo), float(lo + rng.randint(0, 6)))


def _random_time_interval(rng: random.Random, max_len: int) -> TimeInterval:
    lo = rng.randint(0, 2)
    hi = rng.choice([lo, lo + 1, lo + rng.randint(0, 3), float("inf")])
    return TimeInterval(lo, hi)


class _Budget:
    def __init__(self, nodes: int, temporal: int, graph_ops: int):
        self.nodes = nodes
        self.temporal = temporal
        self.graph_ops = graph_ops


def random_local_formula(
    rng: random.Random,
    tags: tuple[str, ...],
    state_dim: int,
    max_depth: int = 4,
    budget: _Budget | None = None,
):
    """Random agent-local formula of bounded depth, temporal-operator count,
    and graph-operator count (keeps the memo-free oracle affordable)."""
    b = budget if budget is not None else _Budget(nodes=10, temporal=3, graph_ops=3)
    return _gen_local(rng, tags, state_dim, max_depth, b)


def _gen_local(rng, tags, state_dim, depth, b):
    b.nodes -= 1
    leaf_only = depth <= 0 or b.nodes <= 0
    choices = ["atom", "atom", "true", "not", "and", "or", "implies"]
    if not leaf_only:
        if b.temporal > 0:
            choices += ["until", "eventually", "always"]
        if b.graph_ops > 0:
            choices += ["graph", "graph"]
    kind = rng.choice(["atom", "true"] if leaf_only else choices)
    if kind == "true":
        return Truth()
    if kind == "atom":
        return Atom(_random_expr(rng, state_dim))
    if kind == "not":
        return Not(_gen_local(rng, tags, state_dim, depth - 1, b))
    if kind in ("and", "or", "implies"):
        left = _gen_local(rng, tags, state_dim, depth - 1, b)
        right = _gen_local(rng, tags, state_dim, depth - 1, b)
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(left, right)
    if kind == "until":
        b.temporal -= 1
        return Until(
            _gen_local(rng, tags, state_dim, depth - 1, b),
            _gen_local(rng, tags, state_dim, depth - 1, b),
            _random_time_interval(rng, 8),
        )
    if kind in ("eventually", "always"):
        b.temporal -= 1
        cls = Eventually if kind == "eventually" else Always
        return cls(_gen_local(rng, tags, state_dim, depth - 1, b), _random_time_interval(rng, 8))
    b.graph_ops -= 1
    n_tags = 1 if rng.random() < 0.7 else min(2, len(tags))
    chosen = tuple(rng.sample(list(tags), n_tags))
    return GraphOp(
        rng.choice(["in", "out"]),
        rng.choice(["exists", "forall"]),
        chosen,
        _random_count_set(rng),
        _random_weight_interval(rng),
        _gen_local(rng, tags, state_dim, depth - 1, b),
    )


def nested_graph_formula(rng, tags, state_dim):
    """A formula guaranteed to nest graph operators and quantify over
    several graphs, for coverage of the harder monitoring paths."""
    inner = GraphOp(
        rng.choice(["in", "out"]),
        rng.choice(["exists", "forall"]),
        tuple(rng.sample(list(tags), min(2, len(tags)))),
        _random_count_set(rng),
        _random_weight_interval(rng),
        rng.choice([Truth(), Atom(_random_expr(rng, state_dim))]),
    )
    outer = GraphOp(
        rng.choice(["in", "out"]),
        rng.choice(["exists", "forall"]),
        (rng.choice(tags),),
        _random_count_set(rng),
        _random_weight_interval(rng),
        rng.choice([inner, And(inner, Atom(_random_expr(rng, state_dim)))]),
    )
    if rng.random() < 0.5:
        return Always(outer, _random_time_interval(rng, 8))
    return Not(outer)


def _random_global_expr(rng, num_agents, state_dim):
    i = rng.randint(1, num_agents)
    j = rng.randint(1, num_agents)
    k = rng.randrange(state_dim)
    pick = rng.random()
    if pick < 0.4:
        return BinOp("-", AgentStateVar(i, k), Const(float(rng.randint(-2, 6))))
    if pick < 0.8:
        return BinOp("-", AgentStateVar(i, k), AgentStateVar(j, k))
    return BinOp("-", Const(float(rng.randint(0, 8))), AgentStateVar(i, k))


def random_global_formula(rng, tags, state_dim, num_agents, max_depth: int = 3):
    b = _Budget(nodes=8, temporal=2, graph_ops=2)

    def gen(depth):
        b.nodes -= 1
        leaf_only = depth <= 0 or b.nodes <= 0
        choices = ["gatom", "bind", "fa", "ex", "true", "gnot", "gand", "gor", "gimplies"]
        if not leaf_only and b.temporal > 0:
            choices += ["guntil", "geventually", "galways"]
        kind = rng.choice(["gatom", "bind", "true"] if leaf_only else choices)
        if kind == "true":
            return Truth()
        if kind == "gatom":
            return GlobalAtom(_random_global_expr(rng, num_agents, state_dim))
        if kind == "bind":
            local = random_local_formula(
                rng, tags, state_dim, max_depth=2, budget=_Budget(5, 1, 2)
            )
            return AgentBind(rng.randint(1, num_agents), local)
        if kind in ("fa", "ex"):
            size = rng.randint(1, num_agents)
            agents = tuple(sorted(rng.sample(range(1, num_agents + 1), size)))
            local = random_local_formula(
                rng, tags, state_dim, max_depth=2, budget=_Budget(5, 1, 2)
            )
            return (ForAllAgents if kind == "fa" else ExistsAgent)(agents, local)
        if kind == "gnot":
            return Not(gen(depth - 1))
        if kind in ("gand", "gor", "gimplies"):
            cls = {"gand": And, "gor": Or, "gimplies": Implies}[kind]
            return cls(gen(depth - 1), gen(depth - 1))
        b.temporal -= 1
        if kind == "guntil":
            return Until(gen(depth - 1), gen(depth - 1), _random_time_interval(rng, 8))
        cls = Eventually if kind == "geventually" else Always
        return cls(gen(depth - 1), _random_time_interval(rng, 8))

    return gen(max_depth)


def random_mask(rng, run: MasRun, observer: int, p_known: float) -> KnowledgeMask:
    pairs = set()
    for j in range(1, run.num_agents + 1):
        for t in range(run.length + 1):
            if rng.random() < p_known:
                pairs.add((j, t))
    return KnowledgeMask(observer, frozenset(pairs))
