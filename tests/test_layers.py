"""The two logic layers share their Boolean and temporal nodes: layer checks
at every entry point, signal keys per layer, parsing in either mode, and
agent quantifiers over hundreds of agents."""

import math
import random

import pytest

from stlgo import (
    AgentBind,
    Always,
    And,
    Atom,
    Const,
    CountSet,
    ExistsAgent,
    ForAllAgents,
    GlobalAtom,
    GraphOp,
    GraphTrajectory,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    Not,
    StateVar,
    TimeInterval,
    Truth,
    is_determinable,
    lower,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_global,
    parse_local,
)
from stlgo.central import oracle_eval, oracle_eval_global
from stlgo.cli import main
from stlgo.formula import FULL_WEIGHTS
from stlgo.serialization import save_run

POSITIVE = Atom(StateVar(0))  # x[0] >= 0
IN_G = GraphOp("in", "exists", ("g",), CountSet.single(1, math.inf), FULL_WEIGHTS, Truth())
WIN = TimeInterval(0, 1)


def star_run(child_values, length=1):
    """Edges from agents 2..k+1 into agent 1; x[0] holds the given values."""
    k = len(child_values)
    snap = MultigraphSnapshot("g", True, [(j, 1, 1, 1.0) for j in range(2, k + 2)])
    states = [[(0.0,)] + [(float(v),) for v in child_values] for _ in range(length + 1)]
    return MasRun(MasTrajectory(states), GraphTrajectory(length, static={"g": snap}))


# ---------------------------------------------------------------------------
# layer checks

SYSTEM_NODES_IN_LOCAL = {
    "AgentBind": And(POSITIVE, AgentBind(2, Truth())),
    "ForAllAgents": Always(ForAllAgents((1, 2), Truth()), WIN),
    "GlobalAtom": GraphOp("in", "exists", ("g",), CountSet.full(), FULL_WEIGHTS,
                          GlobalAtom(Const(1.0))),
}

LOCAL_ENTRY_POINTS = {
    "monitor_local": lambda run, f: monitor_local(run, f, 1, 0),
    "monitor_dist": lambda run, f: monitor_dist(run, KnowledgeMask.self_only(1), f, 1, 0),
    "is_determinable": lambda run, f: is_determinable(run, KnowledgeMask.self_only(1), f, 1, 0),
}


@pytest.mark.parametrize("entry", sorted(LOCAL_ENTRY_POINTS))
@pytest.mark.parametrize("node", sorted(SYSTEM_NODES_IN_LOCAL))
def test_local_entry_points_reject_system_nodes(entry, node):
    with pytest.raises(ValueError, match=f"{node} inside an agent-local formula"):
        LOCAL_ENTRY_POINTS[entry](star_run([1, -1]), SYSTEM_NODES_IN_LOCAL[node])


@pytest.mark.parametrize("f, node", [
    (Always(POSITIVE, WIN), "Atom"),
    (IN_G, "GraphOp"),
    (And(AgentBind(1, POSITIVE), Not(IN_G)), "GraphOp"),
])
def test_monitor_global_rejects_local_nodes_outside_a_binder(f, node):
    with pytest.raises(ValueError, match=f"{node} outside an agent binding"):
        monitor_global(star_run([1, -1]), f, 0)


def test_monitor_global_rejects_agent_state_accessor_in_system_atom():
    with pytest.raises(ValueError, match=r"x\[k\] accessor inside a system-level atom"):
        monitor_global(star_run([1, -1]), GlobalAtom(StateVar(0)), 0)


def test_oracle_refuses_mixed_layers():
    run = star_run([1, -1])
    with pytest.raises(TypeError):
        oracle_eval(run, SYSTEM_NODES_IN_LOCAL["AgentBind"], 1, 0)
    with pytest.raises(TypeError):
        oracle_eval_global(run, Always(POSITIVE, WIN), 0)


# ---------------------------------------------------------------------------
# one node set for both layers

@pytest.mark.parametrize("text", [
    "true",
    "false & !true",
    "true | false -> F[0,3] G[1,inf] true",
    "(true U[0,2] !false) & (false -> true) | G[0,1] !(true & F[2,4] false)",
])
def test_both_grammars_build_the_same_boolean_temporal_tree(text):
    assert parse_global(text) == parse_local(text)


# ---------------------------------------------------------------------------
# agent quantifiers over many agents

def wide_run(num_agents, length, seed):
    """Seeded states in [-1, 1] and one empty static graph."""
    rng = random.Random(seed)
    states = [[(rng.uniform(-1.0, 1.0),) for _ in range(num_agents)] for _ in range(length + 1)]
    empty = MultigraphSnapshot("g", True, [])
    return MasRun(MasTrajectory(states), GraphTrajectory(length, static={"g": empty}))


def wide_formulas(n):
    everyone = tuple(range(1, n + 1))
    return [
        ForAllAgents(everyone, Atom(Const(1.0))),
        ForAllAgents(everyone, POSITIVE),
        ExistsAgent(everyone, POSITIVE),
        ExistsAgent(everyone, Not(Atom(Const(1.0)))),
        Always(ExistsAgent(everyone, And(POSITIVE, Not(IN_G))), TimeInterval(0, 2)),
        Not(ForAllAgents(everyone, Always(Not(POSITIVE), WIN))),
    ]


def test_agent_quantifiers_over_700_agents_match_the_oracle():
    run = wide_run(700, 3, seed=5)
    for f in wide_formulas(700):
        hash(lower(f))
        signal = monitor_global(run, f, run.length)
        assert signal.values == tuple(
            oracle_eval_global(run, f, t) for t in range(run.length + 1)
        )


@pytest.mark.parametrize("text", ["FA{1..700}([x[0] >= 0])", "EX{1..700}(F[0,2] [x[0] >= 0.9])"])
def test_cli_monitors_agent_quantifiers_over_700_agents(tmp_path, text):
    save_run(wide_run(700, 3, seed=6), tmp_path / "run.json", tmp_path / "graphs.json")
    (tmp_path / "f.stlgo").write_text(text + "\n", encoding="utf-8")
    code = main(["monitor", "--formula", str(tmp_path / "f.stlgo"), "--global",
                 "--run", str(tmp_path / "run.json"), "--graphs", str(tmp_path / "graphs.json")])
    assert code in (0, 2)
