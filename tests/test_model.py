import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    Edge,
    GraphTrajectory,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    TimeOutOfRangeError,
    UnknownGraphTypeError,
    agent_neighbors,
)

from conftest import random_run
import random


def two_edge_run(directed=False, edges=None):
    edges = edges if edges is not None else [(1, 3, 1, 6.0), (2, 3, 1, 8.0)]
    snap = MultigraphSnapshot("c", directed, edges)
    traj = MasTrajectory([[(0.0,)] * 3])
    return MasRun(traj, GraphTrajectory(0, static={"c": snap}))


def test_weight_window_filters():
    run = two_edge_run()
    assert set(run.graphs.at("c", 0).oriented_edges(3, "in")) == {
        Edge(1, 3, 1, 6.0), Edge(2, 3, 1, 8.0)}
    assert Counter(run.graphs.at("c", 0)._entry(3, "in", 0.0, 7.0)) == {1: 1}
    assert agent_neighbors(run, "c", 0, 3, "in", (0.0, 7.0)) == {1}


def test_isolated_agent_has_no_neighbors():
    run = two_edge_run(edges=[(1, 3, 1, 6.0)])
    snap = run.graphs.at("c", 0)
    for direction in ("in", "out"):
        assert snap.oriented_edges(2, direction) == ()
        assert Counter(snap._entry(2, direction, -math.inf, math.inf)) == {}
        assert agent_neighbors(run, "c", 0, 2, direction) == frozenset()


def test_parallel_edges_stay_distinct():
    run = two_edge_run(directed=True, edges=[(1, 2, 1, 5.0), (1, 2, 2, 9.0)])
    snap = run.graphs.at("c", 0)
    assert set(snap.oriented_edges(1, "out")) == {Edge(1, 2, 1, 5.0), Edge(1, 2, 2, 9.0)}
    assert agent_neighbors(run, "c", 0, 1, "out", (0.0, 10.0)) == {2}
    assert Counter(snap._entry(1, "out", 0.0, 10.0)) == {2: 2}


def test_agent_neighbors_union_over_sets(fig_run):
    got = agent_neighbors(fig_run, "d", 0, [4, 5], "in", (0.0, 10.0))
    assert got == {3, 6, 7}


def test_fig_graph_neighbor_set(fig_run):
    assert agent_neighbors(fig_run, "d", 0, 3, "in", (0.0, 10.0)) == {1, 2, 4, 5}


def test_unknown_graph_and_time_errors(fig_run):
    with pytest.raises(UnknownGraphTypeError, match="unknown graph type"):
        agent_neighbors(fig_run, "nope", 0, 1, "in")
    with pytest.raises(TimeOutOfRangeError, match="time out of range"):
        agent_neighbors(fig_run, "d", 5, 1, "in")


def test_undirected_in_equals_out_modulo_orientation(fig_run):
    snap = fig_run.graphs.at("d", 0)
    for i in range(1, 8):
        ins = snap.oriented_edges(i, "in")
        outs = snap.oriented_edges(i, "out")
        assert all(e.dst == i for e in ins) and all(e.src == i for e in outs)
        assert {(e.src, e.index, e.weight) for e in ins} == {
            (e.dst, e.index, e.weight) for e in outs
        }


def test_duplicate_edge_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        MultigraphSnapshot("c", False, [(1, 2, 1, 5.0), (2, 1, 1, 7.0)])


@pytest.mark.parametrize("row", [(1, 0, 1, 0.5), (0, 1, 1, 0.5), (1, -4, 1, 0.5)])
@pytest.mark.parametrize("directed", [True, False])
def test_nodes_below_one_rejected(row, directed):
    with pytest.raises(ValueError, match=r"references agent -?\d+ < 1"):
        MultigraphSnapshot("c", directed, [(1, 2, 1, 1.0), row])


@pytest.mark.parametrize(
    "row",
    [(1, 2.7, 1, 0.5), (2.0, 1, 1, 0.5), ("2", 1, 1, 0.5), (True, 2, 1, 0.5),
     (1, None, 1, 0.5), (1, 2, 1.0, 0.5), (1, 2, False, 0.5)],
)
def test_non_integer_endpoints_and_indices_rejected(row):
    with pytest.raises(ValueError, match="must be integers"):
        MultigraphSnapshot("c", True, [row])


@pytest.mark.parametrize("weight", [True, None, "inf", "1.0"])
def test_non_number_weights_rejected(weight):
    with pytest.raises(ValueError, match="bad edge weight"):
        MultigraphSnapshot("c", True, [(1, 2, 1, weight)])


@pytest.mark.parametrize("row", [(1, 2, 1), (1, 2, 1, 0.5, 0), 7])
def test_rows_of_other_shapes_rejected(row):
    with pytest.raises(ValueError, match=r"edge must be \[src, dst, u, w\]"):
        MultigraphSnapshot("c", True, [row])


@pytest.mark.parametrize(
    "directed,rows",
    [
        (True, [(1, 2, 1, 5.0), (1, 2, 1, 5.0)]),  # exact repeat
        (True, [(1, 2, 1, 5.0), (1, 2, 1, 6.0)]),
        (False, [(2, 1, 1, 5.0), (1, 2, 1, 5.0)]),  # mirrored exact repeat
    ],
)
def test_repeated_keys_rejected(directed, rows):
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2, 1\) in snapshot"):
        MultigraphSnapshot("c", directed, rows)


def test_integral_weights_become_floats():
    snap = MultigraphSnapshot("c", False, [(3, 1, 1, 2), Edge(2, 2, 2, -math.inf)])
    assert snap.edges == {Edge(1, 3, 1, 2.0), Edge(2, 2, 2, -math.inf)}
    assert all(type(e.src) is int and type(e.weight) is float for e in snap.edges)
    assert snap.max_node() == 3
    assert MultigraphSnapshot("c", True, []).max_node() == 0


def test_nan_weight_rejected():
    with pytest.raises(ValueError, match="NaN"):
        MultigraphSnapshot("c", False, [(1, 2, 1, float("nan"))])


def test_self_loops_are_permitted_and_counted():
    run = two_edge_run(directed=True, edges=[(2, 2, 1, 1.0)])
    snap = run.graphs.at("c", 0)
    for direction in ("in", "out"):
        assert snap.oriented_edges(2, direction) == (Edge(2, 2, 1, 1.0),)
        assert Counter(snap._entry(2, direction, -math.inf, math.inf)) == {2: 1}
        assert agent_neighbors(run, "c", 0, 2, direction) == {2}


# states[t][i-1][k] that the trajectory constructor must reject
BAD_STATES = {
    "a string": [[("1.5",)]],
    "a bool": [[(1.0, True)]],
    "None": [[(1.0,), (None,)]],
    "inf": [[(1.0,)], [(math.inf,)]],
    "NaN": [[(math.nan,)]],
    "an int past the float range": [[(10**400,)]],
    "a number in place of a vector": [[(1.0,), 5]],
    "a number in place of a slice": [[(1.0,)], 5],
    "a ragged slice": [[(1.0,)], [(1.0,), (2.0,)]],
    "a ragged vector": [[(1.0,), (2.0, 3.0)]],
    "empty input": [],
    "an empty slice": [[]],
    "an empty vector": [[()]],
}


def test_trajectory_validation():
    for name, states in BAD_STATES.items():
        try:
            MasTrajectory(states)
        except ValueError:
            continue
        pytest.fail(f"states with {name} accepted")
    with pytest.raises(ValueError, match=r"agent 2 at time 0: state \(2.0, 3.0\) is not 1 "):
        MasTrajectory(BAD_STATES["a ragged vector"])
    with pytest.raises(ValueError, match="time 1: need 1 agent states"):
        MasTrajectory(BAD_STATES["a ragged slice"])


def test_trajectory_packs_states_to_float_tuples():
    """Any component float() takes, bar str, bytes and bool, becomes a float;
    the sizes are read off the states."""
    from fractions import Fraction

    traj = MasTrajectory([[[1, 2.5]], ((Fraction(1, 2), 1e308),), [[-3, 0.0]]])
    assert traj.states == (((1.0, 2.5),), ((0.5, 1e308),), ((-3.0, 0.0),))
    assert all(type(v) is float for s in traj.states for vec in s for v in vec)
    assert (traj.num_agents, traj.state_dim, traj.length) == (1, 2, 2)
    assert traj == MasTrajectory(traj.states)


def test_run_cross_checks_graph_agents():
    snap = MultigraphSnapshot("c", False, [(1, 9, 1, 1.0)])
    traj = MasTrajectory([[(0.0,)] * 3])
    with pytest.raises(ValueError, match="agent 9"):
        MasRun(traj, GraphTrajectory(0, static={"c": snap}))


def test_graph_trajectory_needs_full_coverage():
    snap = MultigraphSnapshot("c", False, [])
    with pytest.raises(ValueError, match="snapshots"):
        GraphTrajectory(2, dynamic={"c": (snap,)})


def test_dynamic_graph_snapshots_share_direction():
    """The graph file stores 'directed' once per tag, so a mixed tag could not
    round-trip."""
    undirected = MultigraphSnapshot("c", False, [(2, 1, 1, 1.0)])
    directed = MultigraphSnapshot("c", True, [(2, 1, 1, 1.0)])
    with pytest.raises(ValueError, match="disagree on 'directed'"):
        GraphTrajectory(1, dynamic={"c": (undirected, directed)})


def test_with_graph_replaces_and_adds(fig_run):
    extra = MultigraphSnapshot("x", True, [(1, 2, 1, 1.0)])
    run2 = fig_run.with_graph("x", extra)
    assert "x" in run2.graphs.types
    assert "x" not in fig_run.graphs.types  # immutability: original untouched


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), lo=st.integers(-2, 8), width=st.integers(0, 8))
def test_multiplicities_monotone_in_weight_window(seed, lo, width):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=5, max_len=3)
    tag = sorted(run.graphs.types)[seed % len(run.graphs.types)]
    t = seed % (run.length + 1)
    i = 1 + seed % run.num_agents
    direction = "in" if seed % 2 else "out"
    snap = run.graphs.at(tag, t)
    small = Counter(snap._entry(i, direction, float(lo), float(lo + width)))
    big = Counter(snap._entry(i, direction, float(lo - 1), float(lo + width + 2)))
    assert all(m <= big.get(j, 0) for j, m in small.items())
    assert agent_neighbors(run, tag, t, i, direction) <= set(
        range(1, run.num_agents + 1)
    )


def test_infinite_weights_allowed_and_filtered():
    run = two_edge_run(
        directed=True,
        edges=[(1, 2, 1, math.inf), (1, 2, 2, -math.inf), (1, 2, 3, 4.0)],
    )
    snap = run.graphs.at("c", 0)
    assert len(snap.oriented_edges(1, "out")) == 3
    assert Counter(snap._entry(1, "out", -math.inf, math.inf)) == {2: 3}
    # only edge 3 (weight 4) is finite, edge 1 is +inf and edge 2 is -inf
    assert Counter(snap._entry(1, "out", 0.0, 10.0)) == {2: 1}
    assert Counter(snap._entry(1, "out", 0.0, math.inf)) == {2: 2}
    assert Counter(snap._entry(1, "out", -math.inf, 0.0)) == {2: 1}
    assert Counter(snap._entry(1, "out", 5.0, 10.0)) == {}
    assert agent_neighbors(run, "c", 0, 1, "out", (0.0, math.inf)) == {2}


_EMPTY_G = MultigraphSnapshot("g", True, [])


@pytest.mark.parametrize("make, message", [
    (lambda: GraphTrajectory(0, static={"g": _EMPTY_G}, dynamic={"g": (_EMPTY_G,)}),
     "graph types both static and dynamic: ['g']"),
    (lambda: GraphTrajectory(0, static={"h": _EMPTY_G}), "snapshot for 'h' is typed 'g'"),
    (lambda: GraphTrajectory(1, dynamic={"h": (MultigraphSnapshot("h", True, []), _EMPTY_G)}),
     "snapshot for 'h' is typed 'g'"),
    (lambda: MasRun(MasTrajectory([[(0.0,)]]), GraphTrajectory(1)),
     "trajectory length 0 != graph length 1"),
], ids=["static-and-dynamic", "static-mistyped", "dynamic-mistyped", "run-lengths"])
def test_inconsistent_graph_trajectories_and_runs_rejected(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_reversed_weight_window_rejected():
    run = two_edge_run()
    with pytest.raises(ValueError, match="reversed"):
        agent_neighbors(run, "c", 0, 1, "in", (5.0, 2.0))


def expected_multiplicities(snap, i, direction, lo, hi) -> Counter:
    """The orientation rule, read straight off the edge set: In counts the
    edges into i and Out the edges out of i; an undirected edge is seen from
    both endpoints in both directions; a self-loop counts once, toward i."""
    want = Counter()
    for e in snap.edges:
        if not lo <= e.weight <= hi:
            continue
        if snap.directed:
            here, there = (e.dst, e.src) if direction == "in" else (e.src, e.dst)
            if here == i:
                want[there] += 1
        elif e.src == i:
            want[e.dst] += 1
        elif e.dst == i:
            want[e.src] += 1
    return want


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9), lo=st.integers(-2, 9), width=st.integers(0, 9))
def test_multiplicities_count_neighbor_endpoints(seed, lo, width):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=5, max_len=3)

    def multigraph(directed):
        # up to two parallel edges per pair, self-loops included
        return [
            (i, j, k, float(rng.randint(0, 9)))
            for i in range(1, run.num_agents + 1)
            for j in range(1 if directed else i, run.num_agents + 1)
            for k in (1, 2)
            if rng.random() < 0.3
        ]

    # an undirected and a directed multigraph, beside random_run's tags
    run = run.with_graph("u", MultigraphSnapshot("u", False, multigraph(False)))
    run = run.with_graph("v", MultigraphSnapshot("v", True, multigraph(True)))
    windows = ((-math.inf, math.inf), (float(lo), float(lo + width)), (float(lo), math.inf))
    for tag in sorted(run.graphs.types):
        for t in range(run.length + 1):
            snap = run.graphs.at(tag, t)
            for i in range(1, run.num_agents + 1):
                for direction in ("in", "out"):
                    for w in windows:
                        want = expected_multiplicities(snap, i, direction, *w)
                        assert Counter(snap._entry(i, direction, *w)) == want
                        edges = [e for e in snap.oriented_edges(i, direction)
                                 if w[0] <= e.weight <= w[1]]
                        ends = [(e.dst, e.src) if direction == "in" else e[:2] for e in edges]
                        assert Counter(there for _, there in ends) == want
                        assert all(here == i for here, _ in ends)
                        assert agent_neighbors(run, tag, t, i, direction, w) == set(want)


def test_agent_neighbors_rejects_bad_queries():
    run = two_edge_run()
    with pytest.raises(ValueError, match="reversed"):
        agent_neighbors(run, "c", 0, 1, "in", (5.0, 2.0))
    with pytest.raises(ValueError, match="unknown agent"):
        agent_neighbors(run, "c", 0, 4, "in")
    with pytest.raises(UnknownGraphTypeError):
        agent_neighbors(run, "x", 0, 1, "in")
    with pytest.raises(ValueError, match="direction must be"):
        agent_neighbors(run, "c", 0, 1, "sideways")


@pytest.mark.parametrize("weights", [(math.nan, 5.0), (0.0, math.nan)])
def test_agent_neighbors_rejects_a_nan_weight_bound(weights):
    # nan != nan, so a NaN bound in the index key would add one more index
    # to the run at every call
    run = two_edge_run()
    for _ in range(3):
        with pytest.raises(ValueError, match="NaN"):
            agent_neighbors(run, "c", 0, 1, "in", weights)
    assert run.graphs._neighbors == {}


@pytest.mark.parametrize("agents", [[1], []])
def test_agent_neighbors_checks_the_query_for_any_agent_set(agents):
    run = two_edge_run()
    with pytest.raises(ValueError, match="direction must be"):
        agent_neighbors(run, "nope", 99, agents, "sideways", (5.0, 2.0))
    with pytest.raises(ValueError, match="reversed"):
        agent_neighbors(run, "c", 0, agents, "in", (5.0, 2.0))
    with pytest.raises(UnknownGraphTypeError):
        agent_neighbors(run, "nope", 0, agents, "in")
    with pytest.raises(TimeOutOfRangeError):
        agent_neighbors(run, "c", 99, agents, "in")
    assert agent_neighbors(run, "c", 0, agents, "in") == ({3} if agents else frozenset())
