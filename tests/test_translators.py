import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    AgentBind,
    Atom,
    BinOp,
    Const,
    CountSet,
    Edge,
    GraphOp,
    GraphTrajectory,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    Not,
    StateVar,
    Truth,
    WeightInterval,
    anchor_subgraph,
    count_set_for,
    enumerate_traces,
    labeled_subgraph,
    monitor_global,
    psi_graph_tag,
    shortest_distance_graph,
    shortest_distance_map,
    translate_sastl_count,
    translate_sstl,
    translate_strel,
)
from stlgo.central import oracle_eval_global

from conftest import FIG_LABELS, make_fig_run
from direct_semantics import (
    brute_force_distances,
    sastl_count_direct,
    sstl_everywhere_direct,
    sstl_somewhere_direct,
    strel_escape_direct,
    strel_reach_direct,
)

INF = math.inf
W = WeightInterval


# ---------------------------------------------------------------------------
# shortest distances


def test_fig_distances_from_node_3(fig_snapshot):
    d = shortest_distance_map(fig_snapshot)[3]
    assert d == {3: 0.0, 1: 6.0, 2: 8.0, 4: 8.0, 5: 6.0, 7: 14.0, 6: 16.0}


def test_self_distance_zero_everywhere(fig_snapshot):
    dmap = shortest_distance_map(fig_snapshot)
    for i in range(1, 8):
        assert dmap[i][i] == 0.0


def test_single_edge_distance():
    g = MultigraphSnapshot("d", False, [(1, 2, 1, 7.0)])
    assert shortest_distance_map(g)[1][2] == 7.0


def test_distance_graph_has_no_self_edges(fig_snapshot):
    ds = shortest_distance_graph(fig_snapshot, "ds")
    assert ds.graph_type == "ds"
    assert all(e.src != e.dst for e in ds.edges)


def test_distances_match_brute_force_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    edges.append(Edge(i, j, 1, float(rng.randint(1, 9))))
        g = MultigraphSnapshot("d", False, edges)
        dmap = shortest_distance_map(g, nodes=range(1, n + 1))
        for src in range(1, n + 1):
            assert dmap[src] == brute_force_distances(g, src) | {src: 0.0}


def test_triangle_inequality_and_symmetry(fig_snapshot):
    dmap = shortest_distance_map(fig_snapshot)
    for i in dmap:
        for j in dmap[i]:
            assert dmap[i][j] == dmap[j][i]
            for k in dmap[i]:
                if k in dmap[j]:
                    assert dmap[i][k] <= dmap[i][j] + dmap[j][k] + 1e-12


def test_negative_weight_rejected():
    g = MultigraphSnapshot("d", False, [(1, 2, 1, -1.0)])
    with pytest.raises(ValueError, match="negative weights unsupported"):
        shortest_distance_map(g)


# ---------------------------------------------------------------------------
# labeled subgraph


def test_labeled_subgraph_keeps_all_when_all_labeled(fig_snapshot):
    ds = shortest_distance_graph(fig_snapshot, "ds")
    labels = {i: {"H"} for i in range(1, 8)}
    sub = labeled_subgraph(ds, labels, "H", 3)
    assert sub.edges == ds.edges


def test_labeled_subgraph_unknown_label_keeps_anchor(fig_snapshot):
    ds = shortest_distance_graph(fig_snapshot, "ds")
    sub = labeled_subgraph(ds, FIG_LABELS, "Z", 3)
    assert sub.edges == frozenset()


def test_labeled_subgraph_fig_labels(fig_snapshot):
    # anchor 3 is the only C; every other node is H, so nothing is dropped
    ds = shortest_distance_graph(fig_snapshot, "ds")
    sub = labeled_subgraph(ds, FIG_LABELS, "H", 3)
    nodes = {e.src for e in sub.edges} | {e.dst for e in sub.edges}
    assert nodes == set(range(1, 8))


def test_anchor_subgraph_keeps_only_incident_edges(fig_snapshot):
    sub = anchor_subgraph(fig_snapshot, 3, "d3")
    assert all(3 in (e.src, e.dst) for e in sub.edges)
    assert len(sub.edges) == 4


# ---------------------------------------------------------------------------
# count sets for comparisons


@pytest.mark.parametrize(
    "cmp,bound,expected",
    [
        (">=", 2, ((2, INF),)),
        (">", 2, ((3, INF),)),
        ("<", 1, ((0, 0),)),
        ("<=", 3, ((0, 3),)),
        ("=", 2, ((2, 2),)),
        ("<", 0, ()),
        (">=", 2.5, ((3, INF),)),
        ("<=", 2.5, ((0, 2),)),
        ("=", 2.5, ()),
        # no count is infinite: it is below inf, above -inf, equal to neither
        (">=", INF, ()),
        (">", INF, ()),
        ("=", INF, ()),
        ("<=", INF, ((0, INF),)),
        ("<", INF, ((0, INF),)),
        ("<=", -INF, ()),
        ("<", -INF, ()),
        ("=", -INF, ()),
        (">=", -INF, ((0, INF),)),
        (">", -INF, ((0, INF),)),
    ],
)
def test_count_set_for(cmp, bound, expected):
    assert count_set_for(cmp, bound).intervals == expected


@pytest.mark.parametrize("cmp", ["<=", "<", ">=", ">", "="])
def test_count_set_for_rejects_nan(cmp):
    with pytest.raises(ValueError, match="count threshold is NaN"):
        count_set_for(cmp, math.nan)


@pytest.mark.parametrize("cmp,c,expected", [
    (">=", INF, ()),
    ("<", INF, ((0, INF),)),
    (">", -INF, ((0, INF),)),
    ("=", -INF, ()),
])
def test_sastl_avg_takes_infinite_thresholds(cmp, c, expected):
    f = translate_sastl_count("H", W(0, 10), cmp, c, Truth(), 3, op="avg", n_prime=4)
    assert f.child.counts.intervals == expected


# ---------------------------------------------------------------------------
# counting translation


def coverage_atom():
    # x[0] >= 0 plays "inside the signal coverage area"
    return Atom(StateVar(0))


def fig_run_with_psi_graph(psi="H", anchor=3, states=None):
    run = make_fig_run(states_by_agent=states)
    ds = shortest_distance_graph(run.graphs.at("d", 0), "ds", nodes=range(1, 8))
    sub = labeled_subgraph(ds, FIG_LABELS, psi, anchor)
    return run.with_graph("ds", ds).with_graph(psi_graph_tag(psi, anchor), sub), ds


def test_sastl_count_example_shape():
    run, _ = fig_run_with_psi_graph()
    f = translate_sastl_count("H", W(0, 10), ">=", 2, coverage_atom(), 3)
    assert f == AgentBind(
        3,
        GraphOp("in", "exists", ("psiH_3",), CountSet.single(2, INF), W(0, 10), coverage_atom()),
    )
    # nodes 1, 2, 4, 5 are H within distance 10 and in coverage (state >= 0)
    assert monitor_global(run, f, 0).values == (1,)


def test_sastl_count_matches_direct_on_fig():
    states = {1: 1, 2: -1, 3: 1, 4: 1, 5: -2, 6: 1, 7: 1}
    run, ds = fig_run_with_psi_graph(states=states)
    for cmp in ("<=", "<", ">=", ">", "="):
        for c in range(0, 4):
            f = translate_sastl_count("H", W(0, 10), cmp, c, coverage_atom(), 3)
            got = monitor_global(run, f, 0).values[0]
            want = sastl_count_direct(
                run, ds, FIG_LABELS, "H", W(0, 10), cmp, c, coverage_atom(), 3, 0
            )
            assert got == int(want), (cmp, c)


def test_sastl_avg_requires_n_prime():
    with pytest.raises(ValueError, match="avg requires N'"):
        translate_sastl_count("H", W(0, 10), ">=", 1, Truth(), 3, op="avg")
    f = translate_sastl_count("H", W(0, 10), ">=", 0.5, Truth(), 3, op="avg", n_prime=4)
    assert f.child.counts == CountSet.single(2, INF)


@pytest.mark.parametrize("op, n_prime, message", [
    ("median", None, "sastl op must be 'sum' or 'avg', not 'median'"),
    ("everywhere", 4, "sastl op must be 'sum' or 'avg', not 'everywhere'"),
    ("avg", 0, "avg requires N' to be an int >= 1, not 0"),
    ("avg", -3, "avg requires N' to be an int >= 1, not -3"),
    ("avg", True, "avg requires N' to be an int >= 1, not True"),
    ("avg", 2.0, "avg requires N' to be an int >= 1, not 2.0"),
])
def test_sastl_rejects_unknown_op_and_bad_n_prime(op, n_prime, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        translate_sastl_count("H", W(0, 10), ">=", 1, Truth(), 3, op=op, n_prime=n_prime)


# ---------------------------------------------------------------------------
# somewhere / everywhere translation


def test_somewhere_on_fig():
    states = {1: 1, 2: -1, 3: -1, 4: -1, 5: -1, 6: 1, 7: 1}
    run, ds = fig_run_with_psi_graph(states=states)
    f = translate_sstl("somewhere", W(0, 10), coverage_atom(), 3)
    assert monitor_global(run, f, 0).values == (1,)  # node 1 at distance 6
    assert sstl_somewhere_direct(run, ds, W(0, 10), coverage_atom(), 3, 0)
    tight = translate_sstl("somewhere", W(0, 5), coverage_atom(), 3)
    assert monitor_global(run, tight, 0).values == (0,)


def test_everywhere_true_is_always_satisfied():
    run, _ = fig_run_with_psi_graph()
    f = translate_sstl("everywhere", W(0, 10), Truth(), 3)
    assert monitor_global(run, f, 0).values == (1,)


def test_everywhere_somewhere_duality_on_random_runs():
    rng = random.Random(23)
    for _ in range(40):
        run, ds, _ = random_labeled_run(rng)
        anchor = rng.randint(1, run.num_agents)
        wiv = W(0, float(rng.randint(0, 12)))
        inner = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 4)))))
        ew = translate_sstl("everywhere", wiv, inner, anchor)
        sw_not = translate_sstl("somewhere", wiv, Not(inner), anchor)
        t = rng.randint(0, run.length)
        assert oracle_eval_global(run, ew, t) == 1 - oracle_eval_global(run, sw_not, t)


# ---------------------------------------------------------------------------
# traces and reach/escape


def test_fig_reach_trace_set(fig_snapshot):
    traces = enumerate_traces(fig_snapshot, 3, W(0, 20), "reach")
    multi_node = {(3, 1), (3, 2), (3, 4), (3, 5), (3, 5, 7), (3, 4, 6)}
    # the root-only trace qualifies too (empty sum 0 lies in [0, 20])
    assert traces == multi_node | {(3,)}


def test_trivial_trace_only_when_zero_window(fig_snapshot):
    assert enumerate_traces(fig_snapshot, 3, W(0, 0), "reach") == {(3,)}
    assert enumerate_traces(fig_snapshot, 3, W(0, 0), "escape") == {(3,)}


def test_star_graph_traces():
    edges = [(1, j, 1, 1.0) for j in range(2, 6)]
    g = MultigraphSnapshot("d", False, edges)
    traces = enumerate_traces(g, 1, W(0, 1), "reach")
    assert traces == {(1,)} | {(1, j) for j in range(2, 6)}


def test_traces_are_simple_and_satisfy_mode(fig_snapshot):
    for mode in ("reach", "escape"):
        for tau in enumerate_traces(fig_snapshot, 3, W(0, 22), mode):
            assert len(set(tau)) == len(tau)
            assert tau[0] == 3


def long_path(n: int) -> MultigraphSnapshot:
    return MultigraphSnapshot("d", False, [(k, k + 1, 1, 1.0) for k in range(1, n)])


@pytest.mark.parametrize("mode", ["reach", "escape"])
def test_traces_along_a_long_path_need_no_recursion(mode):
    # deeper than the interpreter's recursion limit
    traces = enumerate_traces(long_path(1100), 1, W(0, INF), mode)
    assert traces == {tuple(range(1, k + 1)) for k in range(1, 1101)}


def test_reach_requires_positive_weights():
    g = MultigraphSnapshot("d", False, [(1, 2, 1, 0.0)])
    with pytest.raises(ValueError, match="positive weights required"):
        enumerate_traces(g, 1, W(0, 5), "reach")


def test_fig_reach_formula_is_six_way_plus_anchor():
    run = make_fig_run()
    pi1, pi2 = coverage_atom(), Atom(BinOp("-", StateVar(0), Const(6.0)))
    f = translate_strel("reach", W(0, 20), 3, run, 0, phi1=pi1, phi2=pi2)
    # disjunction over the 6 multi-node traces plus the root-only trace
    disjuncts = []

    def collect(node):
        from stlgo import Or

        if isinstance(node, Or):
            collect(node.left)
            collect(node.right)
        else:
            disjuncts.append(node)

    collect(f)
    assert len(disjuncts) == 7


def test_escape_trivial_trace():
    run = make_fig_run()
    f = translate_strel("escape", W(0, 0), 3, run, 0, phi=Truth())
    assert monitor_global(run, f, 0).values == (1,)


def random_labeled_run(rng, max_agents=6):
    """Run over one undirected positive-weight distance graph, plus its
    shortest-distance graph, plus random labels."""
    n = rng.randint(2, max_agents)
    length = rng.randint(0, 3)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.55:
                edges.append(Edge(i, j, 1, float(rng.randint(1, 6))))
    g = MultigraphSnapshot("d", False, edges)
    states = [
        [(float(rng.randint(-3, 5)),) for _ in range(n)] for _ in range(length + 1)
    ]
    traj = MasTrajectory(states)
    run = MasRun(traj, GraphTrajectory(length, static={"d": g}))
    ds = shortest_distance_graph(g, "ds", nodes=range(1, n + 1))
    run = run.with_graph("ds", ds)
    labels = {
        i: ({"H"} if rng.random() < 0.6 else set()) | ({"C"} if rng.random() < 0.3 else set())
        for i in range(1, n + 1)
    }
    return run, ds, labels


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_reach_translation_matches_direct(seed):
    rng = random.Random(seed)
    run, _, _ = random_labeled_run(rng)
    anchor = rng.randint(1, run.num_agents)
    wiv = W(float(rng.choice([0, 0, 1, 3])), float(rng.randint(4, 14)))
    pi1 = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 3)))))
    pi2 = Atom(BinOp("-", Const(float(rng.randint(-2, 3))), StateVar(0)))
    t = rng.randint(0, run.length)
    f = translate_strel("reach", wiv, anchor, run, t, phi1=pi1, phi2=pi2)
    assert oracle_eval_global(run, f, t) == int(
        strel_reach_direct(run, pi1, pi2, wiv, anchor, t)
    ), f"seed={seed}"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_escape_translation_matches_direct(seed):
    rng = random.Random(seed)
    run, _, _ = random_labeled_run(rng)
    anchor = rng.randint(1, run.num_agents)
    wiv = W(float(rng.choice([0, 0, 2])), float(rng.randint(2, 12)))
    pi = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 3)))))
    t = rng.randint(0, run.length)
    f = translate_strel("escape", wiv, anchor, run, t, phi=pi)
    assert oracle_eval_global(run, f, t) == int(
        strel_escape_direct(run, pi, wiv, anchor, t)
    ), f"seed={seed}"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_sastl_and_sstl_translations_match_direct(seed):
    rng = random.Random(seed)
    run, ds, labels = random_labeled_run(rng)
    anchor = rng.randint(1, run.num_agents)
    wiv = W(0.0, float(rng.randint(0, 12)))
    inner = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 4)))))
    t = rng.randint(0, run.length)

    psi = rng.choice(["H", "C"])
    sub = labeled_subgraph(ds, labels, psi, anchor)
    run_psi = run.with_graph(psi_graph_tag(psi, anchor), sub)
    cmp = rng.choice(["<=", "<", ">=", ">", "="])
    c = rng.randint(0, 3)
    f = translate_sastl_count(psi, wiv, cmp, c, inner, anchor)
    assert oracle_eval_global(run_psi, f, t) == int(
        sastl_count_direct(run, ds, labels, psi, wiv, cmp, c, inner, anchor, t)
    ), f"seed={seed} sastl"

    sw = translate_sstl("somewhere", wiv, inner, anchor)
    assert oracle_eval_global(run, sw, t) == int(
        sstl_somewhere_direct(run, ds, wiv, inner, anchor, t)
    ), f"seed={seed} somewhere"
    ew = translate_sstl("everywhere", wiv, inner, anchor)
    assert oracle_eval_global(run, ew, t) == int(
        sstl_everywhere_direct(run, ds, wiv, inner, anchor, t)
    ), f"seed={seed} everywhere"


def test_normalize_labels_totalizes_and_validates():
    from stlgo.translators import normalize_labels

    out = normalize_labels({2: {"H"}}, 3)
    assert out == {1: frozenset(), 2: frozenset({"H"}), 3: frozenset()}
    with pytest.raises(ValueError, match="unknown agent"):
        normalize_labels({9: {"H"}}, 3)
