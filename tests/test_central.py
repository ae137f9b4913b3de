import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    Always,
    And,
    Atom,
    CountSet,
    Edge,
    Eventually,
    ExistsAgent,
    GraphOp,
    GraphTrajectory,
    InsufficientTraceError,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    Not,
    Signal,
    StateVar,
    TimeInterval,
    Truth,
    Until,
    WeightInterval,
    is_determinable,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_local,
)
from stlgo.central import oracle_eval, oracle_eval_global
from stlgo.formula import FULL_WEIGHTS, AgentBind, AgentStateVar, BinOp, Const, GlobalAtom, Or

from conftest import make_fig_run, random_global_formula, random_local_formula, random_run

INF = math.inf


def star_run(child_values, length=0):
    """Star graph: edges from agents 2..k+1 into agent 1; agent state x[0]
    holds the given per-agent values at every time."""
    k = len(child_values)
    edges = [(j, 1, 1, 1.0) for j in range(2, k + 2)]
    snap = MultigraphSnapshot("g", True, edges)
    states = [[(0.0,)] + [(float(v),) for v in child_values] for _ in range(length + 1)]
    traj = MasTrajectory(states)
    return MasRun(traj, GraphTrajectory(length, static={"g": snap}))


POSITIVE = Atom(StateVar(0))  # x[0] >= 0


def test_star_graph_counting():
    # in-edges from three agents with child signals (1, 0, 1): count 2
    run = star_run([1, -1, 1])
    f = GraphOp("in", "exists", ("g",), CountSet.single(2, INF), FULL_WEIGHTS, POSITIVE)
    assert monitor_local(run, f, 1, 0).values == (1,)
    f0 = GraphOp("in", "exists", ("g",), CountSet.single(3, INF), FULL_WEIGHTS, POSITIVE)
    assert monitor_local(run, f0, 1, 0).values == (0,)


def test_isolated_agent_counts_zero():
    run = star_run([1, 1])
    f = GraphOp("in", "exists", ("g",), CountSet.single(1, INF), FULL_WEIGHTS, Truth())
    # agents 2..3 have no in-edges
    assert monitor_local(run, f, 2, 0).values == (0,)
    zero_ok = GraphOp("in", "exists", ("g",), CountSet.single(0, 0), FULL_WEIGHTS, Truth())
    assert monitor_local(run, zero_ok, 2, 0).values == (1,)


def test_multigraph_multiplicity_counts_edges():
    snap = MultigraphSnapshot("g", True, [(2, 1, 1, 1.0), (2, 1, 2, 1.0)])
    traj = MasTrajectory([[(0.0,), (1.0,)]])
    run = MasRun(traj, GraphTrajectory(0, static={"g": snap}))
    two = GraphOp("in", "exists", ("g",), CountSet.single(2, 2), FULL_WEIGHTS, POSITIVE)
    assert monitor_local(run, two, 1, 0).values == (1,)


WINDOWS = ((-INF, INF), (0.0, 4.0), (3.0, 3.0), (5.0, INF), (-INF, -1.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_neighbor_index_entries_are_the_snapshots_multiplicities(seed):
    # g1 is a multigraph; each tag is static or time-varying at random
    rng = random.Random(seed)
    run = random_run(rng, max_agents=5, max_len=5)
    keys = [(tag, d, lo, hi) for tag in sorted(run.graphs.types) for d in ("in", "out")
            for lo, hi in WINDOWS]
    rng.shuffle(keys)  # entries are read in any order, across the run's keys
    for tag, direction, lo, hi in keys:
        index = run.graphs.neighbor_index(tag, direction, lo, hi)
        assert run.graphs.neighbor_index(tag, direction, lo, hi) is index
        cells = [(i, t) for i in range(1, run.num_agents + 1) for t in range(run.length + 1)]
        rng.shuffle(cells)
        for i, t in cells:
            if rng.random() < 0.3:
                index.over_time(i)
            snap = run.graphs.at(tag, t)
            want = Counter(snap._entry(i, direction, lo, hi))
            entry = index.at(i, t)
            # a tuple with one neighbor per edge, a neighbor's copies
            # together, the neighbors in the order of their first edge
            firsts = dict.fromkeys(e.src if direction == "in" else e.dst
                                   for e in snap.oriented_edges(i, direction)
                                   if lo <= e.weight <= hi)
            assert entry == tuple(j for j in firsts for _ in range(want[j]))
            assert index.at(i, t) is entry
        for i in range(1, run.num_agents + 1):
            most = Counter()
            for t in range(run.length + 1):
                for j, m in Counter(run.graphs.at(tag, t)._entry(i, direction, lo, hi)).items():
                    most[j] = max(most[j], m)
            entry = index.over_time(i)
            assert Counter(entry) == most
            assert entry == tuple(j for j in dict.fromkeys(entry) for _ in range(most[j]))


def test_neighbor_index_fills_an_entry_on_its_first_read_only(monkeypatch):
    # "d" changes every step and "c" is static
    def snap(tag, t):
        edges = [(1, 2, 1, 1.0), (2, 3, 1, 1.0), (1, 3 - t % 2, 2, 1.0)]
        return MultigraphSnapshot(tag, False, edges)

    states = [[(float(i - t),) for i in range(3)] for t in range(4)]
    run = MasRun(MasTrajectory(states), GraphTrajectory(
        3, static={"c": snap("c", 0)}, dynamic={"d": tuple(snap("d", t) for t in range(4))}))
    calls = []
    original = MultigraphSnapshot._entry

    def counting(snapshot, i, direction, lo, hi):
        calls.append((snapshot.graph_type, i))
        return original(snapshot, i, direction, lo, hi)

    monkeypatch.setattr(MultigraphSnapshot, "_entry", counting)
    assert Counter(run.graphs.neighbor_index("d", "out", -INF, INF).at(1, 1)) == {2: 2}
    assert calls == [("d", 1)]
    f = parse_local("G[0,3] Out{d} E[1,inf] (In{d} E[0,2] [x[0] >= 0])")
    first = monitor_local(run, f, 1, 0)
    assert len(calls) > 1
    count = len(calls)
    # a second query on the run reads the entries the first one filled
    assert monitor_local(run, f, 1, 0) == first and len(calls) == count
    # one entry per agent for a static graph, one per (agent, time) otherwise
    monitor_local(run, parse_local("G[0,3] Out{c} E[1,inf] [x[0] >= 0]"), 1, 0)
    assert calls[count:] == [("c", 1)]
    # an equal run has its own index, and a copy with another graph starts empty
    assert run == MasRun(run.trajectory, GraphTrajectory(3, run.graphs.static, run.graphs.dynamic))
    run.with_graph("c", snap("c", 1)).graphs.neighbor_index("d", "out", -INF, INF).at(1, 1)
    assert calls[-1] == ("d", 1) and len(calls) == count + 2


def test_min_distance_violation_window():
    # four agents, complete distance graph; one pair closer than 0.3 at t=1
    def dist_snap(bad):
        edges = []
        for i in range(1, 5):
            for j in range(i + 1, 5):
                w = 0.25 if bad and {i, j} == {1, 2} else 1.0
                edges.append(Edge(i, j, 1, w))
        return MultigraphSnapshot("d", False, edges)

    snaps = (dist_snap(False), dist_snap(True), dist_snap(False), dist_snap(False))
    traj = MasTrajectory([[(0.0,)] * 4] * 4)
    run = MasRun(traj, GraphTrajectory(3, dynamic={"d": snaps}))
    f = Always(
        GraphOp("out", "exists", ("d",), CountSet.single(3, 3), WeightInterval(0.3, INF), Truth()),
        TimeInterval(0, 2),
    )
    for agent in (1, 2):
        sig = monitor_local(run, f, agent, 1)
        assert sig.values[0] == 0 and sig.values[1] == 0  # windows containing t=1
        assert sig.values[2] == 1 and sig.values[3] == 1
        for t in range(4):
            assert sig.values[t] == oracle_eval(run, f, agent, t)
    for agent in (3, 4):
        assert monitor_local(run, f, agent, 1).values == (1, 1, 1, 1)


def test_until_requires_left_through_witness():
    # left fails exactly at the witness time: until must be false there
    states = [[(1.0,)], [(1.0,)], [(-1.0,)]]
    traj = MasTrajectory(states)
    run = MasRun(traj, GraphTrajectory(2, static={}))
    left = POSITIVE
    right = Not(POSITIVE)
    f = parse_local("[x[0] >= 0] U[0,2] ![x[0] >= 0]")
    sig = monitor_local(run, f, 1, 0)
    # witness would be t=2 where right holds but left fails at t=2 as well
    assert sig.values[0] == 0
    assert oracle_eval(run, f, 1, 0) == 0


def test_unbounded_always_means_every_available_sample():
    states = [[(1.0,)], [(1.0,)], [(-1.0,)]]
    run = MasRun(MasTrajectory(states), GraphTrajectory(2, static={}))
    g_inf = parse_local("G[0,inf] [x[0] >= 0]")
    assert monitor_local(run, g_inf, 1, 2).values == (0, 0, 0)
    states_ok = [[(1.0,)], [(1.0,)], [(1.0,)]]
    run_ok = MasRun(MasTrajectory(states_ok), GraphTrajectory(2, static={}))
    assert monitor_local(run_ok, g_inf, 1, 2).values == (1, 1, 1)


def test_strict_mode_raises_on_short_trace():
    run = star_run([1, 1], length=2)
    f = parse_local("G[0,5] true")
    with pytest.raises(InsufficientTraceError, match="insufficient trace"):
        monitor_local(run, f, 1, 0, strict=True)
    # non-strict clamps instead
    assert monitor_local(run, f, 1, 0).values == (1, 1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "G[0,inf] [x[0] >= 0]",
        "[x[0] >= -2] U[0,inf] [x[0] >= 5]",
        "F[3,40] [x[0] >= 5]",
    ],
)
def test_monitor_matches_oracle_on_long_trace(text):
    # L = 1200 with sparse events, so unbounded windows scan far ahead
    rng = random.Random(text)
    L = 1200
    values = [1.0] * (L + 1)
    for t in rng.sample(range(L + 1), 12):
        values[t] = rng.choice([-3.0, -1.0, 6.0])
    run = MasRun(
        MasTrajectory([[(v,)] for v in values]), GraphTrajectory(L, static={})
    )
    f = parse_local(text)
    sig = monitor_local(run, f, 1, L)
    assert (sig.t0, sig.t1) == (0, L)
    for t in sorted({0, L} | set(rng.sample(range(L + 1), 25))):
        assert sig.values[t] == oracle_eval(run, f, 1, t), t


def test_strict_mode_signal_covers_zero_to_T():
    run = star_run([1, 1], length=5)
    f = parse_local("G[0,2] true")
    sig = monitor_local(run, f, 1, 3, strict=True)
    assert (sig.t0, sig.t1) == (0, 3)


def test_signal_domain_covers_T_plus_horizon():
    run = star_run([1, 1], length=8)
    f = parse_local("F[0,3] true")
    sig = monitor_local(run, f, 1, 2)
    assert (sig.t0, sig.t1) == (0, 5)


def test_monitor_global_forall_true():
    run = star_run([1, 1])
    from stlgo import ForAllAgents

    f = ForAllAgents((1, 2), Truth())
    assert monitor_global(run, f, 0).values == (1,)


def test_global_atom_over_one_agent_equals_local_atom_at_it():
    # s[i][k] read at system level and x[k] read at agent i are one cell
    rng = random.Random(5)
    for _ in range(40):
        run = random_run(rng, max_agents=4, max_len=6)
        agent = rng.randint(1, run.num_agents)
        k = rng.randrange(run.trajectory.state_dim)
        c = Const(float(rng.randint(-2, 6)))
        wrap = rng.choice([lambda g: g, lambda g: Eventually(g, TimeInterval(0, 2)),
                           lambda g: Not(Always(g, TimeInterval(1, INF)))])
        T = rng.randint(0, run.length)
        system = monitor_global(run, wrap(GlobalAtom(BinOp("-", AgentStateVar(agent, k), c))), T)
        local = monitor_local(run, wrap(Atom(BinOp("-", StateVar(k), c))), agent, T)
        assert system == local


def test_exists_agent_equals_disjunction_of_binds():
    rng = random.Random(7)
    for _ in range(40):
        run = random_run(rng, max_agents=4, max_len=4)
        local = random_local_formula(rng, tuple(sorted(run.graphs.types)), 1)
        agents = tuple(
            sorted(rng.sample(range(1, run.num_agents + 1), rng.randint(1, run.num_agents)))
        )
        ex = ExistsAgent(agents, local)
        parts = [AgentBind(a, local) for a in agents]
        manual = parts[0]
        for p in parts[1:]:
            manual = Or(manual, p)
        T = rng.randint(0, run.length)
        assert monitor_global(run, ex, T).values == monitor_global(run, manual, T).values


def test_monitor_answers_when_nested_bounds_sum_past_float_range():
    run = star_run([1], length=3)
    f = parse_local("G[0,inf] F[0,1E308] F[0,1E308] true")
    assert monitor_local(run, f, 1, 0).values == (1, 1, 1, 1)


@pytest.mark.parametrize("text", [
    "F[0,1E308] (In{g} E[1,inf] F[0,1E308] [x[0] >= 1])",
    "G[0,inf] F[0,1E308] (In{g} E[1,inf] F[0,1E308] [x[0] >= 1])",
])
def test_distributed_answers_when_nested_bounds_sum_past_float_range(text):
    # the root's horizon is 1E308 + 1E308, past the float range, or inf
    # beyond it; the domain and the leaf's window end at L
    run = star_run([1], length=3)
    f = parse_local(text)
    mask = KnowledgeMask.self_only(1)
    assert monitor_dist(run, mask, f, 1, 0).values == (None,) * 4
    report = is_determinable(run, mask, f, 1, 0)
    assert not report.determinable
    assert [(fl.time, fl.unknown_states) for fl in report.failures] == [
        (t, tuple((2, u) for u in range(t, 4))) for t in range(4)]


def test_unknown_graph_tag_raises():
    run = star_run([1])
    f = GraphOp("in", "exists", ("nope",), CountSet.single(0, 0), FULL_WEIGHTS, Truth())
    with pytest.raises(Exception, match="unknown graph type"):
        monitor_local(run, f, 1, 0)


def test_state_accessors_validated_against_run():
    run = star_run([1])
    with pytest.raises(ValueError, match="state component 3"):
        monitor_local(run, Atom(StateVar(3)), 1, 0)
    from stlgo import AgentBind as Bind

    with pytest.raises(ValueError, match="agent 9"):
        monitor_global(run, Bind(9, Truth()), 0)
    from stlgo import GlobalAtom, AgentStateVar

    with pytest.raises(ValueError, match="agent 7"):
        monitor_global(run, GlobalAtom(AgentStateVar(7, 0)), 0)


def test_local_queries_refuse_agent_accessors_and_unknown_agents():
    run = star_run([1])
    with pytest.raises(ValueError) as err:
        monitor_local(run, Atom(AgentStateVar(1, 0)), 1, 0)
    assert str(err.value) == "agent-indexed accessor inside an agent-local formula"
    with pytest.raises(ValueError) as err:
        monitor_local(run, Truth(), 99, 0)
    assert str(err.value) == "unknown agent 99"


def test_signal_value_bounds():
    """t0 is an int >= 0; values a non-empty tuple of the ints 0 and 1 and None."""
    for t0, values in [(0, (0, 2)), (0, ()), (-5, (1,)), ("0", (1,)), (True, (1,)),
                       (0, (True,)), (0, (1.0,)), (0, [1]), (0, (0, [1]))]:
        with pytest.raises(ValueError):
            Signal(t0, values)
    assert Signal(3, (0, 1, None)).t1 == 5


def test_equal_monitor_signals_are_one_object_while_one_lives():
    # a caller that keeps the answers of repeated queries holds each
    # distinct signal once
    run = make_fig_run(length=3)
    first = monitor_local(run, parse_local("F[0,1] [x[0] >= 3]"), 3, 3)
    assert monitor_local(run, parse_local("[x[0] >= 3] | [x[0] >= 3]"), 3, 3) is first
    assert monitor_dist(run, KnowledgeMask.self_only(3), parse_local("F[0,1] [x[0] >= 3]"),
                        3, 3) is first
    assert monitor_local(run, parse_local("!F[0,1] [x[0] >= 3]"), 3, 3) is not first


# ---------------------------------------------------------------------------
# oracle equivalence and semantic laws (smoke scale; the acceptance suite
# runs the full 1000-instance battery)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_monitor_matches_oracle_local(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=5)
    tags = tuple(sorted(run.graphs.types))
    f = random_local_formula(rng, tags, run.trajectory.state_dim)
    T = rng.randint(0, run.length)
    for agent in range(1, run.num_agents + 1):
        sig = monitor_local(run, f, agent, T)
        for t in range(sig.t1 + 1):
            assert sig.values[t] == oracle_eval(run, f, agent, t), (
                f"seed={seed} agent={agent} t={t}"
            )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_monitor_matches_oracle_global(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=5)
    tags = tuple(sorted(run.graphs.types))
    f = random_global_formula(rng, tags, run.trajectory.state_dim, run.num_agents)
    T = rng.randint(0, run.length)
    sig = monitor_global(run, f, T)
    for t in range(sig.t1 + 1):
        assert sig.values[t] == oracle_eval_global(run, f, t), f"seed={seed} t={t}"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_eventually_always_duality(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=5)
    tags = tuple(sorted(run.graphs.types))
    child = random_local_formula(rng, tags, run.trajectory.state_dim, max_depth=2)
    interval = TimeInterval(rng.randint(0, 2), rng.randint(2, 5))
    ev = Eventually(child, interval)
    dual = Not(Always(Not(child), interval))
    T = rng.randint(0, run.length)
    assert monitor_local(run, ev, 1, T).values == monitor_local(run, dual, 1, T).values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_graph_op_count_complement_duality(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4)
    tags = tuple(sorted(run.graphs.types))
    counts = CountSet.single(rng.randint(0, 2), rng.choice([2, 3, INF]))
    op = GraphOp(
        rng.choice(["in", "out"]), "exists", (rng.choice(tags),), counts,
        FULL_WEIGHTS, random_local_formula(rng, tags, 1, max_depth=1),
    )
    neg = Not(op)
    comp = GraphOp(op.direction, op.quantifier, op.graphs, counts.complement(), op.weights, op.child)
    T = rng.randint(0, run.length)
    for agent in range(1, run.num_agents + 1):
        assert (
            monitor_local(run, neg, agent, T).values
            == monitor_local(run, comp, agent, T).values
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_undirected_in_out_swap_invariance(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4, tags=("g2",))  # undirected only

    def swap(f):
        if isinstance(f, GraphOp):
            d = "out" if f.direction == "in" else "in"
            return GraphOp(d, f.quantifier, f.graphs, f.counts, f.weights, swap(f.child))
        if isinstance(f, Not):
            return Not(swap(f.child))
        if isinstance(f, (Always, Eventually)):
            return type(f)(swap(f.child), f.interval)
        if isinstance(f, And):
            return And(swap(f.left), swap(f.right))
        return f

    f = random_local_formula(rng, ("g2",), 1)
    T = rng.randint(0, run.length)
    for agent in range(1, run.num_agents + 1):
        assert (
            monitor_local(run, f, agent, T).values
            == monitor_local(run, swap(f), agent, T).values
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_count_monotonicity(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4)
    tags = tuple(sorted(run.graphs.types))
    lo = rng.randint(0, 2)
    hi = lo + rng.randint(0, 2)
    small = CountSet.single(lo, hi)
    big = CountSet.single(max(0, lo - 1), hi + 1)
    child = random_local_formula(rng, tags, 1, max_depth=1)
    tag = rng.choice(tags)
    f_small = GraphOp("in", "exists", (tag,), small, FULL_WEIGHTS, child)
    f_big = GraphOp("in", "exists", (tag,), big, FULL_WEIGHTS, child)
    T = rng.randint(0, run.length)
    for agent in range(1, run.num_agents + 1):
        s = monitor_local(run, f_small, agent, T).values
        b = monitor_local(run, f_big, agent, T).values
        assert all(x <= y for x, y in zip(s, b))


def test_shared_subformulas_are_walked_once_per_distinct_node(monkeypatch):
    # f = f U[0,1] f, 20 times: 21 distinct nodes and 2**21 - 1 occurrences.
    # Checking the query (validation and the strict horizon) walks the
    # operands of each distinct node, at each latest time, once
    import stlgo.formula as formula

    f = parse_local("[x[0] >= 2]")
    for _ in range(20):
        f = Until(f, f, TimeInterval(0, 1))
    g = And(AgentBind(1, f), AgentBind(2, f))
    run = make_fig_run(length=40)
    mask = KnowledgeMask.self_only(1)
    visits, operands = Counter(), formula.operands

    def counted(node):
        visits[id(node)] += 1
        return operands(node)

    monkeypatch.setattr(formula, "operands", counted)
    for strict in (False, True):
        for monitor in (lambda: monitor_local(run, f, 1, 10, strict=strict),
                        lambda: monitor_global(run, g, 10, strict=strict),
                        lambda: monitor_dist(run, mask, f, 1, 10, strict=strict)):
            visits.clear()
            monitor()
            assert len(visits) <= 24 and max(visits.values()) <= 3, (strict, dict(visits))
