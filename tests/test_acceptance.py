"""Acceptance suite: one test per criterion, each printing a PASS line with
the evidence counts (run with ``pytest tests/test_acceptance.py -v -s``).

The random instance batteries are seeded and deterministic. Criterion 5
reuses the criterion-1 instance set, so those instances are built once and
cached at module scope.
"""

from __future__ import annotations

import math
import random
import time

from stlgo import (
    AgentBind,
    Always,
    And,
    Atom,
    BinOp,
    Const,
    CountSet,
    Eventually,
    ExistsAgent,
    ForAllAgents,
    GraphOp,
    Implies,
    KnowledgeMask,
    MasRun,
    MultigraphSnapshot,
    Not,
    Or,
    StateVar,
    TimeInterval,
    Truth,
    Until,
    WeightInterval,
    enumerate_traces,
    gen_bike,
    gen_drone,
    horizon,
    is_determinable,
    labeled_subgraph,
    lower,
    monitor_dist,
    monitor_global,
    monitor_local,
    refine,
    shortest_distance_map,
    translate_sastl_count,
    translate_sstl,
    translate_strel,
)
from stlgo import BikeScenarioConfig, DroneScenarioConfig
from stlgo.central import oracle_eval, oracle_eval_global
from stlgo.cli import drone_formulas, with_anchor_graphs
from stlgo.central import graph_op_verdict
from stlgo.formula import FULL_WEIGHTS
from stlgo.translators import psi_graph_tag

from conftest import (
    FIG_EDGES,
    graph_ops,
    load_script,
    nested_graph_formula,
    random_global_formula,
    random_local_formula,
    random_mask,
    random_run,
)
from direct_semantics import (
    completion_verdict,
    sastl_count_direct,
    sstl_everywhere_direct,
    sstl_somewhere_direct,
    strel_escape_direct,
    strel_reach_direct,
)
from test_translators import random_labeled_run

INF = math.inf
W = WeightInterval


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1 instance set (shared with criterion 5)

_INSTANCES: list | None = None


def criterion1_instances():
    """1000 seeded instances: (kind, run, formula, T)."""
    global _INSTANCES
    if _INSTANCES is not None:
        return _INSTANCES
    rng = random.Random(20_240_901)
    instances = []
    for i in range(1000):
        run = random_run(rng, max_agents=6, max_len=10)
        tags = tuple(sorted(run.graphs.types))
        dim = run.trajectory.state_dim
        T = rng.randint(0, run.length)
        if i % 5 == 4:
            # guaranteed nested graph operators with graph-set quantifiers
            instances.append(("local", run, nested_graph_formula(rng, tags, dim), T))
        elif i % 3 == 2:
            f = random_global_formula(rng, tags, dim, run.num_agents)
            instances.append(("global", run, f, T))
        else:
            f = random_local_formula(rng, tags, dim, max_depth=4)
            instances.append(("local", run, f, T))
    _INSTANCES = instances
    return instances


def test_criterion_1_oracle_equivalence_centralized():
    start = time.perf_counter()
    instances = criterion1_instances()
    points = 0
    nested = 0
    quantified = 0
    for kind, run, f, T in instances:
        if kind == "local":
            ops = graph_ops(f)
            if any(graph_ops(op.child) for op in ops):
                nested += 1
            if any(len(op.graphs) > 1 for op in ops):
                quantified += 1
            for agent in range(1, run.num_agents + 1):
                sig = monitor_local(run, f, agent, T)
                for t in range(sig.t1 + 1):
                    assert sig.values[t] == oracle_eval(run, f, agent, t)
                    points += 1
        else:
            sig = monitor_global(run, f, T)
            for t in range(sig.t1 + 1):
                assert sig.values[t] == oracle_eval_global(run, f, t)
                points += 1
    elapsed = time.perf_counter() - start
    assert len(instances) >= 1000
    assert nested >= 100, "instance set must exercise nested graph operators"
    assert quantified >= 100, "instance set must exercise graph-set quantifiers"
    assert elapsed < 60.0, f"criterion 1 must finish in < 60 s, took {elapsed:.1f} s"
    report(
        "criterion 1 (centralized oracle equivalence)",
        f"{len(instances)} instances, {points} (agent, t) points, "
        f"{nested} nested / {quantified} multi-graph, {elapsed:.1f} s",
    )


def test_criterion_2_distributed_soundness():
    rng = random.Random(77_001)
    pairs = 0
    full_checked = 0
    chains = 0
    while pairs < 1000:
        run = random_run(rng, max_agents=5, max_len=6)
        tags = tuple(sorted(run.graphs.types))
        f = random_local_formula(rng, tags, run.trajectory.state_dim)
        subject = rng.randint(1, run.num_agents)
        observer = rng.randint(1, run.num_agents)
        T = rng.randint(0, run.length)
        central = monitor_local(run, f, subject, T)

        def check_sound(mask):
            sig = monitor_dist(run, mask, f, subject, T)
            for t in range(sig.t1 + 1):
                if sig.values[t] is not None:
                    assert sig.values[t] == central.values[t]
            return sig

        base = random_mask(rng, run, observer, rng.choice([0.0, 0.2, 0.5, 0.8]))
        sig = check_sound(base)
        pairs += 1

        if pairs % 7 == 0:
            full = KnowledgeMask.full(observer, run.num_agents, run.length)
            full_sig = check_sound(full)
            assert None not in full_sig.values
            assert full_sig.values == central.values
            full_checked += 1
            pairs += 1

        if pairs % 3 == 0:
            unknown = [
                (j, t)
                for j in range(1, run.num_agents + 1)
                for t in range(run.length + 1)
                if not base.knows(j, t)
            ]
            prev_mask, prev_sig = base, sig
            for _ in range(2):
                if not unknown:
                    break
                step = rng.sample(unknown, k=min(len(unknown), rng.randint(1, 5)))
                unknown = [p for p in unknown if p not in step]
                next_mask = refine(prev_mask, step)
                next_sig = check_sound(next_mask)
                pairs += 1
                for t in range(prev_sig.t1 + 1):
                    if prev_sig.values[t] is not None:
                        assert next_sig.values[t] == prev_sig.values[t]
                prev_mask, prev_sig = next_mask, next_sig
                chains += 1
    report(
        "criterion 2 (distributed soundness)",
        f"{pairs} (instance, mask) pairs, {full_checked} full-knowledge, "
        f"{chains} refinement steps",
    )


def _hand_case_runs():
    """The two motivating determinability situations: a subject with all
    neighbor states visible, and a subject with a single neighbor."""
    # 3 in-neighbors, all states known: determined, here forced to 1
    edges = [(j, 1, 1, 1.0) for j in (2, 3, 4)]
    snap = MultigraphSnapshot("c", True, edges)
    from stlgo import GraphTrajectory, MasTrajectory

    states = [[(1.0,), (1.0,), (1.0,), (-1.0,)]]
    run_known = MasRun(
        MasTrajectory(states), GraphTrajectory(0, static={"c": snap})
    )
    # a single in-neighbor, nothing known: determined 0 (cannot reach 2)
    edges1 = [(2, 1, 1, 1.0)]
    snap1 = MultigraphSnapshot("c", True, edges1)
    states1 = [[(1.0,), (1.0,)]]
    run_one = MasRun(
        MasTrajectory(states1), GraphTrajectory(0, static={"c": snap1})
    )
    return run_known, run_one


def test_criterion_3_determinability_completeness():
    f = GraphOp("in", "exists", ("c",), CountSet.single(2, INF), FULL_WEIGHTS, Atom(StateVar(0)))
    run_known, run_one = _hand_case_runs()
    mask_known = KnowledgeMask.full(1, run_known.num_agents, run_known.length)
    rep = is_determinable(run_known, mask_known, f, 1, 0)
    assert rep.determinable
    assert monitor_dist(run_known, mask_known, f, 1, 0).values == (1,)

    mask_one = KnowledgeMask.self_only(1)
    rep = is_determinable(run_one, mask_one, f, 1, 0)
    assert rep.determinable
    assert monitor_dist(run_one, mask_one, f, 1, 0).values == (0,)

    rng = random.Random(88_017)
    confirmed = 0
    attempts = 0
    while confirmed < 500 and attempts < 20_000:
        attempts += 1
        run = random_run(rng, max_agents=5, max_len=5)
        tags = tuple(sorted(run.graphs.types))
        g = random_local_formula(rng, tags, run.trajectory.state_dim)
        subject = rng.randint(1, run.num_agents)
        observer = rng.randint(1, run.num_agents)
        p = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        mask = (
            KnowledgeMask.full(observer, run.num_agents, run.length)
            if p == 1.0
            else random_mask(rng, run, observer, p)
        )
        T = rng.randint(0, run.length)
        rep = is_determinable(run, mask, g, subject, T)
        if not rep.determinable:
            continue
        sig = monitor_dist(run, mask, g, subject, T)
        assert not any(v is None for v in sig.values[: T + 1]), "determinable yet ?"
        confirmed += 1
    assert confirmed >= 500, f"only {confirmed} determinable instances in {attempts} attempts"
    report(
        "criterion 3 (determinability completeness)",
        f"2 hand cases with forced verdicts, {confirmed} determinable random "
        f"instances with ?-free [0, T] ({attempts} sampled)",
    )


def test_criterion_4_completion_exactness():
    checked = 0
    intervals = [
        (e1, e2)
        for e1 in range(8)
        for e2 in list(range(e1, 8)) + [INF]
    ]

    def vectors(k):
        if k == 0:
            yield ()
            return
        for rest in vectors(k - 1):
            for v in (0, 1, None):
                yield rest + (v,)

    for k in range(7):
        for vec in vectors(k):
            n_sat = sum(1 for v in vec if v == 1)
            n_nviol = sum(1 for v in vec if v != 0)
            for e1, e2 in intervals:
                counts = CountSet.single(e1, e2)
                assert graph_op_verdict(counts, n_sat, n_nviol) == completion_verdict(
                    list(vec), counts
                ), (vec, e1, e2)
                checked += 1
    report(
        "criterion 4 (count verdict = completion enumeration)",
        f"{checked} (vector, interval) combinations, exhaustive for k <= 6, bounds <= 7 and inf",
    )


# criterion 5 helpers: explicit rewrites, separate from the monitor's own
# lowering pass


def _desugar_fg(f):
    if isinstance(f, Eventually):
        return Until(Truth(), _desugar_fg(f.child), f.interval)
    if isinstance(f, Always):
        return Not(Until(Truth(), Not(_desugar_fg(f.child)), f.interval))
    if isinstance(f, Not):
        return Not(_desugar_fg(f.child))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_desugar_fg(f.left), _desugar_fg(f.right))
    if isinstance(f, Until):
        return Until(_desugar_fg(f.left), _desugar_fg(f.right), f.interval)
    if isinstance(f, GraphOp):
        return GraphOp(
            f.direction, f.quantifier, f.graphs, f.counts, f.weights, _desugar_fg(f.child)
        )
    return f


def _expand_fa_ex(f):
    if isinstance(f, ForAllAgents):
        parts = [AgentBind(a, f.child) for a in f.agents]
        out = parts[0]
        for p in parts[1:]:
            out = And(out, p)
        return out
    if isinstance(f, ExistsAgent):
        parts = [AgentBind(a, f.child) for a in f.agents]
        out = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out
    if isinstance(f, Not):
        return Not(_expand_fa_ex(f.child))
    if isinstance(f, (And, Or)):
        return type(f)(_expand_fa_ex(f.left), _expand_fa_ex(f.right))
    if isinstance(f, Until):
        return Until(_expand_fa_ex(f.left), _expand_fa_ex(f.right), f.interval)
    if isinstance(f, (Always, Eventually)):
        return type(f)(_expand_fa_ex(f.child), f.interval)
    if isinstance(f, Implies):
        return type(f)(_expand_fa_ex(f.left), _expand_fa_ex(f.right))
    return f


def test_criterion_5_normalization_laws():
    """The negation and quantifier laws are checked through the oracle, which
    evaluates sugar directly: the lowered formula (negations pushed into
    graph operators, multi-graph operators expanded, FA/EX as chains of
    binders) must hold exactly where the written one does. The monitor
    lowers every variant itself, so comparing monitor signals would check
    little for them."""
    locals_checked = 0
    globals_checked = 0
    for kind, run, f, T in criterion1_instances():
        if kind == "local":
            agent = 1 + (locals_checked % run.num_agents)
            reference = monitor_local(run, f, agent, T).values
            core = lower(f)
            for t in range(len(reference)):
                assert oracle_eval(run, core, agent, t) == oracle_eval(run, f, agent, t)
            assert monitor_local(run, _desugar_fg(f), agent, T).values == reference
            locals_checked += 1
        else:
            reference = monitor_global(run, f, T).values
            core = lower(f)
            for t in range(len(reference)):
                assert oracle_eval_global(run, core, t) == oracle_eval_global(run, f, t)
            assert monitor_global(run, _expand_fa_ex(f), T).values == reference
            globals_checked += 1
    report(
        "criterion 5 (normalization laws)",
        f"{locals_checked} local instances x {{lowering by the oracle, F/G}}, "
        f"{globals_checked} global instances x {{lowering by the oracle, FA/EX expansion}}",
    )


def test_criterion_6_translator_fidelity():
    rng = random.Random(55_321)
    counts = {"sastl": 0, "somewhere": 0, "everywhere": 0, "reach": 0, "escape": 0}
    while min(counts.values()) < 200:
        run, ds, labels = random_labeled_run(rng)
        anchor = rng.randint(1, run.num_agents)
        t = rng.randint(0, run.length)
        inner = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 4)))))
        wiv = W(0.0, float(rng.randint(0, 12)))

        psi = rng.choice(["H", "C"])
        sub = labeled_subgraph(ds, labels, psi, anchor)
        run_psi = run.with_graph(psi_graph_tag(psi, anchor), sub)
        cmp = rng.choice(["<=", "<", ">=", ">", "="])
        c = rng.randint(0, 3)
        f = translate_sastl_count(psi, wiv, cmp, c, inner, anchor)
        assert oracle_eval_global(run_psi, f, t) == int(
            sastl_count_direct(run, ds, labels, psi, wiv, cmp, c, inner, anchor, t)
        )
        counts["sastl"] += 1

        sw = translate_sstl("somewhere", wiv, inner, anchor)
        assert oracle_eval_global(run, sw, t) == int(
            sstl_somewhere_direct(run, ds, wiv, inner, anchor, t)
        )
        counts["somewhere"] += 1
        ew = translate_sstl("everywhere", wiv, inner, anchor)
        assert oracle_eval_global(run, ew, t) == int(
            sstl_everywhere_direct(run, ds, wiv, inner, anchor, t)
        )
        counts["everywhere"] += 1

        pi1 = Atom(BinOp("-", StateVar(0), Const(float(rng.randint(-2, 3)))))
        pi2 = Atom(BinOp("-", Const(float(rng.randint(-2, 3))), StateVar(0)))
        reach_w = W(float(rng.choice([0, 0, 1])), float(rng.randint(3, 14)))
        fr = translate_strel("reach", reach_w, anchor, run, t, phi1=pi1, phi2=pi2)
        assert oracle_eval_global(run, fr, t) == int(
            strel_reach_direct(run, pi1, pi2, reach_w, anchor, t)
        )
        counts["reach"] += 1
        esc_w = W(float(rng.choice([0, 0, 2])), float(rng.randint(2, 12)))
        fe = translate_strel("escape", esc_w, anchor, run, t, phi=pi1)
        assert oracle_eval_global(run, fe, t) == int(
            strel_escape_direct(run, pi1, esc_w, anchor, t)
        )
        counts["escape"] += 1

    # (b) the worked seven-node example, pinned exactly
    fig = MultigraphSnapshot("d", False, FIG_EDGES)
    distances = shortest_distance_map(fig)[3]
    assert distances == {3: 0.0, 1: 6.0, 2: 8.0, 4: 8.0, 5: 6.0, 7: 14.0, 6: 16.0}
    traces = enumerate_traces(fig, 3, W(0, 20), "reach")
    six = {(3, 1), (3, 2), (3, 4), (3, 5), (3, 5, 7), (3, 4, 6)}
    # the six multi-node traces, plus the root-only trace forced by the
    # empty-sum convention (0 lies in [0, 20])
    assert traces == six | {(3,)}
    report(
        "criterion 6 (translator fidelity)",
        f"random equivalences {counts}; worked-example distances and trace set exact",
    )


HORIZON_BATTERY = [
    ("true", Truth(), (0, 0)),
    ("atom", Atom(StateVar(0)), (0, 0)),
    ("G[0,24] atom", Always(Atom(StateVar(0)), TimeInterval(0, 24)), (0, 24)),
    ("F[2,5] atom", Eventually(Atom(StateVar(0)), TimeInterval(2, 5)), (2, 5)),
    (
        "atom U[2,5] In atom",
        Until(
            Atom(StateVar(0)),
            GraphOp("in", "exists", ("g",), CountSet.single(0, INF), FULL_WEIGHTS, Atom(StateVar(0))),
            TimeInterval(2, 5),
        ),
        (2, 5),
    ),
    ("G[0,inf] atom", Always(Atom(StateVar(0)), TimeInterval(0, INF)), (0, INF)),
    (
        "G[0,3] a & F[1,10] b",
        And(
            Always(Atom(StateVar(0)), TimeInterval(0, 3)),
            Eventually(Atom(StateVar(0)), TimeInterval(1, 10)),
        ),
        (0, 10),
    ),
    (
        "Out (F[0,4] a)",
        GraphOp(
            "out", "forall", ("g",), CountSet.single(1, 2), FULL_WEIGHTS,
            Eventually(Atom(StateVar(0)), TimeInterval(0, 4)),
        ),
        (0, 4),
    ),
    (
        "a U[1,2] (b U[3,4] c)",
        Until(
            Atom(StateVar(0)),
            Until(Atom(StateVar(0)), Atom(StateVar(0)), TimeInterval(3, 4)),
            TimeInterval(1, 2),
        ),
        (1, 6),
    ),
    (
        "F[0,2] !G[1,3] In a",
        Eventually(
            Not(
                Always(
                    GraphOp("in", "exists", ("g",), CountSet.single(0, 0), FULL_WEIGHTS, Atom(StateVar(0))),
                    TimeInterval(1, 3),
                )
            ),
            TimeInterval(0, 2),
        ),
        (0, 5),
    ),
]


def test_criterion_7_horizon_table():
    for name, f, expected in HORIZON_BATTERY:
        assert horizon(f) == expected, name
    # the until rule itself, spelled out
    a, b = 2, 5
    s1t1 = horizon(Always(Atom(StateVar(0)), TimeInterval(0, 3)))
    s2t2 = horizon(Eventually(Atom(StateVar(0)), TimeInterval(1, 4)))
    u = horizon(
        Until(
            Always(Atom(StateVar(0)), TimeInterval(0, 3)),
            Eventually(Atom(StateVar(0)), TimeInterval(1, 4)),
            TimeInterval(a, b),
        )
    )
    assert u == (a + min(s1t1[0], s2t2[0]), b + max(s1t1[1], s2t2[1]))
    report("criterion 7 (horizon recursion)", f"{len(HORIZON_BATTERY)} formulas + until rule")


def _bike_formulas(station_set):
    n, n_in, n_out = StateVar(0), StateVar(1), StateVar(2)

    def as_expr(v):
        return v if not isinstance(v, (int, float)) else Const(float(v))

    def ge(a, b):
        return Atom(BinOp("-", as_expr(a), as_expr(b)))

    def lt(a, b):
        return Not(ge(a, b))

    phi1 = Always(
        Implies(
            lt(n, 5),
            GraphOp("out", "exists", ("mt",), CountSet.single(5, INF), W(0, 8), ge(n, 8)),
        ),
        TimeInterval(0, 24),
    )
    phi2 = Always(
        Implies(
            Not(ge(15, n_in)),  # n_in > 15
            GraphOp(
                "in", "exists", ("d",), CountSet.single(0, 4), W(0, 2),
                Not(ge(5, BinOp("-", n_in, n_out))),  # n_in - n_out > 5
            ),
        ),
        TimeInterval(0, 24),
    )
    big1 = ForAllAgents(
        station_set,
        Always(
            GraphOp("out", "exists", ("d",), CountSet.single(3, INF), W(0, 1), ge(n, 8)),
            TimeInterval(0, 24),
        ),
    )
    big2 = ForAllAgents(
        station_set,
        Always(
            Implies(
                lt(n, 2),
                GraphOp("out", "exists", ("mt",), CountSet.single(3, INF), W(0, 12), ge(n, 4)),
            ),
            TimeInterval(0, 24),
        ),
    )
    return [("phi1", phi1, "local"), ("phi2", phi2, "local"),
            ("Phi1", big1, "global"), ("Phi2", big2, "global")]


def test_criterion_8_case_study_shapes():
    # (a) bike runs: the four properties match the oracle exactly
    bike_points = 0
    for seed in (1, 2, 3):
        run = gen_bike(BikeScenarioConfig(stations=10, seed=seed))
        rng = random.Random(seed)
        station_set = tuple(sorted(rng.sample(range(1, 11), 5)))
        for name, f, kind in _bike_formulas(station_set):
            if kind == "local":
                agent = rng.randint(1, 10)
                sig = monitor_local(run, f, agent, 0)
                for t in range(sig.t1 + 1):
                    assert sig.values[t] == oracle_eval(run, f, agent, t), (name, t)
                    bike_points += 1
            else:
                sig = monitor_global(run, f, 0)
                for t in range(sig.t1 + 1):
                    assert sig.values[t] == oracle_eval_global(run, f, t), (name, t)
                    bike_points += 1

    # (b) drone runs at three scales: oracle match and 81 verdicts per formula
    drone_rows = []
    for sigma in (4, 10, 50):
        run = gen_drone(DroneScenarioConfig(sigma=sigma, seed=400 + sigma, horizon=82))
        run = with_anchor_graphs(run, 1)
        for name, f, kind in drone_formulas(run, sigma, 1):
            if kind == "local":
                sig = monitor_local(run, f, 1, 80)
                oracle = [oracle_eval(run, f, 1, t) for t in range(81)]
            else:
                sig = monitor_global(run, f, 80)
                oracle = [oracle_eval_global(run, f, t) for t in range(81)]
            verdicts = sig.values[:81]
            assert list(verdicts) == oracle, (sigma, name)
            sat = sum(verdicts)
            assert sat + (81 - sat) == 81
            drone_rows.append((sigma, name, sat, 81 - sat))
    report(
        "criterion 8 (case-study shape)",
        f"bike: {bike_points} oracle-matched points over 3 seeded runs; "
        f"drone: {len(drone_rows)} (sigma, formula) rows, sat+vio=81 each",
    )


def test_criterion_9_desk_scale_performance():
    rows = load_script("drone_case_study").drone_rows(100, 80, seed=7)
    by_name = {r["formula"]: r for r in rows}
    fast_total = sum(by_name[n]["total_s"] for n in ("phi3", "phi4", "Phi4"))
    slow_total = by_name["Phi3"]["total_s"]
    for r in rows:
        assert r["sat"] + r["vio"] == 81
    assert fast_total < 10.0, f"phi3/phi4/Phi4 took {fast_total:.1f} s (budget 10 s)"
    assert slow_total < 60.0, f"Phi3 took {slow_total:.1f} s (budget 60 s)"
    means = ", ".join(f"{r['formula']}={r['mean_ms']:.2f} ms" for r in rows)
    report(
        "criterion 9 (desk-scale performance)",
        f"sigma=100, 81 steps; per-step means: {means}; "
        f"fast trio {fast_total:.1f} s < 10 s, all-agents formula {slow_total:.1f} s < 60 s",
    )
