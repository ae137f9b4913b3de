import gc
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    Always,
    Atom,
    Not,
    CountSet,
    DroneScenarioConfig,
    Eventually,
    GraphOp,
    GraphTrajectory,
    InsufficientTraceError,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    MultigraphSnapshot,
    StateVar,
    TimeInterval,
    Truth,
    gen_drone,
    is_determinable,
    monitor_dist,
    monitor_local,
    parse_local,
    refine,
)
from stlgo.central import Cells, graph_op_verdict, k_not, k_or, oracle_eval
from stlgo.distributed import LeafFailure, prepare_for_distributed
from stlgo.formula import FULL_WEIGHTS, build_operator_tree, horizon, lower
from stlgo.parser import parse_global
from stlgo.serialization import load_mask, load_run, save_mask, save_run

from conftest import (
    make_fig_run,
    nested_graph_formula,
    random_local_formula,
    random_mask,
    random_run,
)
from direct_semantics import completion_verdict
from reference_determinability import reference_is_determinable

INF = math.inf
POSITIVE = Atom(StateVar(0))


def star_run(child_values, length=0):
    k = len(child_values)
    edges = [(j, 1, 1, 1.0) for j in range(2, k + 2)]
    snap = MultigraphSnapshot("g", True, edges)
    states = [[(0.0,)] + [(float(v),) for v in child_values] for _ in range(length + 1)]
    traj = MasTrajectory(states)
    return MasRun(traj, GraphTrajectory(length, static={"g": snap}))


def count_op(lo, hi, child=POSITIVE):
    return GraphOp("in", "exists", ("g",), CountSet.single(lo, hi), FULL_WEIGHTS, child)


def hide(run, observer, hidden):
    """Mask knowing everything except the given (agent, t) pairs."""
    hidden = set(hidden)
    return KnowledgeMask(observer, [
        (j, t) for j in range(1, run.num_agents + 1) for t in range(run.length + 1)
        if (j, t) not in hidden
    ])


# ---------------------------------------------------------------------------
# Kleene tables


def test_kleene_tables():
    assert k_not(None) is None and k_not(1) == 0 and k_not(0) == 1
    assert k_or(0, None) is None and k_or(1, None) == 1
    assert k_or(0, 0) == 0


def _bound_cells(values, text):
    """The system-level cell at t = 0 of a formula over @2., @3., ...:
    agent j + 2 carries values[j], its atom [x[0] >= 1] is that value, and
    observer 1 sees it unless the value is None (?)."""
    run = star_run([1 if v is None else v for v in values])
    mask = KnowledgeMask(1, [(j, 0, 0) for j, v in enumerate(values, 2) if v is not None])
    core = lower(parse_global(text))
    return Cells(run, core, mask)[core](None, 0)


@pytest.mark.parametrize("a", [0, 1, None])
@pytest.mark.parametrize("b", [0, 1, None])
def test_and_cell_is_the_kleene_conjunction(a, b):
    expected = 0 if 0 in (a, b) else None if None in (a, b) else 1
    assert _bound_cells([a, b], "@2.([x[0] >= 1]) & @3.([x[0] >= 1])") == expected


def test_and_chain_stops_at_its_first_zero_part():
    # agent 4's atom divides by zero, so reading the third part would raise
    text = "@2.([x[0] >= 1]) & @3.([x[0] >= 1]) & @4.([1 / (x[0] - 1) >= 0])"
    assert _bound_cells([None, 0, 1], text) == 0
    with pytest.raises(ValueError, match="division by zero"):
        _bound_cells([None, 1, 1], text)


# ---------------------------------------------------------------------------
# graph operator verdict rule


@pytest.mark.parametrize(
    "counts,verdicts,expected",
    [
        (CountSet.single(1, 2), (None, 0, 0), None),
        (CountSet.single(0, 3), (1, None, None), 1),
        (CountSet.single(0, 1), (0, None, None), None),
        (CountSet.single(2, INF), (1, 1, None), 1),
        (CountSet.single(2, 2), (1, 1, 1), 0),
        (CountSet.empty(), (None, None), 0),
    ],
)
def test_graph_op_verdict_cases(counts, verdicts, expected):
    n_sat = sum(1 for v in verdicts if v == 1)
    n_nviol = sum(1 for v in verdicts if v != 0)
    assert graph_op_verdict(counts, n_sat, n_nviol) == expected
    assert completion_verdict(list(verdicts), counts) == expected


def test_masked_atom_is_unknown():
    run = star_run([1, 1])
    mask = hide(run, 1, [(2, 0)])
    sig = monitor_dist(run, mask, count_op(2, 2), 1, 0)
    assert sig.values == (None,)


def test_multiplicity_weighted_counts():
    # two parallel edges from one masked neighbor: counts range over {0, 2}
    snap = MultigraphSnapshot("g", True, [(2, 1, 1, 1.0), (2, 1, 2, 1.0)])
    traj = MasTrajectory([[(0.0,), (1.0,)]])
    run = MasRun(traj, GraphTrajectory(0, static={"g": snap}))
    mask = hide(run, 1, [(2, 0)])
    # E = [2, inf]: satisfiable only if the hidden neighbor satisfies
    assert monitor_dist(run, mask, count_op(2, INF), 1, 0).values == (None,)
    # E = [3, inf]: even both edges cannot reach 3, so a determined 0
    assert monitor_dist(run, mask, count_op(3, INF), 1, 0).values == (0,)
    # E = [1, 1]: achievable counts are {0, 2}; the scalar count bounds of
    # the verdict rule cannot express the gap, so ? (sound, not exact)
    assert monitor_dist(run, mask, count_op(1, 1), 1, 0).values == (None,)
    # with the neighbor visible the verdict is exact
    full = KnowledgeMask.full(1, run.num_agents, run.length)
    assert monitor_dist(run, full, count_op(1, 1), 1, 0).values == (0,)


def test_full_mask_matches_central():
    rng = random.Random(11)
    for _ in range(60):
        run = random_run(rng, max_agents=4, max_len=4)
        tags = tuple(sorted(run.graphs.types))
        f = random_local_formula(rng, tags, run.trajectory.state_dim)
        subject = rng.randint(1, run.num_agents)
        observer = rng.randint(1, run.num_agents)
        T = rng.randint(0, run.length)
        mask = KnowledgeMask.full(observer, run.num_agents, run.length)
        dist_sig = monitor_dist(run, mask, f, subject, T)
        central_sig = monitor_local(run, f, subject, T)
        assert None not in dist_sig.values
        assert dist_sig.values == central_sig.values


class _LoggedSlice(tuple):
    """A time slice of a trajectory that logs (t, i) when agent i + 1's
    state vector is read from it."""

    def __new__(cls, t, vectors, log):
        self = super().__new__(cls, vectors)
        self.t, self.log = t, log
        return self

    def __getitem__(self, i):
        self.log.append((self.t, i))
        return tuple.__getitem__(self, i)


def _log_state_reads(run) -> list:
    """Replace the run's time slices with logging copies; return the log."""
    log: list = []
    traj = run.trajectory
    object.__setattr__(
        traj, "states", tuple(_LoggedSlice(t, s, log) for t, s in enumerate(traj.states)))
    return log


def test_central_monitor_is_the_full_knowledge_run_of_the_same_cells():
    # the centralized monitor is the mask-free case of the distributed one:
    # under a full mask both compute the same cells, and so read the same
    # states in the same order
    rng = random.Random(20)
    reads = 0
    for case in range(300):
        run = random_run(rng, max_agents=4, max_len=6)
        tags = tuple(sorted(run.graphs.types))
        f = random_local_formula(rng, tags, run.trajectory.state_dim)
        subject = rng.randint(1, run.num_agents)
        mask = KnowledgeMask.full(rng.randint(1, run.num_agents), run.num_agents, run.length)
        T = rng.randint(0, run.length)
        log = _log_state_reads(run)
        central = monitor_local(run, f, subject, T)
        central_reads = log[:]
        log.clear()
        dist = monitor_dist(run, mask, f, subject, T)
        assert dist.values == central.values, f"case {case}"
        assert log == central_reads, f"case {case}"
        reads += len(log)
    assert reads > 500


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_soundness_of_determined_verdicts(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4)
    tags = tuple(sorted(run.graphs.types))
    f = random_local_formula(rng, tags, run.trajectory.state_dim)
    subject = rng.randint(1, run.num_agents)
    observer = rng.randint(1, run.num_agents)
    mask = random_mask(rng, run, observer, rng.choice([0.0, 0.3, 0.7]))
    T = rng.randint(0, run.length)
    sig = monitor_dist(run, mask, f, subject, T)
    for t in range(sig.t1 + 1):
        v = sig.values[t]
        if v is not None:
            assert v == oracle_eval(run, f, subject, t), f"seed={seed} t={t}"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_refinement_preserves_determined_verdicts(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4)
    tags = tuple(sorted(run.graphs.types))
    f = random_local_formula(rng, tags, run.trajectory.state_dim)
    subject = rng.randint(1, run.num_agents)
    observer = rng.randint(1, run.num_agents)
    mask = random_mask(rng, run, observer, 0.2)
    T = rng.randint(0, run.length)
    before = monitor_dist(run, mask, f, subject, T)
    unknown = [
        (j, t)
        for j in range(1, run.num_agents + 1)
        for t in range(run.length + 1)
        if not mask.knows(j, t)
    ]
    additions = rng.sample(unknown, k=min(len(unknown), rng.randint(0, 6)))
    refined = refine(mask, additions)
    after = monitor_dist(run, refined, f, subject, T)
    for t in range(before.t1 + 1):
        if before.values[t] is not None:
            assert after.values[t] == before.values[t], f"seed={seed} t={t}"


def test_refine_contract():
    mask = KnowledgeMask(1, frozenset({(2, 0)}))
    assert refine(mask, []) == mask
    grown = refine(mask, [(3, 0, 2)])
    assert grown.knows(3, 1)
    target = KnowledgeMask(1, frozenset())
    with pytest.raises(ValueError, match="hide"):
        refine(mask, target)
    with pytest.raises(ValueError, match="observer"):
        refine(mask, KnowledgeMask(2, mask.ranges))
    wide = KnowledgeMask(1, [(2, 0, 10)])
    covering = KnowledgeMask(1, [(2, 0, 4), (2, 5), (2, 6, 12), (3, 0, 20)])
    assert refine(wide, covering) == covering
    with pytest.raises(ValueError, match="hide"):
        refine(wide, KnowledgeMask(1, [(2, 0, 4), (2, 6, 12), (3, 0, 20)]))
    # self-knowledge is total: an entry naming the observer adds nothing
    listed_self = KnowledgeMask(1, [(1, 0, 5), (2, 0)])
    assert listed_self == mask and listed_self.ranges == ((2, 0, 0),)
    assert KnowledgeMask(1, [(1, 0, 5)]) == KnowledgeMask(1)
    assert refine(KnowledgeMask(1, [(1, 0, 5)]), KnowledgeMask(1)) == KnowledgeMask(1)
    assert refine(mask, [(1, 3, 9)]) == mask


@pytest.mark.parametrize("entries", [
    [(2.7, 3)], [(True, 4)], [("5", 6)], [(2, 1.0)], [(2, 0, True)], [(0, 2)],
    [(-3, -5, -4)], [(2, -1)], [(2, -1, 3)], [(2, 5, 4)], [(2,)], [(2, 0, 1, 2)],
    [(1, 5, 4)], [(1, -1)], [(1, 0.5)],  # entries naming the observer are checked too
])
def test_mask_entries_must_be_agents_and_times(entries):
    with pytest.raises(ValueError):
        KnowledgeMask(1, entries)
    with pytest.raises(ValueError):
        refine(KnowledgeMask(1), entries)


@pytest.mark.parametrize("observer", [0, -1, True, 1.0, "1"])
def test_mask_observer_must_be_an_agent(observer):
    with pytest.raises(ValueError):
        KnowledgeMask(observer)


def _scrambled(rng, known):
    """Pairs and ranges whose union is exactly ``known``: each maximal run of
    times is cut into pieces written as ranges or pairs, some stretched to
    overlap the next piece, some repeated, all shuffled."""
    entries = []
    for j in sorted({j for j, _ in known}):
        times = sorted(t for i, t in known if i == j)
        runs = [[times[0], times[0]]]
        for t in times[1:]:
            if t == runs[-1][1] + 1:
                runs[-1][1] = t
            else:
                runs.append([t, t])
        for lo, hi in runs:
            while lo <= hi:
                end = rng.randint(lo, hi)
                stretched = min(hi, end + rng.randint(0, 2))
                if rng.random() < 0.3:
                    entries += [(j, t) for t in range(lo, stretched + 1)]
                else:
                    entries.append((j, lo, stretched))
                if rng.random() < 0.2:
                    entries.append(entries[-1])
                lo = end + 1
    rng.shuffle(entries)
    return entries


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_mask_forms_agree(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=5, max_len=12)
    N, L = run.num_agents, run.length
    observer = rng.randint(1, N)
    p_known = rng.choice((0.0, 0.3, 0.7, 1.0))
    known = {(j, t) for j in range(1, N + 1) for t in range(L + 1) if rng.random() < p_known}
    masks = [KnowledgeMask(observer, frozenset(known)),
             KnowledgeMask(observer, _scrambled(rng, known)),
             KnowledgeMask(observer, _scrambled(rng, known))]
    for mask in masks:
        assert mask == masks[0] and hash(mask) == hash(masks[0])
        for j in range(N + 2):
            for t in range(-1, L + 2):
                assert mask.knows(j, t) == (j == observer or (j, t) in known), (j, t)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.json"
        save_mask(masks[1], path)
        first = path.read_bytes()
        loaded = load_mask(path, L)
        assert loaded == masks[0]
        save_mask(loaded, path)
        assert path.read_bytes() == first


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_masks_hold_ranges_not_instants():
    assert _peak_bytes(lambda: refine(KnowledgeMask.self_only(1), [(2, 0, 100000)])) < 2**20
    assert _peak_bytes(lambda: KnowledgeMask.full(1, 12, 10**6)) < 2**20
    assert KnowledgeMask.full(2, 3, 4).ranges == ((1, 0, 4), (3, 0, 4))


# ---------------------------------------------------------------------------
# determinability


def test_one_neighbor_below_threshold_is_determinable():
    # needs at least 2 satisfying in-neighbors but has only one: verdict is
    # a determined 0 with no state knowledge at all
    run = star_run([1])
    mask = KnowledgeMask.self_only(1)
    f = count_op(2, INF)
    report = is_determinable(run, mask, f, 1, 0)
    assert report.determinable
    assert monitor_dist(run, mask, f, 1, 0).values == (0,)


def test_all_neighbors_known_is_determinable():
    run = star_run([1, -1, 1])
    mask = KnowledgeMask.full(1, run.num_agents, run.length)
    f = count_op(2, INF)
    report = is_determinable(run, mask, f, 1, 0)
    assert report.determinable
    assert monitor_dist(run, mask, f, 1, 0).values == (1,)


def test_pivotal_masked_neighbor_is_not_determinable():
    run = star_run([1, 1, 1])
    mask = hide(run, 1, [(3, 0)])
    f = count_op(2, INF)
    report = is_determinable(run, mask, f, 1, 0)
    assert not report.determinable
    assert report.failures[0].leaf_index == 1
    assert report.failures[0].time == 0
    assert (3, 0) in report.failures[0].unknown_states
    # cross-check: the masked neighbor is pivotal on a run where it decides
    run2 = star_run([1, -1, 1])
    assert monitor_dist(run2, hide(run2, 1, [(4, 0)]), f, 1, 0).values == (None,)


def test_constant_leaves_need_no_knowledge():
    run = star_run([1, 1])
    mask = KnowledgeMask.self_only(1)
    f = count_op(0, 1, child=Truth())
    report = is_determinable(run, mask, f, 1, 0)
    assert report.determinable
    assert monitor_dist(run, mask, f, 1, 0).values == (0,)


def test_condition_b_folds_counts_over_a_three_level_chain():
    # directed g: 2 -> 1 twice (parallel edges), 3 -> 1 and 2 -> 4. From
    # subject 1 the chain In, Out, In reaches {2, 3}, then {1, 4}, then
    # {2, 3}. The innermost In E[1,inf] counts 3 edges at 1 and 1 at 4.
    snap = MultigraphSnapshot(
        "g", True, [(2, 1, 1, 1.0), (2, 1, 2, 1.0), (3, 1, 1, 1.0), (2, 4, 1, 1.0)]
    )
    run = MasRun(MasTrajectory([[(1.0,)] * 4] * 2), GraphTrajectory(1, static={"g": snap}))
    mask = KnowledgeMask.self_only(1)

    def chain(mid):
        return parse_local(
            f"In{{g}} E[3,inf] (Out{{g}} E[{mid},inf] (In{{g}} E[1,inf] [x[0] >= 0]))"
        )

    # Out E[2,inf]: agent 2 counts 2 + 1 edges, agent 3 only 1, so the outer
    # count is the 2 parallel edges from agent 2, short of 3 at every t
    f = chain(2)
    report = is_determinable(run, mask, f, 1, 1)
    assert report.determinable and report.failures == ()
    assert report == reference_is_determinable(run, mask, f, 1, 1)
    assert monitor_dist(run, mask, f, 1, 1).values == (0, 0)

    # Out E[1,inf]: agent 3 counts as well, and with the parallel edges the
    # outer count reaches 3, so the leaf needs the hidden states of 2 and 3
    f = chain(1)
    report = is_determinable(run, mask, f, 1, 1)
    assert report.failures == (
        LeafFailure(1, 0, ((2, 0), (3, 0))),
        LeafFailure(1, 1, ((2, 1), (3, 1))),
    )
    assert report == reference_is_determinable(run, mask, f, 1, 1)
    assert monitor_dist(run, mask, f, 1, 1).values == (None, None)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_determinable_true_implies_no_unknown(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=4)
    tags = tuple(sorted(run.graphs.types))
    f = random_local_formula(rng, tags, run.trajectory.state_dim)
    subject = rng.randint(1, run.num_agents)
    observer = rng.randint(1, run.num_agents)
    mask = random_mask(rng, run, observer, rng.choice([0.0, 0.5, 0.9, 1.0]))
    T = rng.randint(0, run.length)
    report = is_determinable(run, mask, f, subject, T)
    if report.determinable:
        sig = monitor_dist(run, mask, f, subject, T)
        assert not any(v is None for v in sig.values[: T + 1]), f"seed={seed}"


# ---------------------------------------------------------------------------
# strictness and domains


def test_signal_domain_matches_central_convention():
    run = star_run([1, 1], length=6)
    f = Always(count_op(0, INF), TimeInterval(0, 2))
    mask = KnowledgeMask.full(1, run.num_agents, run.length)
    sig = monitor_dist(run, mask, f, 1, 2)
    assert (sig.t0, sig.t1) == (0, 4)


def test_observer_can_monitor_other_subject():
    run = star_run([1, -1])
    mask = KnowledgeMask.self_only(1)  # observer 1 sees only itself
    sig = monitor_dist(run, mask, POSITIVE, 2, 0)
    assert sig.values == (None,)  # subject 2's state is hidden from observer 1
    sig_self = monitor_dist(run, mask, POSITIVE, 1, 0)
    assert sig_self.values == (1,)


def test_strict_mode_distributed():
    from stlgo import InsufficientTraceError, TimeInterval

    run = star_run([1, 1], length=2)
    mask = KnowledgeMask.full(1, run.num_agents, run.length)
    f = Always(count_op(0, INF), TimeInterval(0, 5))
    with pytest.raises(InsufficientTraceError):
        monitor_dist(run, mask, f, 1, 0, strict=True)
    sig = monitor_dist(run, mask, Always(count_op(0, INF), TimeInterval(0, 1)), 1, 1, strict=True)
    assert (sig.t0, sig.t1) == (0, 1)


def test_strict_window_skipped_by_central_short_circuit_still_raises():
    # The conjunction is decided by the U[2,inf] disjunct, so central
    # evaluation never reads the F[2,3] window, which ends past L=3 from
    # t=1. Strict mode refuses the formula up front in both monitors.
    run = star_run([1, 1], length=3)
    f = parse_local("true & ((true | true) U[2,inf] true | F[2,3] true)")
    mask = KnowledgeMask.full(1, run.num_agents, run.length)
    with pytest.raises(InsufficientTraceError):
        monitor_local(run, f, 1, 2, strict=True)
    with pytest.raises(InsufficientTraceError):
        monitor_dist(run, mask, f, 1, 2, strict=True)


def test_strict_bounded_window_under_unbounded_one_raises():
    run = star_run([1, 1], length=4)
    mask = KnowledgeMask.full(1, run.num_agents, run.length)
    for monitor in (
        lambda f: monitor_local(run, f, 1, 0, strict=True),
        lambda f: monitor_dist(run, mask, f, 1, 0, strict=True),
    ):
        with pytest.raises(InsufficientTraceError):
            monitor(parse_local("G[0,inf] F[0,1] [x[0] >= 0]"))
        assert monitor(parse_local("F[0,1] G[0,inf] [x[0] >= 0]")).values == (1,)
        assert monitor(parse_local("G[0,inf] F[0,0] [x[0] >= 0]")).values == (1,)


def _strict_outcome(monitor):
    try:
        return monitor().values
    except InsufficientTraceError:
        return "raises"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_strict_mode_same_outcome_central_and_full_mask(seed):
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=5)
    tags = tuple(sorted(run.graphs.types))
    f = random_local_formula(rng, tags, run.trajectory.state_dim)
    subject = rng.randint(1, run.num_agents)
    T = rng.randint(0, run.length)
    mask = KnowledgeMask.full(subject, run.num_agents, run.length)
    central = _strict_outcome(lambda: monitor_local(run, f, subject, T, strict=True))
    dist = _strict_outcome(lambda: monitor_dist(run, mask, f, subject, T, strict=True))
    assert central == dist, f"seed={seed}"


def test_determinability_reads_the_monitors_core_form():
    assert prepare_for_distributed is lower


def test_negated_full_count_set_is_determined_false():
    # !(In E[0,inf] phi) normalizes to an empty count set: always violated,
    # whatever the mask hides
    run = star_run([1, 1, 1])
    mask = KnowledgeMask.self_only(1)
    f = Not(GraphOp("in", "exists", ("g",), CountSet.full(), FULL_WEIGHTS, POSITIVE))
    sig = monitor_dist(run, mask, f, 1, 0)
    assert sig.values == (0,)
    report = is_determinable(run, mask, f, 1, 0)
    assert report.determinable


def test_determinability_on_time_varying_nested_operators():
    # temporal operators between nested graph operators shift evaluation to
    # instants with different topology; the analyzer's time-union
    # over-approximation must stay sufficient there
    from stlgo import Edge, Eventually, GraphTrajectory, MasTrajectory, MasRun, TimeInterval, Until

    rng = random.Random(424242)
    determined = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        length = rng.randint(2, 6)
        states = [
            [(float(rng.randint(-2, 4)),) for _ in range(n)] for _ in range(length + 1)
        ]

        def snap(tag):
            edges = [
                Edge(i, j, 1, float(rng.randint(0, 5)))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rng.random() < 0.35
            ]
            return MultigraphSnapshot(tag, True, edges)

        run = MasRun(
            MasTrajectory(states),
            GraphTrajectory(
                length,
                dynamic={
                    "a": tuple(snap("a") for _ in range(length + 1)),
                    "b": tuple(snap("b") for _ in range(length + 1)),
                },
            ),
        )
        pi = POSITIVE
        inner = GraphOp(
            rng.choice(["in", "out"]), "exists", ("b",),
            CountSet.single(rng.randint(0, 2), rng.choice([2, 3, INF])),
            FULL_WEIGHTS, rng.choice([pi, Not(pi)]),
        )
        mid = rng.choice(
            [
                Always(inner, TimeInterval(0, rng.randint(1, 3))),
                Eventually(inner, TimeInterval(rng.randint(0, 1), rng.randint(1, 3))),
                Until(pi, inner, TimeInterval(0, rng.randint(1, 2))),
            ]
        )
        outer = GraphOp(
            rng.choice(["in", "out"]), "exists", ("a",),
            CountSet.single(rng.randint(0, 2), rng.choice([2, 3, INF])),
            FULL_WEIGHTS, mid,
        )
        f = rng.choice([outer, Always(outer, TimeInterval(0, 2)), Not(outer)])
        subject = rng.randint(1, n)
        observer = rng.randint(1, n)
        mask = random_mask(rng, run, observer, rng.choice([0.0, 0.3, 0.7, 1.0]))
        T = rng.randint(0, length)
        if is_determinable(run, mask, f, subject, T).determinable:
            determined += 1
            sig = monitor_dist(run, mask, f, subject, T)
            assert not any(v is None for v in sig.values[: T + 1])
    assert determined >= 100  # the battery must actually exercise the claim


def test_multi_interval_verdict_matches_completion_enumeration():
    # achievable counts form a contiguous range, and canonical count sets
    # keep their intervals disjoint and non-adjacent, so the per-interval
    # three-valued OR is exact on verdict vectors even for gapped unions
    import itertools

    interval_pool = []
    for lo1 in range(4):
        for hi1 in range(lo1, 4):
            for lo2 in range(hi1 + 2, 7):
                for hi2 in list(range(lo2, 7)) + [INF]:
                    interval_pool.append(CountSet(((lo1, hi1), (lo2, hi2))))
    checked = 0
    for counts in interval_pool:
        assert len(counts.intervals) == 2  # stays gapped after canonicalization
        for k in range(5):
            for vec in itertools.product((0, 1, None), repeat=k):
                n_sat = sum(1 for v in vec if v == 1)
                n_nviol = sum(1 for v in vec if v != 0)
                assert graph_op_verdict(counts, n_sat, n_nviol) == completion_verdict(
                    list(vec), counts
                ), (counts, vec)
                checked += 1
    assert checked > 10_000


def test_determined_verdicts_hold_under_every_consistent_completion():
    # stronger than agreement with the one actual run: substitute every
    # combination of values for the hidden states and require a determined
    # verdict to hold in all of the resulting runs (catches any read of a
    # masked state that happens to agree on the actual run)
    import itertools

    from stlgo import GraphTrajectory, MasTrajectory, MasRun
    from stlgo.central import oracle_eval

    rng = random.Random(60_423)
    grid = (-2.0, 0.0, 3.0)
    determined_points = 0
    for _ in range(150):
        n = rng.randint(2, 3)
        length = rng.randint(1, 2)
        states = [
            [(float(rng.choice(grid)),) for _ in range(n)] for _ in range(length + 1)
        ]
        edges = [
            (i, j, 1, float(rng.randint(0, 4)))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.6
        ]
        snap = MultigraphSnapshot("g", True, edges)
        run = MasRun(
            MasTrajectory(states), GraphTrajectory(length, static={"g": snap})
        )
        f = random_local_formula(rng, ("g",), 1, max_depth=3)
        subject = rng.randint(1, n)
        observer = rng.randint(1, n)
        cells = [
            (j, t)
            for j in range(1, n + 1)
            for t in range(length + 1)
            if j != observer
        ]
        hidden = rng.sample(cells, k=min(len(cells), rng.randint(1, 4)))
        mask = hide(run, observer, hidden)
        T = rng.randint(0, length)
        sig = monitor_dist(run, mask, f, subject, T)
        if not any(v is not None for v in sig.values):
            continue
        for fill in itertools.product(grid, repeat=len(hidden)):
            alt_states = [list(map(list, slice_)) for slice_ in states]
            for (j, t), v in zip(hidden, fill):
                alt_states[t][j - 1][0] = v
            alt = MasRun(
                MasTrajectory(
                    [[tuple(vec) for vec in slice_] for slice_ in alt_states]
                ),
                run.graphs,
            )
            for t in range(sig.t1 + 1):
                if sig.values[t] is not None:
                    assert sig.values[t] == oracle_eval(alt, f, subject, t)
                    determined_points += 1
    assert determined_points > 1000


# ---------------------------------------------------------------------------
# determinability against the per-time-step reference


def _reference_cases(count):
    """Seeded (run, mask, formula, subject, T) cases: random formulas and
    formulas nesting two or three graph operators, over runs whose tags are
    static or time-varying at random."""
    rng = random.Random(31_337)
    for k in range(count):
        run = random_run(rng, max_agents=5, max_len=6)
        tags = tuple(sorted(run.graphs.types))
        dim = run.trajectory.state_dim
        if k % 3 == 0:
            f = random_local_formula(rng, tags, dim)
        else:
            f = nested_graph_formula(rng, tags, dim)
            if k % 3 == 2:
                f = GraphOp(
                    rng.choice(["in", "out"]), "exists", (rng.choice(tags),),
                    CountSet.single(rng.randint(0, 2), INF), FULL_WEIGHTS,
                    Eventually(f, TimeInterval(0, rng.randint(0, 2))),
                )
        observer = rng.randint(1, run.num_agents)
        mask = random_mask(rng, run, observer, rng.choice([0.0, 0.3, 0.7, 1.0]))
        yield run, mask, f, rng.randint(1, run.num_agents), rng.randint(0, run.length)


def test_determinability_equals_per_time_step_reference():
    outcomes = set()
    time_varying_nested = 0
    for run, mask, f, subject, T in _reference_cases(330):
        report = is_determinable(run, mask, f, subject, T)
        assert report == reference_is_determinable(run, mask, f, subject, T)
        outcomes.add(report.determinable)
        tree = build_operator_tree(prepare_for_distributed(f))
        chains = [leaf.ancestors for leaf in tree.leaves]
        graphs = {p: node.graphs[0] for p, node in enumerate(tree.operators, 1)}
        if any(
            len(c) >= 2 and any(graphs[p] not in run.graphs.static for p in c)
            for c in chains
        ):
            time_varying_nested += 1
    assert outcomes == {True, False}
    assert time_varying_nested >= 100


def test_determinability_equals_reference_on_drone_observer_shapes():
    run = gen_drone(DroneScenarioConfig(sigma=6, seed=7, horizon=10))
    rng = random.Random(7)
    shapes = (
        "G[0,2](Out{s} E[0,2] (F[0,3](In{c} E[1,inf] [x[0] >= 4])))",
        "F[0,3](Out{d} E[2,inf] W[0,3] (G[0,2](In{s} E[0,1] [x[1] >= 3])))",
        "G[0,2](Out{d} E[1,inf] W[0,2] ([x[0] >= 2] & In{s} E[0,3] [x[1] <= 6]))",
    )
    for text in shapes:
        f = parse_local(text)
        T = run.length - int(horizon(f)[1])
        for subject in (1, 4):
            for p_known in (0.0, 0.5, 1.0):
                mask = random_mask(rng, run, subject, p_known)
                assert is_determinable(run, mask, f, subject, T) == reference_is_determinable(
                    run, mask, f, subject, T
                )


def test_determinability_window_edges_equal_reference():
    # six agents on a complete directed graph, so every composed neighbor
    # set holds the observer 1. Agent 2 is visible throughout (up to L or
    # past it), 3 over ranges that straddle window ends and L = 10, 5 at
    # two single times, and the hidden 4 and 6 sit between them.
    n, length = 6, 10
    snap = MultigraphSnapshot("g", True, [(i, j, 1, 1.0) for i in range(1, n + 1)
                                          for j in range(1, n + 1) if i != j])
    states = [[(float((i + t) % 4),) for i in range(n)] for t in range(length + 1)]
    run = MasRun(MasTrajectory(states), GraphTrajectory(length, static={"g": snap}))
    shapes = (
        "In{g} E[1,inf] F[0,3] [x[0] >= 1]",
        "Out{g} E[2,inf] G[0,inf] [x[0] >= 1]",
        "G[0,2] (In{g} E[0,2] (F[1,4] [x[0] >= 2]))",
        "In{g} E[1,inf] (Out{g} E[1,inf] [x[0] >= 1])",
        "F[0,2] [x[0] >= 1]",
    )
    masks = (
        KnowledgeMask(1, [(2, 0, 10), (3, 2, 4), (3, 8, 14), (5, 0, 0), (5, 6, 6)]),
        KnowledgeMask(1, [(2, 0, 15), (3, 0, 3), (3, 5, 9), (5, 4, 5), (6, 10, 10)]),
        KnowledgeMask(1, [(2, 0, 7), (4, 1, 1), (4, 3, 3), (6, 9, 12)]),
        KnowledgeMask.self_only(1),
        KnowledgeMask.full(1, n, length),
    )
    partial = 0
    for text in shapes:
        f = parse_local(text)
        for mask in masks:
            for subject in (1, 2, 4):
                for T in range(length + 1):
                    report = is_determinable(run, mask, f, subject, T)
                    assert report == reference_is_determinable(run, mask, f, subject, T), (
                        text, mask, subject, T)
                    for failure in report.failures:
                        agents = {j for j, _ in failure.unknown_states}
                        assert 1 not in agents
                        times = {u for _, u in failure.unknown_states}
                        partial += len(failure.unknown_states) < len(agents) * len(times)
    assert partial > 100


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_a_warmed_run_answers_like_an_equal_fresh_run(seed):
    # the run's neighbor index is filled by queries on other tags,
    # directions and windows before the compared queries read it
    rng = random.Random(seed)
    run = random_run(rng, max_agents=4, max_len=5)
    tags = tuple(sorted(run.graphs.types))
    dim = run.trajectory.state_dim
    for _ in range(3):
        warm = random_local_formula(rng, tags, dim)
        agent = rng.randint(1, run.num_agents)
        monitor_local(run, warm, agent, 0)
        is_determinable(run, random_mask(rng, run, agent, 0.5), warm, agent, 0)
    with tempfile.TemporaryDirectory() as tmp:
        save_run(run, Path(tmp) / "r.json", Path(tmp) / "g.json")
        fresh = load_run(Path(tmp) / "r.json", Path(tmp) / "g.json")
    assert fresh == run
    for _ in range(3):
        f = random_local_formula(rng, tags, dim)
        subject = rng.randint(1, run.num_agents)
        mask = random_mask(rng, run, rng.randint(1, run.num_agents), rng.choice([0.0, 0.5]))
        T = rng.randint(0, run.length)
        for query in (lambda r: monitor_local(r, f, subject, T),
                      lambda r: monitor_dist(r, mask, f, subject, T),
                      lambda r: is_determinable(r, mask, f, subject, T)):
            assert query(run) == query(fresh), f"seed={seed}"


def test_determinability_is_polynomial_in_nesting_depth(monkeypatch):
    # 49 nested graph operators (98 parser levels, with the parentheses):
    # the chain count must not recurse into every neighbor at every level
    run = make_fig_run()
    mask = KnowledgeMask.self_only(1)
    bound = 49 * run.num_agents * (run.length + 1)  # operators x agents x times
    calls = []
    original = MultigraphSnapshot._entry

    def counting(*args):
        calls.append(args)
        # fail at once rather than run for an exponential number of calls
        assert len(calls) <= bound, "neighbor multiplicities queried too often"
        return original(*args)

    def nested(depth):
        return parse_local("In{d} E[0,inf] (" * depth + "[x[0] >= 3]" + ")" * depth)

    shallow = is_determinable(run, mask, nested(12), 1, 0)
    monkeypatch.setattr(MultigraphSnapshot, "_entry", counting)
    # a fresh run: the first run's neighbor index already holds every entry
    deep = is_determinable(make_fig_run(), mask, nested(49), 1, 0)
    assert (deep.determinable, deep.failures) == (shallow.determinable, shallow.failures)


def test_monitor_dist_refuses_an_unknown_subject():
    run = make_fig_run()
    with pytest.raises(ValueError) as err:
        monitor_dist(run, KnowledgeMask.self_only(1), Truth(), 99, 0)
    assert str(err.value) == "unknown agent 99"


def test_determinability_leaves_no_reference_cycles():
    run = make_fig_run(length=3)
    f = parse_local("G[0,1](In{d} E[1,inf] (F[0,1] Out{d} E[0,2] W[0,6] [x[0] >= 3]))")
    gc.collect()
    gc.disable()
    try:
        is_determinable(run, KnowledgeMask.self_only(1), f, 1, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()
