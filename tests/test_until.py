"""Until/F/G windows: the next-witness pointers of the compiled kernel
against the plain window scan, the oracle at L >= 1000, a linear count of
cell reads, and no cell read outside [t, hi]."""

import random

import pytest

from stlgo import (
    InsufficientTraceError,
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    GraphTrajectory,
    monitor_dist,
    monitor_local,
    parse_global,
    parse_local,
)
from stlgo import central
from stlgo.central import _UNSET, Cells, oracle_eval, signal_cells

from conftest import random_global_formula, random_local_formula, random_mask, random_run
from reference_until import reference_signal_cells

# Window shapes over x[0] and the tag g1 that every conftest run carries:
# bounded and unbounded, lo > 0, windows that start past a short run's end,
# nested Until, and Truth (F, G) and non-Truth left operands.
SHAPES = (
    "[x[0] >= 1] U[0,3] [x[0] >= 5]",
    "[x[0] >= 0] U[2,4] [x[0] >= 4]",
    "[x[0] >= -1] U[1,inf] [x[0] >= 6]",
    "[x[0] >= 0] U[0,inf] [x[0] >= 7]",
    "F[0,inf] [x[0] >= 7]",
    "G[0,inf] [x[0] >= -2]",
    "G[3,inf] [x[0] >= 0]",
    "F[5,9] [x[0] >= 2]",
    "F[12,14] [x[0] >= 2]",
    "F[2,30] G[0,inf] [x[0] >= 0]",
    "G[0,2] ([x[0] >= 1] U[1,inf] In{g1} E[1,inf] [x[0] >= 2])",
    "([x[0] >= 0] U[0,2] [x[0] >= 3]) U[1,5] (F[0,2] [x[0] >= 6])",
    "!(G[1,3] [x[0] >= 1]) U[0,inf] ([x[0] <= 2] U[2,inf] [x[0] >= 4])",
    "Out{g1} E[1,inf] ([x[0] >= 0] U[0,4] G[0,1] [x[0] >= 3])",
)
P_KNOWN = (0.0, 0.3, 0.7, 1.0)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InsufficientTraceError as e:
        return ("InsufficientTraceError", str(e))


def _local_cases(count):
    rng = random.Random(6_101)
    for k in range(count):
        run = random_run(rng, max_agents=4, max_len=14)
        if k % 2:
            f = parse_local(SHAPES[k // 2 % len(SHAPES)])
        else:
            tags = tuple(sorted(run.graphs.types))
            f = random_local_formula(rng, tags, run.trajectory.state_dim)
        yield rng, run, f, rng.randint(1, run.num_agents), rng.randint(0, run.length)


def test_signal_cells_equal_reference_scan():
    strict_refusals = 0
    for rng, run, f, agent, T in _local_cases(360):
        masks = [None] + [
            random_mask(rng, run, rng.randint(1, run.num_agents), p) for p in P_KNOWN
        ]
        for mask in masks:
            for strict in (False, True):
                got = _outcome(signal_cells, run, f, agent, T, strict, mask)
                assert got == _outcome(reference_signal_cells, run, f, agent, T, strict, mask)
                strict_refusals += isinstance(got[0], str)
    assert strict_refusals > 0


def test_global_signal_cells_equal_reference_scan():
    rng = random.Random(6_102)
    for _ in range(150):
        run = random_run(rng, max_agents=4, max_len=14)
        tags = tuple(sorted(run.graphs.types))
        f = random_global_formula(rng, tags, run.trajectory.state_dim, run.num_agents)
        T = rng.randint(0, run.length)
        for strict in (False, True):
            assert _outcome(signal_cells, run, f, None, T, strict) == _outcome(
                reference_signal_cells, run, f, None, T, strict
            )
    f = parse_global(
        "F[0,inf] (@1.([x[0] >= 3] U[1,4] [x[0] >= 6]) | EX{1,2}(G[1,inf] [x[0] >= 0]))"
    )
    run = random_run(random.Random(3), max_agents=4, max_len=14)
    assert signal_cells(run, f, None, 0) == reference_signal_cells(run, f, None, 0)


def _scalar_run(values, agents=1):
    """Agents 1..agents, each with x[0] = values[t] at time t."""
    states = [[(float(v),)] * agents for v in values]
    return MasRun(MasTrajectory(states), GraphTrajectory(len(values) - 1, static={}))


def test_until_with_left_operand_matches_oracle_at_long_trace():
    rng = random.Random(61)
    L = 1200
    values = [rng.choice([1.0, 1.0, 1.0, 2.0, -1.0, 6.0]) for _ in range(L + 1)]
    run = _scalar_run(values)
    f = parse_local("[x[0] >= 0] U[3,40] [x[0] >= 5]")
    sig = monitor_local(run, f, 1, L)
    assert (sig.t0, sig.t1) == (0, L)
    assert sig.values == tuple(oracle_eval(run, f, 1, t) for t in range(L + 1))
    assert 0 < sum(sig.values) < L + 1


def test_eventually_always_unbounded_matches_oracle_at_long_trace():
    # p fails at a few sparse times up to t = 700 and holds afterwards, so
    # G[0,inf] p turns 1 at 701 and F[2,30] G[0,inf] p at 671, until the
    # window [t + 2, t + 30] starts past L
    rng = random.Random(62)
    L = 1100
    values = [1.0] * (L + 1)
    for t in rng.sample(range(701), 15) + [700]:
        values[t] = -1.0
    run = _scalar_run(values)
    f = parse_local("F[2,30] G[0,inf] [x[0] >= 0]")
    sig = monitor_local(run, f, 1, L)
    assert sig.values == tuple(int(671 <= t <= L - 2) for t in range(L + 1))
    times = {0, 670, 671, L - 2, L - 1, L} | set(rng.sample(range(L + 1), 40))
    for t in sorted(times):
        assert sig.values[t] == oracle_eval(run, f, 1, t), t


def test_random_signals_equal_reference_and_oracle_at_long_trace():
    # seeded random formulas and the window shapes on traces of L >= 1000:
    # every signal, central and under random masks, equals the window
    # scan's cell for cell, and sampled central cells equal the oracle
    rng = random.Random(6_103)
    masked = 0
    for k in range(27):
        run = random_run(rng, max_agents=3, min_len=1000, max_len=1100)
        tags, dim = tuple(sorted(run.graphs.types)), run.trajectory.state_dim
        agent = rng.randint(1, run.num_agents)
        if k % 3 == 0:
            f = parse_local(SHAPES[k // 3 % len(SHAPES)])
        elif k % 3 == 1:
            f = random_local_formula(rng, tags, dim)
        else:
            f, agent = random_global_formula(rng, tags, dim, run.num_agents), None
        T = rng.randint(0, run.length)
        got = signal_cells(run, f, agent, T)
        assert got == reference_signal_cells(run, f, agent, T), k
        for t in rng.sample(range(len(got)), 3):
            assert got[t] == oracle_eval(run, f, agent, t), (k, t)
        if agent is None:
            continue
        for p in (0.3, 0.8):
            mask = random_mask(rng, run, rng.randint(1, run.num_agents), p)
            got = signal_cells(run, f, agent, T, mask=mask)
            assert got == reference_signal_cells(run, f, agent, T, mask=mask), (k, p)
            masked += None in got
    assert masked > 0


class CountingCells(Cells):
    """The compiled cells with every read of a memoized cell counted: the
    function of each node that keeps a memo is wrapped, and the nodes above
    it call the wrapper. Truth, negation and agent binding keep none; they
    only map the cells of their operand. The whole rows that
    ``signal_cells`` evaluates above the graph operators fill memos, and a
    negation's own row, without calling these functions, so ``work`` adds
    the cells that every query's rows hold once it is done."""

    reads = 0
    queries: list = []

    def __init__(self, *args):
        super().__init__(*args)
        CountingCells.queries.append(self)

    def _compile(self, f, subs):
        cell = super()._compile(f, subs)
        if id(f) not in self.rows:
            return cell

        def counted(agent, t):
            CountingCells.reads += 1
            return cell(agent, t)
        return counted

    @classmethod
    def work(cls) -> int:
        """The cells read plus the cells filled since the last call."""
        rows = [row for q in cls.queries for memo in q.rows.values() for row in memo.values()]
        rows += [row for q in cls.queries for row in q._negations.values()]
        work = cls.reads + sum(len(row) - row.count(_UNSET) for row in rows)
        cls.reads, cls.queries = 0, []
        return work


@pytest.mark.parametrize(
    "text", ["G[0,inf] [x[0] >= 0]", "[x[0] >= 0] U[0,inf] [x[0] >= 5]"]
)
def test_full_signal_makes_linear_number_of_cell_reads(monkeypatch, text):
    # p holds everywhere and q only at the last sample: every window runs
    # to L, which the per-cell scan reads in full at every t; observer 2
    # sees subject 1 at even times only. Each cell read or filled counts.
    L = 4000
    run = _scalar_run([1.0] * L + [5.0], agents=2)
    monkeypatch.setattr(central, "Cells", CountingCells)
    monkeypatch.setattr(CountingCells, "reads", 0)
    monkeypatch.setattr(CountingCells, "queries", [])
    f = parse_local(text)
    assert monitor_local(run, f, 1, L).values == (1,) * (L + 1)
    central_work = CountingCells.work()
    hidden = KnowledgeMask(2, frozenset((1, t) for t in range(0, L + 1, 2)))
    dist = monitor_dist(run, hidden, f, 1, L).values
    assert dist[L] == 1 and set(dist) == {None, 1}
    assert 0 < central_work <= 6 * (L + 1)
    assert 0 < CountingCells.work() <= 6 * (L + 1)


def _zero_outside(reached, L):
    """Two agents whose x[0] is 0 at every time outside ``reached`` (so
    [1 / x[0] >= 0] raises there) and 5 inside."""
    return _scalar_run([5.0 if t in reached else 0.0 for t in range(L + 1)], agents=2)


@pytest.mark.parametrize(
    "text, T, reached",
    [
        # strict T = 0 evaluates one cell, whose windows read only these times
        ("F[3,4] [1 / x[0] >= 0]", 0, {3, 4}),
        ("G[2,inf] [1 / x[0] >= 0]", 0, set(range(2, 13))),
        ("[1 / x[0] >= 0] U[2,4] [x[0] >= 5]", 0, {0, 1, 2}),
        ("[x[0] >= 5] U[2,4] [1 / x[0] >= 0]", 1, {0, 1, 2, 3}),
        ("F[1,2] G[0,2] [1 / x[0] >= 0]", 0, {1, 2, 3}),
        ("G[0,2] ([1 / x[0] >= 0] U[0,3] [x[0] >= 5])", 1, {0, 1, 2, 3}),
    ],
)
def test_no_cell_is_read_outside_its_window(text, T, reached):
    L = 12
    run = _zero_outside(reached, L)
    f = parse_local(text)
    central = monitor_local(run, f, 1, T, strict=True)
    assert central.values == (1,) * (T + 1)
    odd_hidden = KnowledgeMask(2, frozenset((1, t) for t in reached if t % 2 == 0))
    for mask in (KnowledgeMask.self_only(1), odd_hidden):
        dist = monitor_dist(run, mask, f, 1, T, strict=True)
        assert all(v in (1, None) for v in dist.values)
