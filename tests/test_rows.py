"""Whole rows above the graph operators: ``signal_cells`` against the
pointwise drive of ``reference_rows`` over conftest's random runs, formulas
and masks (the same signals and errors, and the same graph-operator cells
evaluated), and against the oracle at L >= 1000."""

import random
from collections import Counter

from stlgo import parse_global, parse_local
from stlgo import central
from stlgo.central import _UNSET, Cells, oracle_eval, signal_cells
from stlgo.formula import And, Eventually, Not, TimeInterval, Until

from conftest import random_global_formula, random_local_formula, random_mask, random_run
from reference_rows import pointwise_signal_cells

# Graph operators where rows meet pointwise cells, over the tags of every
# conftest run: below Until on either side, as & parts, under negation and
# nested; atoms that divide by a zero state, which rows may evaluate at
# times the pointwise cells never read; and an operator over a graph the
# run does not carry, which raises where a cell reads it.
LOCAL_SHAPES = (
    "G[0,3]([x[0] < 5] -> Out{g1} E[1,inf] W[0,8] [x[0] >= 2])",
    "F[1,4](In{g2} E[0,1] [x[0] >= 3] & [x[0] >= 0])",
    "(Out{g3} E[1,inf] true) U[0,inf] [x[0] >= 6]",
    "[x[0] >= 1] U[1,3] (In{g1} E[2,inf] [x[0] >= 2] & !(Out{g2} E[0,0] [x[0] >= 4]))",
    "!(G[0,2] In{g1} E[1,2] F[0,1] [x[0] >= 3]) U[0,2] [x[0] <= 0]",
    "G[0,inf]([1 / x[0] >= 0] | Out{g1} E[1,inf] [x[0] >= 1])",
    "[x[0] >= 2] U[0,2] [1 / x[0] >= 0]",
    "[x[0] >= 3] & Out{g1} E[1,inf] [x[0] >= 1] & In{nope} E[0,0] true",
)
GLOBAL_SHAPES = (
    "FA{1,2}(G[0,3]([x[0] < 5] -> Out{g1} E[1,inf] [x[0] >= 2]))",
    "F[0,inf] (@1.(In{g2} E[1,inf] true) U[0,2] @2.([x[0] >= 3]))",
    "EX{1,2}(F[0,2] Out{g3} E[0,1] [x[0] >= 4]) & G[0,1] @2.([1 / x[0] >= 0])",
)
P_KNOWN = (0.3, 0.7)


class GraphOpCells(Cells):
    """The compiled cells with every graph-operator cell that is evaluated,
    not read back from its memo, logged as (operator, agent, t), and every
    error that the rows raise logged in ``row_errors``."""

    log: list = []
    row_errors: list = []

    def _signal(self, agent, end):
        try:
            return super()._signal(agent, end)
        except Exception as e:
            self.row_errors.append(e)
            raise

    def _graph_op(self, f, child):
        cell, memo, log = super()._graph_op(f, child), self.rows[id(f)], self.log

        def logged(agent, t):
            if memo[agent][t] is _UNSET:
                log.append((f, agent, t))
            return cell(agent, t)
        return logged


def _outcome(drive, *args):
    """drive's cells and the multiset of graph-operator cells it evaluated,
    or its error."""
    GraphOpCells.log.clear()
    try:
        cells = drive(*args)
    except Exception as e:  # the error is what both drives must agree on
        return (type(e).__name__, str(e)), None
    return cells, Counter(GraphOpCells.log)


def _cases(count):
    rng = random.Random(28_001)
    for k in range(count):
        run = random_run(rng, max_agents=4, max_len=12)
        tags, dim = tuple(sorted(run.graphs.types)), run.trajectory.state_dim
        if k % 4 == 3:
            if k % 8 == 3:
                f = parse_global(GLOBAL_SHAPES[k // 8 % len(GLOBAL_SHAPES)])
            else:
                f = random_global_formula(rng, tags, dim, run.num_agents)
            yield run, f, None, rng.randint(0, run.length), [None]
            continue
        if k % 4 == 1:
            f = parse_local(LOCAL_SHAPES[k // 4 % len(LOCAL_SHAPES)])
        elif k % 8 == 2:
            # h is one node read by two parents over different times
            h = random_local_formula(rng, tags, dim)
            f = And(Until(h, random_local_formula(rng, tags, dim), TimeInterval(0, 2)),
                    Eventually(Not(h), TimeInterval(1, 3)))
        else:
            f = random_local_formula(rng, tags, dim)
        masks = [None] + [random_mask(rng, run, rng.randint(1, run.num_agents), p)
                          for p in P_KNOWN]
        yield run, f, rng.randint(1, run.num_agents), rng.randint(0, run.length), masks


def test_rows_equal_the_pointwise_drive(monkeypatch):
    monkeypatch.setattr(central, "Cells", GraphOpCells)
    monkeypatch.setattr(GraphOpCells, "row_errors", [])
    seen = Counter()
    for k, (run, f, agent, T, masks) in enumerate(_cases(480)):
        for mask in masks:
            for strict in (False, True):
                got = _outcome(signal_cells, run, f, agent, T, strict, mask)
                want = _outcome(pointwise_signal_cells, run, f, agent, T, strict, mask,
                                GraphOpCells)
                assert got == want, (k, mask, strict)
                cells, evaluated = got
                if evaluated is None:
                    seen[cells[0]] += 1  # the error's type
                else:
                    seen["graph-op cells"] += sum(evaluated.values())
                    seen["unknown"] += None in cells
                    seen["global"] += agent is None
    assert seen["ValueError"] >= 20 and seen["UnknownGraphTypeError"] >= 20
    assert seen["unknown"] >= 50 and seen["global"] >= 100
    assert seen["graph-op cells"] >= 5_000
    # rows fall back to the pointwise drive only on errors that atoms and
    # graph operators raise, never on a fault of their own
    assert GraphOpCells.row_errors
    assert all(isinstance(e, ValueError) for e in GraphOpCells.row_errors)


def test_rows_equal_the_oracle_at_long_trace():
    rng = random.Random(28_002)
    for k in range(24):
        run = random_run(rng, max_agents=3, min_len=1000, max_len=1000)
        tags, dim = tuple(sorted(run.graphs.types)), run.trajectory.state_dim
        agent = rng.randint(1, run.num_agents)
        if k % 3 == 0:
            f = parse_local(LOCAL_SHAPES[k // 3 % 5])  # the shapes without errors
        elif k % 3 == 1:
            f = random_local_formula(rng, tags, dim)
        else:
            f, agent = random_global_formula(rng, tags, dim, run.num_agents), None
        T = rng.randint(0, run.length)
        got = signal_cells(run, f, agent, T)
        assert got == pointwise_signal_cells(run, f, agent, T), k
        for t in rng.sample(range(len(got)), 4):
            assert got[t] == oracle_eval(run, f, agent, t), (k, t)


def test_a_shared_node_fills_its_row_once_per_span(monkeypatch):
    # f = f U[0,1] f, 16 times: 16 Until nodes and 2**16 paths
    p = parse_local("[x[0] >= 2]")
    f = p
    for _ in range(16):
        f = Until(f, f, TimeInterval(0, 1))
    run = random_run(random.Random(28_003), max_agents=2, min_len=40, max_len=40)
    requests, row = [], Cells._row

    def counted(self, g, agent, times):
        requests.append(g)
        return row(self, g, agent, times)

    monkeypatch.setattr(Cells, "_row", counted)
    assert signal_cells(run, f, 1, 10) == pointwise_signal_cells(run, f, 1, 10)
    assert len(requests) == 1 + 2 * 16  # the root, then each Until's two operands
