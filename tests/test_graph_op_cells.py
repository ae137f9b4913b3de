"""Graph-operator cells stop reading neighbors once their verdict is fixed:
the compiled kernel against the full count of ``reference_graph_op``, and
the child cells a cell reads on a star graph."""

import random

import pytest

from stlgo import (
    KnowledgeMask,
    MasRun,
    MasTrajectory,
    GraphTrajectory,
    MultigraphSnapshot,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_local,
)
from stlgo.central import Cells, Signal, _Query
from stlgo.formula import GraphOp, lower, nodes

from conftest import random_global_formula, random_local_formula, random_mask, random_run
from reference_graph_op import full_count_signal_cells

# Count sets the early decision must handle, over the tags of every conftest
# run (g1 carries parallel edges): several intervals, empty, complemented
# by negation or by G, a Truth child, nesting, and an inner operator over a
# graph the run does not carry, which raises as soon as a cell reads it.
SHAPES = (
    "In{g1} E[0,1]u[3,inf] [x[0] >= 2]",
    "Out{g2} E[1,1]u[3,4] [x[0] >= 0]",
    "In{g1} E[] [x[0] >= 1]",
    "!(Out{g3} E[0,inf] [x[0] >= 3])",
    "!(In{g1} E[1,2] [x[0] >= 2])",
    "G[0,2] Out{g1} E[2,inf] [x[0] >= 1]",
    "Out{g1} E[2,inf] true",
    "In{g1} E[1,inf] (Out{g2} E[0,1] F[0,2] [x[0] >= 3])",
    "Out{g1} E[2,3] (In{g3} E[1,inf] [x[0] >= 4])",
    "In{g1} E[0,inf] (Out{nope} E[1,inf] [x[0] >= 0])",
    "Out{g2} E[1,inf] ([x[0] >= 5] & In{nope} E[0,0] true)",
)
P_KNOWN = (0.0, 0.3, 0.7, 1.0)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        return (type(e).__name__, str(e))


def _reference(run, f, agent, T, strict=False, mask=None):
    return Signal(0, full_count_signal_cells(run, f, agent, T, strict, mask))


def test_monitors_equal_the_full_count():
    rng = random.Random(25_001)
    kinds = {"empty": 0, "several": 0, "error": 0, "unknown": 0}
    for k in range(300):
        run = random_run(rng, max_agents=5, max_len=6)
        tags = tuple(sorted(run.graphs.types))
        dim = run.trajectory.state_dim
        if k % 2:
            f = parse_local(SHAPES[k // 2 % len(SHAPES)])
        else:
            f = random_local_formula(rng, tags, dim)
        for op in nodes(lower(f)):
            if type(op) is GraphOp:
                kinds["empty"] += not op.counts.intervals
                kinds["several"] += len(op.counts.intervals) > 1
        agent, T = rng.randint(1, run.num_agents), rng.randint(0, run.length)
        for strict in (False, True):
            got = _outcome(monitor_local, run, f, agent, T, strict)
            assert got == _outcome(_reference, run, f, agent, T, strict), k
            kinds["error"] += type(got) is tuple
            for p in P_KNOWN:
                mask = random_mask(rng, run, rng.randint(1, run.num_agents), p)
                got = _outcome(monitor_dist, run, mask, f, agent, T, strict)
                assert got == _outcome(_reference, run, f, agent, T, strict, mask), (k, p)
                kinds["unknown"] += type(got) is Signal and None in got.values
        g = random_global_formula(rng, tags, dim, run.num_agents)
        assert _outcome(monitor_global, run, g, T) == _outcome(_reference, run, g, None, T), k
    assert min(kinds.values()) >= 10, kinds


class LoggedCells(Cells):
    """Cells that log every call of an atom's cell function."""

    def __init__(self, query, mask=None):
        self.reads = []
        super().__init__(query, mask)

    def _atom(self, f):
        cell, reads = super()._atom(f), self.reads

        def logged(agent, t):
            reads.append((agent, t))
            return cell(agent, t)
        return logged


def _star(leaf_values, parallel=1):
    # agent 1 is the hub; each leaf j >= 2 has `parallel` edges j -> 1
    edges = [(j, 1, u, 1.0) for j in range(2, len(leaf_values) + 2)
             for u in range(1, parallel + 1)]
    states = [[(0.0,)] + [(float(v),) for v in leaf_values]]
    return MasRun(MasTrajectory(states),
                  GraphTrajectory(0, static={"g": MultigraphSnapshot("g", True, edges)}))


def _hub_cell(run, text, agent=1, mask=None):
    """The cell of the formula at (agent, 0) and the distinct child cells it
    read, which come in the neighbor index's order; a neighbor's parallel
    edges read its cell again."""
    query = _Query(run, parse_local(text), agent, 0)
    cells = LoggedCells(query, mask)
    value = cells[query.core](agent, 0)
    return value, list(dict.fromkeys(cells.reads))


@pytest.mark.parametrize("text, value, reads", [
    # one satisfying neighbor fixes "at least one"
    ("In{g} E[1,inf] [x[0] >= 1]", 1, 1),
    # a third satisfying neighbor puts the count past 2
    ("In{g} E[0,2] [x[0] >= 1]", 0, 3),
    # verdicts fixed before any read still read one child cell
    ("In{g} E[0,inf] [x[0] >= 1]", 1, 1),
    ("In{g} E[] [x[0] >= 1]", 0, 1),
    # several intervals: the count passes [0, 1], then fits or passes [3, ...]
    ("In{g} E[0,1]u[3,inf] [x[0] >= 1]", 1, 3),
    ("In{g} E[0,1]u[3,3] [x[0] >= 1]", 0, 4),
    # all five must be counted to tell 5 from 4
    ("In{g} E[5,5] [x[0] >= 1]", 1, 5),
    # violating neighbors: the count can no longer reach 2 after the fourth
    ("In{g} E[2,inf] [x[0] >= 9]", 0, 4),
])
def test_a_hub_cell_reads_only_the_neighbors_its_verdict_needs(text, value, reads):
    got, read = _hub_cell(_star([5] * 5), text)
    assert (got, len(read)) == (value, reads)


def test_a_cell_without_neighbors_reads_none():
    run = _star([5] * 5)
    assert _hub_cell(run, "In{g} E[0,0] [x[0] >= 1]", agent=2) == (1, [])
    assert _hub_cell(run, "In{g} E[1,inf] [x[0] >= 1]", agent=2) == (0, [])


def test_parallel_edges_count_at_once():
    # each satisfying leaf brings 3 edges: the second puts the count at 6
    run = _star([5] * 4, parallel=3)
    value, reads = _hub_cell(run, "In{g} E[0,5] [x[0] >= 1]")
    assert (value, len(reads)) == (0, 2)
    value, reads = _hub_cell(run, "In{g} E[3,inf] [x[0] >= 1]")
    assert (value, len(reads)) == (1, 1)


def test_hidden_neighbors_keep_the_loop_going():
    run = _star([5] * 5)
    # ? at every leaf: the count could still be anything from 0 to 5
    value, reads = _hub_cell(run, "In{g} E[1,inf] [x[0] >= 1]", mask=KnowledgeMask.self_only(1))
    assert (value, sorted(reads)) == (None, [(j, 0) for j in range(2, 7)])
    # only leaf 4 is visible, and it satisfies: the loop stops there
    value, reads = _hub_cell(run, "In{g} E[1,inf] [x[0] >= 1]", mask=KnowledgeMask(1, [(4, 0, 0)]))
    assert (value, reads[-1]) == (1, (4, 0))
    # leaves 3 and 5 are visible and violate: once both are read, at most
    # 3 of the 5 edges can count, short of 4, whatever the hidden leaves
    run = _star([5, 0, 5, 0, 5])
    mask = KnowledgeMask(1, [(3, 0, 0), (5, 0, 0)])
    value, reads = _hub_cell(run, "In{g} E[4,inf] [x[0] >= 1]", mask=mask)
    assert value == 0 and reads[-1] in ((3, 0), (5, 0)) and {(3, 0), (5, 0)} <= set(reads)
