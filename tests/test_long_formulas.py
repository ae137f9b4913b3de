"""Formulas far longer than the Python stack is deep: chains of thousands of
terms parse, print, lower, monitor and analyse, and the STREL escape
translation of a bike city prints and monitors."""

import math
import sys
import tracemalloc

import pytest

from stlgo import (
    And,
    BikeScenarioConfig,
    GlobalFormula,
    KnowledgeMask,
    LocalFormula,
    Signal,
    WeightInterval,
    gen_bike,
    is_determinable,
    monitor_dist,
    monitor_global,
    monitor_local,
    parse_global,
    parse_local,
    print_formula,
    translate_strel,
)
from stlgo.central import Cells, _chain_parts, _Query, oracle_eval
from stlgo.formula import nodes
from stlgo.parser import tokenize

from conftest import make_fig_run
from direct_semantics import strel_escape_direct

ATOM_TEXT = "[x[0] >= 3]"
CHAINS = {op: f" {op} ".join([ATOM_TEXT] * 10_000) for op in ("&", "|", "U[0,2]")}


def stack_depth() -> int:
    """The number of Python frames on the stack at the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def same_formula(a, b) -> bool:
    """Structural equality without recursing: the same node types and the
    same non-formula fields, node for node in pre-order."""
    def shape(f):
        return [
            (type(node), [v for v in vars(node).values()
                          if not isinstance(v, (LocalFormula, GlobalFormula))])
            for node in nodes(f)
        ]
    return shape(a) == shape(b)


@pytest.fixture(scope="module")
def chains():
    return {op: parse_local(text) for op, text in CHAINS.items()}


def test_tokens_of_a_ten_thousand_term_chain_stay_small():
    # one small tuple per token: about 80 000 tokens peak well under 16 MB
    tracemalloc.start()
    try:
        tokenize(CHAINS["&"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("op", sorted(CHAINS))
def test_ten_thousand_term_chain_prints_as_written(chains, op):
    assert print_formula(chains[op]) == CHAINS[op]


@pytest.mark.parametrize("op", sorted(CHAINS))
def test_ten_thousand_term_chain_monitors_in_a_shallow_stack(chains, op):
    # the stack a chain of any length needs is a few frames per nesting
    # level of the formula, not one per term; a U chain above every graph
    # operator is evaluated as whole rows. Agent 3's p holds at every time,
    # so every chain has p's signal
    f = chains[op]
    run = make_fig_run(length=3)
    atom = parse_local(ATOM_TEXT)
    masks = (KnowledgeMask.full(3, run.num_agents, run.length), KnowledgeMask.self_only(1))
    expected = (monitor_local(run, atom, 3, 3),
                [(monitor_dist(run, mask, atom, 3, 3),
                  is_determinable(run, mask, atom, 3, 3).determinable) for mask in masks])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        got = (monitor_local(run, f, 3, 3),
               [(monitor_dist(run, mask, f, 3, 3),
                 is_determinable(run, mask, f, 3, 3).determinable) for mask in masks])
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_ten_thousand_term_arithmetic_chain_monitors_in_a_shallow_stack():
    # an atom's expression compiles to one straight-line function, so an
    # arithmetic chain has no length limit: agent i's state is i, and the
    # sum of 10 000 of them reaches 30 000 at agents 3 and up
    f = parse_local("[" + " + ".join(["x[0]"] * 10_000) + " >= 30000]")
    run = make_fig_run(length=3)
    masks = (KnowledgeMask.full(3, run.num_agents, run.length), KnowledgeMask.self_only(1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        signals = {agent: monitor_local(run, f, agent, 3) for agent in (1, 2, 3, 7)}
        dist = [(monitor_dist(run, mask, f, 3, 3), is_determinable(run, mask, f, 3, 3).determinable)
                for mask in masks]
        cells = {(agent, t): oracle_eval(run, f, agent, t) for agent in signals for t in (0, 3)}
    finally:
        sys.setrecursionlimit(limit)
    assert {agent: sig.values for agent, sig in signals.items()} == {
        1: (0,) * 4, 2: (0,) * 4, 3: (1,) * 4, 7: (1,) * 4}
    assert all(signals[agent].values[t] == cell for (agent, t), cell in cells.items())
    # the full mask sees agent 3; observer 1 alone does not
    assert dist == [(signals[3], True), (Signal(0, (None,) * 4), False)]


def test_an_and_chain_compiles_to_one_cell_over_its_parts():
    f = parse_local(" & ".join(f"[x[0] >= {k}]" for k in range(1_000)))
    assert len(Cells(_Query(make_fig_run(length=3), f, 1, 0)).rows) == 1_001


def test_shared_and_nodes_compile_to_one_part_each():
    # f = f & f, 16 times over one atom: 16 & nodes and 65 536 paths
    atom = parse_local(ATOM_TEXT)
    f = atom
    for _ in range(16):
        f = And(f, f)
    query = _Query(make_fig_run(length=3), f, 3, 3)
    assert _chain_parts(query.core) == (atom,)
    run = query.run
    assert len(Cells(query).rows) == 2
    assert monitor_local(run, f, 3, 3) == monitor_local(run, atom, 3, 3)


def test_reports_on_separate_parses_of_a_long_chain_compare_hash_and_print():
    # a report holds answers only, so its size does not follow the formula's
    text = " | ".join([ATOM_TEXT] * 2_000)
    run = make_fig_run(length=3)
    mask = KnowledgeMask.self_only(1)
    a, b = (is_determinable(run, mask, parse_local(text), 3, 3) for _ in range(2))
    assert not a.determinable
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("stations", [10, 12])
def test_strel_escape_over_a_bike_city_prints_and_matches_direct_semantics(stations):
    run = gen_bike(BikeScenarioConfig(stations=stations, seed=0, hours=12))
    phi = parse_local("[x[0] >= 6]")
    weights = WeightInterval(2, math.inf)
    f = translate_strel("escape", weights, 1, run, 0, phi=phi)
    text = print_formula(f)
    assert text.count(" | ") >= 500
    assert same_formula(parse_global(text), f)
    signal = monitor_global(run, f, run.length)
    # the d graph is static, so the encoding at t = 0 holds at every time
    assert "d" in run.graphs.static
    assert signal.values == tuple(
        int(strel_escape_direct(run, phi, weights, 1, t)) for t in range(run.length + 1)
    )
    assert 0 < sum(signal.values) < len(signal.values)
