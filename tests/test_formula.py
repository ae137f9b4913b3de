import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stlgo import (
    AgentBind,
    Always,
    And,
    Atom,
    CountSet,
    Eventually,
    GlobalAtom,
    GraphOp,
    Implies,
    MultigraphSnapshot,
    Not,
    Or,
    StateVar,
    TimeInterval,
    Truth,
    Until,
    WeightInterval,
    horizon,
    lower,
)
from stlgo.formula import FULL_WEIGHTS, build_operator_tree, nodes
from stlgo.central import oracle_eval
from stlgo.distributed import prepare_for_distributed
from stlgo.parser import parse_global, parse_local

from conftest import graph_ops, nested_graph_formula, random_global_formula, random_local_formula

INF = math.inf

ATOM = Atom(StateVar(0))
E_ANY = CountSet.single(0, INF)


def gop(tags=("g",), counts=E_ANY, child=Truth(), quant="exists", direction="in"):
    return GraphOp(direction, quant, tuple(tags), counts, FULL_WEIGHTS, child)


# ---------------------------------------------------------------------------
# count sets


def test_count_set_canonicalizes():
    cs = CountSet(((4, 5), (1, 3)))
    assert cs.intervals == ((1, 5),)
    assert CountSet(((0, 2), (3, 4))).intervals == ((0, 4),)


def test_count_set_complement_single():
    assert CountSet.single(2, INF).complement().intervals == ((0, 1),)
    assert CountSet.single(1, 3).complement().intervals == ((0, 0), (4, INF))
    assert CountSet.full().complement().is_empty()
    assert CountSet.empty().complement().intervals == ((0, INF),)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 14)).map(
            lambda p: (min(p), max(p))
        ),
        max_size=3,
    ),
    st.integers(0, 20),
)
def test_count_set_complement_involution_and_membership(intervals, k):
    cs = CountSet(tuple(intervals))
    comp = cs.complement()
    assert comp.complement() == cs
    assert cs.contains(k) != comp.contains(k)


def test_reversed_intervals_rejected():
    with pytest.raises(ValueError):
        CountSet.single(3, 1)
    with pytest.raises(ValueError):
        WeightInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        TimeInterval(3, 1)


@pytest.mark.parametrize("make, message", [
    # a fractional lower bound was truncated to [0, 2]
    (lambda: TimeInterval(0.5, 2), "finite time bounds must be integers"),
    (lambda: TimeInterval(1.5, INF), "finite time bounds must be integers"),
    (lambda: TimeInterval(0, 2.5), "finite time bounds must be integers"),
    # an infinite lower bound raised OverflowError from int()
    (lambda: TimeInterval(INF, INF), "time interval lower bound must be finite"),
    (lambda: CountSet(((INF, INF),)), "count interval lower bound must be finite"),
    (lambda: CountSet.single(0.5, 2), "finite count bounds must be integers"),
    # a NaN bound reached int() and raised its message, not one naming it
    (lambda: TimeInterval(0, math.nan), "time bounds may not be NaN"),
    (lambda: TimeInterval(math.nan, 1), "time bounds may not be NaN"),
    (lambda: CountSet(((math.nan, 1),)), "count bounds may not be NaN"),
    (lambda: CountSet(((0, math.nan),)), "count bounds may not be NaN"),
], ids=["time-lo-half", "time-lo-half-unbounded", "time-hi-half", "time-lo-inf", "count-lo-inf",
        "count-lo-half", "time-hi-nan", "time-lo-nan", "count-lo-nan", "count-hi-nan"])
def test_bad_interval_bounds_raise_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# horizon


HORIZON_TABLE = [
    (Truth(), (0, 0)),
    (ATOM, (0, 0)),
    (Always(ATOM, TimeInterval(0, 24)), (0, 24)),
    (Eventually(ATOM, TimeInterval(2, 5)), (2, 5)),
    (Until(ATOM, gop(child=ATOM), TimeInterval(2, 5)), (2, 5)),
    (Always(ATOM, TimeInterval(0, INF)), (0, INF)),
    (
        And(Always(ATOM, TimeInterval(0, 3)), Eventually(ATOM, TimeInterval(1, 10))),
        (0, 10),
    ),
    (gop(child=Eventually(ATOM, TimeInterval(0, 4))), (0, 4)),
    # inf absorbs a finite sum past float range: G[0,inf] F[0,1E308] F[0,1E308] true
    (
        Always(
            Eventually(Eventually(Truth(), TimeInterval(0, 10**308)), TimeInterval(0, 10**308)),
            TimeInterval(0, INF),
        ),
        (0, INF),
    ),
    (
        Until(ATOM, Until(ATOM, ATOM, TimeInterval(3, 4)), TimeInterval(1, 2)),
        (1, 6),
    ),
    (
        Eventually(
            Not(Always(gop(child=ATOM), TimeInterval(1, 3))), TimeInterval(0, 2)
        ),
        (0, 5),
    ),
]


@pytest.mark.parametrize("formula,expected", HORIZON_TABLE)
def test_horizon_table(formula, expected):
    assert horizon(formula) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_horizon_invariant_under_normalization(seed):
    rng = random.Random(seed)
    f = random_local_formula(rng, ("g1", "g2"), 2)
    h = horizon(f)
    assert horizon(lower(f)) == h
    assert horizon(prepare_for_distributed(f)) == h


# ---------------------------------------------------------------------------
# negations, as lowering pushes them into graph operators


def test_lowering_complements_negated_counts():
    f = Not(gop(counts=CountSet.single(2, INF)))
    out = lower(f)
    assert isinstance(out, GraphOp)
    assert out.counts.intervals == ((0, 1),)

    f = Not(gop(counts=CountSet.single(1, 3)))
    assert lower(f).counts.intervals == ((0, 0), (4, INF))


def test_lowering_drops_double_negation():
    inner = gop(counts=CountSet.single(1, 3))
    assert lower(Not(Not(inner))) == inner


def test_lowering_dualizes_a_negated_graph_quantifier(fig_run):
    # not(exists g: count in E) = forall g: count in complement(E), here as
    # the conjunction of the single-graph operators over the complement
    f = Not(gop(tags=("a", "b"), quant="exists", counts=CountSet.single(1, 2)))
    complement = CountSet.single(1, 2).complement()
    assert complement.intervals == ((0, 0), (3, INF))
    assert lower(f) == And(gop(tags=("a",), counts=complement), gop(tags=("b",), counts=complement))
    # the same law checked on a run: a is the d graph, b the d graph without
    # its edges at agent 3
    edges = fig_run.graphs.at("d", 0).edges
    run = fig_run.with_graph("a", MultigraphSnapshot("a", False, edges)).with_graph(
        "b", MultigraphSnapshot("b", False, [e for e in edges if 3 not in e[:2]]))
    agents = range(1, run.num_agents + 1)
    verdicts = [oracle_eval(run, f, agent, 0) for agent in agents]
    assert verdicts == [oracle_eval(run, lower(f), agent, 0) for agent in agents]
    assert set(verdicts) == {0, 1}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_lowering_leaves_no_negated_graph_op(seed):
    rng = random.Random(seed)
    f = lower(random_local_formula(rng, ("g1", "g2"), 2))

    def check(node):
        if isinstance(node, Not):
            assert not isinstance(node.child, GraphOp)
            check(node.child)
        elif isinstance(node, (And, Or, Implies, Until)):
            check(node.left)
            check(node.right)
        elif isinstance(node, (Eventually, Always, GraphOp)):
            check(node.child)

    check(f)


# ---------------------------------------------------------------------------
# the core grammar that lowering produces

CORE_TYPES = (Truth, Atom, GlobalAtom, Not, And, Until, GraphOp, AgentBind)


def assert_core(f):
    for node in nodes(f):
        assert type(node) in CORE_TYPES, node
        if type(node) is GraphOp:
            assert len(node.graphs) == 1, node
        if type(node) is Not:
            assert type(node.child) not in (Not, GraphOp), node


@pytest.mark.parametrize("text", [
    "!![x[0] >= 0]",
    "!(Out{a,b} E[1,inf] [x[0] >= 0])",
    "G[0,2]([x[0] >= 0] -> Out<forall>{a,b} E[2,inf] [x[1] >= 0])",
    "!(In<forall>{a,b,c} E[0,1] !!true) | !F[0,3] !In{a,b,c} E[2,inf] [x[0] >= 1]",
])
def test_lowering_yields_the_core_grammar_on_literals(text):
    f = parse_local(text)
    assert_core(lower(f))
    assert_core(prepare_for_distributed(f))
    g = parse_global(f"!EX{{1,2}}({text}) | !FA{{3}}({text})")
    assert_core(lower(g))
    assert_core(prepare_for_distributed(g))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_lowering_yields_the_core_grammar(seed):
    rng = random.Random(seed)
    tags = ("g1", "g2", "g3")
    for f in (random_local_formula(rng, tags, 2), nested_graph_formula(rng, tags, 2),
              random_global_formula(rng, tags, 2, 4)):
        assert_core(lower(f))
        assert_core(prepare_for_distributed(f))


# ---------------------------------------------------------------------------
# graph quantifiers, as lowering expands them


def test_lowering_expands_exists_into_a_disjunction():
    f = gop(tags=("s", "c"), quant="exists", counts=CountSet.single(1, 2))
    s, c = (gop(tags=(tag,), counts=CountSet.single(1, 2)) for tag in "sc")
    assert lower(f) == lower(Or(s, c))
    assert [op.graphs for op in graph_ops(lower(f))] == [("s",), ("c",)]


def test_lowering_expands_forall_into_a_conjunction():
    f = gop(tags=("s", "c"), quant="forall", counts=CountSet.single(1, 2))
    s, c = (gop(tags=(tag,), quant="forall", counts=CountSet.single(1, 2)) for tag in "sc")
    assert lower(f) == And(s, c)


def test_lowering_keeps_a_single_graph_operator():
    f = gop(tags=("d",), counts=CountSet.single(1, 2))
    assert lower(f) is f


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_lowering_output_is_single_graph(seed):
    rng = random.Random(seed)
    f = lower(random_local_formula(rng, ("g1", "g2", "g3"), 2))
    assert all(len(op.graphs) == 1 for op in graph_ops(f))


# ---------------------------------------------------------------------------
# graph operator tree


def test_operator_tree_worked_example():
    # In pi1 U Out (pi2 & In true): leaves pi1, pi2, true with chains
    # (1), (2), (2, 3)
    pi1, pi2 = Atom(StateVar(0)), Atom(StateVar(1))
    f = Until(
        gop(child=pi1),
        gop(direction="out", child=And(pi2, gop(child=Truth()))),
        TimeInterval(0, 2),
    )
    tree = build_operator_tree(f)
    assert len(tree.operators) == 3
    assert [leaf.formula for leaf in tree.leaves] == [pi1, pi2, Truth()]
    assert [leaf.ancestors for leaf in tree.leaves] == [(1,), (2,), (2, 3)]


def test_operator_tree_degenerate():
    tree = build_operator_tree(ATOM)
    assert tree.operators == ()
    assert len(tree.leaves) == 1
    assert tree.leaves[0].ancestors == ()


def test_operator_tree_nested_ops_single_leaf():
    f = gop(child=gop(direction="out", child=Truth()))
    tree = build_operator_tree(f)
    assert len(tree.operators) == 2
    assert len(tree.leaves) == 1
    assert tree.leaves[0].ancestors == (1, 2)


def test_operator_tree_rejects_multi_graph():
    with pytest.raises(ValueError, match="expand graphs first"):
        build_operator_tree(gop(tags=("a", "b")))


def test_operator_tree_rejects_unnormalized_negation():
    with pytest.raises(ValueError, match="negation-normalized"):
        build_operator_tree(Not(gop()))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_operator_tree_covers_all_graph_ops(seed):
    rng = random.Random(seed)
    f = prepare_for_distributed(random_local_formula(rng, ("g1", "g2"), 2))
    tree = build_operator_tree(f)
    expected = graph_ops(f)
    assert len(tree.operators) == len(expected)
    assert all(op is want for op, want in zip(tree.operators, expected))
    for leaf in tree.leaves:
        assert not graph_ops(leaf.formula)


def test_expression_evaluation_and_errors():
    from stlgo.formula import BinFn, BinOp, Const, StateVar, UnaryFn, eval_expr

    state = (9.0, -4.0)
    assert eval_expr(BinOp("/", StateVar(0), Const(3.0)), state) == 3.0
    assert eval_expr(UnaryFn("sqrt", StateVar(0)), state) == 3.0
    assert eval_expr(UnaryFn("abs", StateVar(1)), state) == 4.0
    assert eval_expr(BinFn("max", StateVar(0), StateVar(1)), state) == 9.0
    with pytest.raises(ValueError, match="division by zero"):
        eval_expr(BinOp("/", Const(1.0), Const(0.0)), state)
    with pytest.raises(ValueError, match="sqrt of a negative"):
        eval_expr(UnaryFn("sqrt", StateVar(1)), state)


def test_graph_op_rejects_bad_tag_sets():
    with pytest.raises(ValueError, match="at least one"):
        GraphOp("in", "exists", (), E_ANY, FULL_WEIGHTS, Truth())
    with pytest.raises(ValueError, match="duplicate"):
        GraphOp("in", "exists", ("g", "g"), E_ANY, FULL_WEIGHTS, Truth())


def test_graph_op_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction must be"):
        GraphOp("sideways", "exists", ("g",), E_ANY, FULL_WEIGHTS, Truth())
