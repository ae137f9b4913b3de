import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stlgo import (
    AgentBind,
    Always,
    And,
    Atom,
    BinOp,
    Const,
    CountSet,
    ForAllAgents,
    GraphOp,
    Implies,
    Not,
    Or,
    ParseError,
    StateVar,
    TimeInterval,
    Truth,
    Until,
    WeightInterval,
    parse_global,
    parse_local,
    print_formula,
)
from stlgo.formula import FULL_WEIGHTS
from stlgo.parser import MAX_NESTING

from conftest import random_global_formula, random_local_formula

INF = math.inf


# ---------------------------------------------------------------------------
# golden parses


def test_bike_low_availability_formula():
    f = parse_local("G[0,24]([x[0] < 5] -> Out{mt} E[5,inf] W[0,8] [x[0] >= 8])")
    assert isinstance(f, Always)
    assert f.interval == TimeInterval(0, 24)
    body = f.child
    assert isinstance(body, Implies)
    # x < 5 desugars to !(x - 5 >= 0)
    assert body.left == Not(Atom(BinOp("-", StateVar(0), Const(5.0))))
    op = body.right
    assert isinstance(op, GraphOp)
    assert op.direction == "out"
    assert op.quantifier == "exists"
    assert op.graphs == ("mt",)
    assert op.counts == CountSet.single(5, INF)
    assert op.weights == WeightInterval(0.0, 8.0)
    assert op.child == Atom(BinOp("-", StateVar(0), Const(8.0)))


def test_global_station_coverage_formula():
    f = parse_global("FA{1..30}(G[0,24](Out{d} E[3,inf] W[0,1] [x[0] >= 8]))")
    assert isinstance(f, ForAllAgents)
    assert f.agents == tuple(range(1, 31))
    assert isinstance(f.child, Always)


def test_true_and_false():
    assert parse_local("true") == Truth()
    assert parse_local("false") == Not(Truth())


def test_default_quantifier_and_weights():
    f = parse_local("In<forall>{s,c} E[1,3] true")
    assert f == GraphOp("in", "forall", ("s", "c"), CountSet.single(1, 3), FULL_WEIGHTS, Truth())
    g = parse_local("In{s} E[1,3] true")
    assert g.quantifier == "exists"
    assert g.weights == FULL_WEIGHTS


def test_agent_bind():
    f = parse_global("@3.(true)")
    assert f == AgentBind(3, Truth())


def test_global_distance_atom_structure():
    src = (
        "G[0,2]([1 - sqrt((s[1][0]-s[2][0])*(s[1][0]-s[2][0]) + "
        "(s[1][1]-s[2][1])*(s[1][1]-s[2][1])) >= 0] -> @2.(In{si,ci} E[1,1] true))"
    )
    f = parse_global(src)
    assert print_formula(parse_global(print_formula(f))) == print_formula(f)
    assert parse_global(print_formula(f)) == f


def test_printer_elides_defaults():
    f = parse_local("In<exists>{g} E[1,2] W[-inf,inf] true")
    assert print_formula(f) == "In{g} E[1,2] true"
    g = parse_local("In<forall>{g} E[1,2] W[0,3] true")
    assert print_formula(g) == "In<forall>{g} E[1,2] W[0,3] true"


def test_empty_count_set_round_trips():
    f = parse_local("In{g} E[] true")
    assert isinstance(f, GraphOp)
    assert f.counts.is_empty()
    assert parse_local(print_formula(f)) == f


def test_count_set_unions():
    f = parse_local("In{g} E[0,0]u[4,inf] true")
    assert f.counts == CountSet(((0, 0), (4, INF)))


def test_comments_and_whitespace():
    src = "# availability\nG[0,2]  # window\n ( [x[0] >= 1] )\n"
    assert parse_local(src) == Always(Atom(BinOp("-", StateVar(0), Const(1.0))), TimeInterval(0, 2))


def test_equality_desugars_to_two_sided():
    f = parse_local("[x[0] == 3]")
    assert f == And(
        Atom(BinOp("-", StateVar(0), Const(3.0))),
        Atom(BinOp("-", Const(3.0), StateVar(0))),
    )


# ---------------------------------------------------------------------------
# precedence


def test_and_binds_tighter_than_or():
    assert parse_local("[x[0] >= 0] & true | false") == Or(
        And(Atom(StateVar(0)), Truth()), Not(Truth())
    )


def test_not_binds_tighter_than_and():
    assert parse_local("!true & false") == And(Not(Truth()), Not(Truth()))


def test_until_sits_at_and_level():
    f = parse_local("true U[0,2] true & false")
    assert f == And(Until(Truth(), Truth(), TimeInterval(0, 2)), Not(Truth()))
    g = parse_local("true & false U[0,2] true")
    assert g == Until(And(Truth(), Not(Truth())), Truth(), TimeInterval(0, 2))


def test_implies_is_right_associative():
    f = parse_local("true -> false -> true")
    assert f == Implies(Truth(), Implies(Not(Truth()), Truth()))


def test_unary_operand_of_graph_op():
    f = parse_local("In{g} E[0,1] !true & false")
    # the graph operator grabs only the unary formula
    assert isinstance(f, And)
    assert isinstance(f.left, GraphOp)


# ---------------------------------------------------------------------------
# errors


@pytest.mark.parametrize(
    "src",
    [
        "",
        "G[0,24",
        "G[0,24](",
        "[x[0] >= ]",
        "true &",
        "In{} E[0,1] true",
        "In{g} true",
        "Out{g} E[2,1] true",
        "G[3,1] true",
        "true U[1,0] true",
        "In{g} E[0,1] W[3,2] true",
        "@0.5.(true)",
        "true true",
        "(true)) ",
        "[x[0] >= 0] extra",
    ],
)
def test_malformed_inputs_raise_with_spans(src):
    with pytest.raises(ParseError) as exc_info:
        parse_local(src)
    err = exc_info.value
    assert err.span.start <= err.span.end <= max(len(src), 1)
    assert err.message


# Each merged reader's errors, pinned exactly: the message, the span as
# (start, end, line, column) and the expected tuple. The sources start on
# line 2 after a comment and a tab, and some run on to line 3.
ERROR_TABLE = [
    ("local", "# reversed bounds\n\tF[5,  # read as written\n\t1] true",
     "2:3: time interval reversed: [5, 1]", (20, 46, 2, 3), ()),
    ("local", "# reversed bounds\n\ttrue U[7,3] true",
     "2:8: time interval reversed: [7, 3]", (25, 30, 2, 8), ()),
    ("local", "# reversed bounds\n\tIn{d}\tE[4,  # read as written\n2] true",
     "2:9: count interval reversed: [4, 2]", (26, 51, 2, 9), ()),
    ("local", "# reversed bounds\n\tOut{d} E[1,inf]\n\tW[3,-2] true",
     "3:3: weight interval reversed: [3, -2]", (37, 43, 3, 3), ()),
    ("local", "# empty count sets\n\tIn{d} E[0,1]u[] true",
     "2:16: unexpected ']' (expected count bound)", (34, 35, 2, 16), ("count bound",)),
    ("local", "# empty count sets\n\tIn{d} E[]\n\tW[] true",
     "3:4: unexpected ']' (expected number or 'inf')", (33, 34, 3, 4), ("number or 'inf'",)),
    ("local", "# empty count sets\n\tIn{d} E[]u[1,2] true",
     "2:11: unexpected 'u' (expected formula)", (29, 30, 2, 11), ("formula",)),
    ("local", "# repeated items\n\tIn{d,\n\tc,d} E[1,2] true",
     "3:4: duplicate graph tag 'd'", (27, 28, 3, 4), ()),
    ("global", "# repeated items\n\tFA{1,2,\n\t2}(true)",
     "3:2: duplicate agent 2", (27, 28, 3, 2), ()),
    ("global", "# repeated items\n\tEX{3..\n\t1}(true)",
     "3:2: agent range reversed: 3..1", (26, 27, 3, 2), ()),
    ("local", "# cut short\n\tG[0,1]\n\t",
     "3:2: unexpected end of input (expected formula)", (21, 21, 3, 2), ("formula",)),
]


@pytest.mark.parametrize("mode, src, text, span, expected", ERROR_TABLE)
def test_error_message_span_and_expected_are_exact(mode, src, text, span, expected):
    with pytest.raises(ParseError) as exc_info:
        (parse_local if mode == "local" else parse_global)(src)
    err = exc_info.value
    assert str(err) == text
    assert (err.span.start, err.span.end, err.span.line, err.span.column) == span
    assert err.expected == expected


def test_error_rendering_points_into_a_later_line():
    src = "# reversed bounds\n\ttrue U[7,3] true"
    with pytest.raises(ParseError) as exc_info:
        parse_local(src)
    # the caret's indent copies the tab, so it sits under the bracket
    assert exc_info.value.render(src) == (
        "2:8: time interval reversed: [7, 3]\n  \ttrue U[7,3] true\n  \t      ^")


@pytest.mark.parametrize("src, rendered", [
    # only "\n" ends a line, as in the span: the form feed stays on line 1
    ("# c\x0c\n\tG[5,1] true",
     "2:3: time interval reversed: [5, 1]\n  \tG[5,1] true\n  \t ^"),
    ("\t\t]", "1:3: unexpected ']' (expected formula)\n  \t\t]\n  \t\t^"),
])
def test_error_rendering_splits_lines_like_the_span_and_keeps_tabs(src, rendered):
    with pytest.raises(ParseError) as exc_info:
        parse_local(src)
    assert exc_info.value.render(src) == rendered


def test_error_rendering_has_caret():
    src = "G[0,24]([x[0] >= 8)"
    with pytest.raises(ParseError) as exc_info:
        parse_local(src)
    rendered = exc_info.value.render(src)
    assert "^" in rendered and src.splitlines()[0] in rendered


def test_truncations_of_golden_formula_all_fail():
    src = "G[0,24]([x[0] < 5] -> Out{mt} E[5,inf] W[0,8] [x[0] >= 8])"
    parse_local(src)
    for cut in range(len(src)):
        with pytest.raises(ParseError):
            parse_local(src[:cut])


def test_local_accessor_rejected_in_global_mode():
    with pytest.raises(ParseError, match="x\\[k\\]"):
        parse_global("[x[0] >= 1]")
    with pytest.raises(ParseError, match="s\\[i\\]\\[k\\]"):
        parse_local("[s[1][0] >= 1]")


def test_graph_op_rejected_in_global_mode():
    with pytest.raises(ParseError, match="agent-local"):
        parse_global("In{g} E[0,1] true")


# ---------------------------------------------------------------------------
# round-trip


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9))
def test_local_round_trip(seed):
    rng = random.Random(seed)
    f = random_local_formula(rng, ("g1", "g2", "mt"), 3)
    assert parse_local(print_formula(f)) == f


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**9))
def test_global_round_trip(seed):
    rng = random.Random(seed)
    f = random_global_formula(rng, ("g1", "g2"), 2, 5)
    assert parse_global(print_formula(f)) == f


def test_scientific_notation_round_trips():
    for text in ("1e-3", "1.5e-07", "2e+301"):
        f = parse_local(f"[x[0] >= {text}]")
        assert parse_local(print_formula(f)) == f
    f = parse_local("[x[0] >= -0.25]")
    assert parse_local(print_formula(f)) == f


@pytest.mark.parametrize(
    "src",
    [
        "@0.(true)",
        "FA{0}(true)",
        "FA{2,2}(true)",
        "FA{3..1}(true)",
        "[s[0][0] >= 1]",
    ],
)
def test_bad_agent_references_are_parse_errors(src):
    with pytest.raises(ParseError):
        parse_global(src)


def test_duplicate_graph_tag_is_parse_error():
    with pytest.raises(ParseError, match="duplicate graph tag"):
        parse_local("In{g,g} E[0,1] true")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="GFU[](){}<>!&|->=@.,x s0123456789inftrueEW", max_size=40))
@example("F[0,1E310] true")
@example("G[1E400,2] true")
@example("In{g} E[1E310,inf] true")
@example("@1E310.(true)")
@example("F[0,1E999999999999999999] true")
def test_parser_never_crashes_on_garbage(src):
    for parse in (parse_local, parse_global):
        try:
            parse(src)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# nesting limit

NESTINGS = {
    # name: (formula nested n levels deep, text of the token opening a level)
    "not": (lambda n: "!" * n + "[x[0] >= 3]", "!"),
    "always": (lambda n: "G[0,1] " * n + "[x[0] >= 3]", "G"),
    "graph": (lambda n: "In{d} E[1,inf] " * n + "[x[0] >= 3]", "In"),
    "parens": (lambda n: "(" * n + "[x[0] >= 3]" + ")" * n, "("),
    "implies": (lambda n: "[x[0] >= 3] -> " * n + "true", "->"),
    "abs": (lambda n: "[" + "abs(" * n + "x[0]" + ")" * n + " >= 3]", "abs"),
}


@pytest.mark.parametrize("name", sorted(NESTINGS))
def test_formula_at_nesting_limit_parses_lowers_monitors_and_prints(name):
    from stlgo import KnowledgeMask, lower, monitor_dist, monitor_local

    from conftest import make_fig_run

    make, _ = NESTINGS[name]
    f = parse_local(make(MAX_NESTING))
    lower(f)
    assert parse_local(print_formula(f)) == f
    run = make_fig_run(length=1)
    mask = KnowledgeMask.full(3, run.num_agents, run.length)
    assert monitor_dist(run, mask, f, 3, 1).values == monitor_local(run, f, 3, 1).values


@pytest.mark.parametrize("name", sorted(NESTINGS))
def test_nesting_past_limit_is_parse_error_at_opening_token(name):
    make, opener = NESTINGS[name]
    src = make(MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting deeper than") as exc_info:
        parse_local(src)
    # the error points at the token that opens level MAX_NESTING + 1
    starts = [i for i in range(len(src)) if src.startswith(opener, i)]
    assert exc_info.value.span.start == starts[MAX_NESTING]


def test_deep_nesting_in_global_layer_is_parse_error():
    parse_global("!" * (MAX_NESTING - 1) + "@1.(true)")
    src = "!" * MAX_NESTING + "FA{1,2}(true)"
    with pytest.raises(ParseError, match="nesting deeper than") as exc_info:
        parse_global(src)
    assert exc_info.value.span.start == src.index("FA")
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_global("(" * 3000 + "true" + ")" * 3000)


@pytest.mark.parametrize(
    "src, col, what",
    [
        ("F[0,1E310] true", 5, "time bound"),
        ("G[1E400,2] true", 3, "time bound"),
        ("In{g} E[1E310,inf] true", 9, "count bound"),
        ("[x[1E310] >= 0]", 4, "state component"),
    ],
)
def test_integer_token_past_float_range_is_parse_error_at_token(src, col, what):
    with pytest.raises(ParseError, match=f"{what} too large") as info:
        parse_local(src)
    assert info.value.span.column == col


def test_agent_index_past_float_range_is_parse_error():
    with pytest.raises(ParseError, match="agent index too large"):
        parse_global("@1E310.(true)")


def test_integer_tokens_parse_exactly():
    big = 99999999999999999999999
    f = parse_local(f"F[0,{big}] true")
    assert f.interval.hi == big and type(f.interval.hi) is int
    assert print_formula(f) == f"F[0,{big}] true"
    assert parse_local("F[0,1e2] true").interval.hi == 100
    with pytest.raises(ParseError, match="time bound must be an integer"):
        parse_local("F[0,1E-999999999999] true")
