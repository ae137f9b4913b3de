"""Text syntax for formulas: parsing with precise error spans, and printing.

The grammar (``.stlgo`` files, UTF-8, ``#`` starts a line comment)::

    phi   := "true" | "false" | atom | "!" phi | phi "&" phi | phi "|" phi
           | phi "->" phi | phi "U" tint phi | "F" tint phi | "G" tint phi
           | ("In" | "Out") quant? "{" tags "}" "E" cset ("W" wint)? phi
    atom  := "[" expr cmp expr "]"       cmp := <= < >= > == !=
    tint  := "[" nat "," (nat | "inf") "]"
    wint  := "[" num "," num "]"         num := [-]real | "inf" | "-inf"
    cset  := "[]" | "[" nat "," (nat | "inf") "]" ("u" "[" ... "]")*
    quant := "<exists>" | "<forall>"     tags := ident ("," ident)*
    expr  := real | "x[" nat "]"
           | expr ("+"|"-"|"*"|"/") expr
           | ("abs"|"sqrt") "(" expr ")" | ("min"|"max") "(" expr "," expr ")"
           | "(" expr ")"

The system-level grammar adds ``@i.(phi)``, ``FA{agents}(phi)``,
``EX{agents}(phi)``, and atoms over ``s[agent][component]`` accessors;
``agents`` is a comma list or a range ``a..b``.

Precedence: unary (!, F, G, In, Out) > & > | > ->, with U left-associative
at the & level and -> right-associative. Comparisons are desugared at parse
time so the semantic kernel only ever sees predicates of the form
``expression >= 0``; in particular ``a < b`` becomes ``!(a - b >= 0)``
(strict inequalities differ from non-strict readings only on the boundary).
An omitted quantifier defaults to exists and an omitted W to [-inf, inf].
The empty count set prints and parses as ``E[]``.

Nesting is bounded: each prefix operator (!, F, G, In, Out), "->",
parenthesis, agent binding and function call opens one level, and a formula
nested deeper than ``MAX_NESTING`` levels is a ParseError at the token that
opens the level past the limit. A formula at the limit still monitors
within Python's default recursion limit. Chains (``&``, ``|``, ``U``,
``+``) are loops, not nesting: they parse and print at any length.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

from .formula import (
    INF,
    AgentBind,
    AgentStateVar,
    Always,
    And,
    Atom,
    BinFn,
    BinOp,
    Const,
    CountSet,
    Eventually,
    ExistsAgent,
    Expr,
    ForAllAgents,
    GlobalAtom,
    GlobalFormula,
    GraphOp,
    Implies,
    LocalFormula,
    Not,
    Or,
    StateVar,
    TimeInterval,
    Truth,
    UnaryFn,
    Until,
    WeightInterval,
    FULL_WEIGHTS,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span reversed")


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span.line}:{span.column}: {message}{hint}")

    def render(self, src: str) -> str:
        """Multi-line rendering with the offending source line and a caret."""
        # lines split at "\n" alone, as the span counts them; the caret's
        # indent keeps the tabs before the column so that it lines up
        lines = src.split("\n")
        line = lines[self.line_index].removesuffix("\r") if self.line_index < len(lines) else ""
        indent = "".join(c if c == "\t" else " " for c in line[: self.span.column - 1])
        return f"{self}\n  {line}\n  {indent}^"

    @property
    def line_index(self) -> int:
        return self.span.line - 1


def _span(src: str, start: int, end: int) -> SourceSpan:
    """The span of ``src[start:end]``; its line and column count from 1."""
    return SourceSpan(start, end, src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start))


class Token(NamedTuple):
    kind: str  # NUMBER | IDENT | punctuation text | END
    text: str
    start: int  # offsets into the source; line and column are found on error
    end: int


_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>(?:\s+|\#[^\n]*)+)
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT><exists>|<forall>|->|<=|>=|==|!=|\.\.|[\[\]{}(),.@+\-*/!&|<>])
    """,
    re.VERBOSE,
)


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    pos = 0
    for m in _TOKEN_RE.finditer(src):
        start, end = m.span()
        if start != pos:
            break
        pos = end
        kind = m.lastgroup
        if kind != "SKIP":
            text = m.group()
            tokens.append(new(Token, (text if kind == "PUNCT" else kind, text, start, end)))
    if pos < len(src):
        raise ParseError(f"unexpected character {src[pos]!r}", _span(src, pos, pos + 1))
    tokens.append(Token("END", "", pos, pos))
    return tokens


MAX_NESTING = 100
# Integer tokens (time and count bounds, agent indices, state components)
# stay within float range, so horizons can mix them with inf.
_MAX_NAT = Decimal(sys.float_info.max)


class _Parser:
    """Recursive-descent parser over the token stream.

    ``mode`` selects the local or the system-level grammar. Both layers
    build the same Boolean and temporal nodes; the mode only decides the
    leaves (``x[k]`` or ``s[i][k]`` atoms, graph operators, binders).
    """

    def __init__(self, src: str, mode: str):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.mode = mode
        self.depth = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1  # only past a token that was checked, never past END
        return tok

    def at(self, *texts: str) -> bool:
        # a keyword or punctuation text names one token kind: no NUMBER is
        # spelled like an identifier, and only END has empty text
        return self.tokens[self.pos].text in texts

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(f"unexpected {self.describe(tok)}", (what or kind,))
        self.pos += 1
        return tok

    def describe(self, tok: Token) -> str:
        return "end of input" if tok.kind == "END" else repr(tok.text)

    def fail(self, message: str, expected: tuple[str, ...] = (),
             first: Token | None = None, last: Token | None = None):
        """Raise a ParseError over tokens ``first`` to ``last`` (default: the next)."""
        first = first or self.peek()
        raise ParseError(message, _span(self.src, first.start, (last or first).end), expected)

    def nested(self, opener: Token, parse):
        """Run ``parse`` one nesting level deeper, in the level ``opener`` opens."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", first=opener)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parenthesized(self, opener: Token, parse):
        """``"(" parse ")"``, one nesting level deeper, in the level ``opener`` opens."""
        self.expect("(", "'('")
        result = self.nested(opener, parse)
        self.expect(")", "')'")
        return result

    # -- entry ------------------------------------------------------------

    def parse(self):
        f = self.parse_implies()
        if self.peek().kind != "END":
            self.fail(f"unexpected trailing {self.describe(self.peek())}")
        return f

    # -- precedence levels -------------------------------------------------

    def parse_implies(self):
        left = self.parse_or()
        if self.at("->"):
            return Implies(left, self.nested(self.advance(), self.parse_implies))
        return left

    def parse_or(self):
        left = self.parse_and_until()
        while self.at("|"):
            self.advance()
            left = Or(left, self.parse_and_until())
        return left

    def parse_and_until(self):
        left = self.parse_unary()
        while True:
            if self.at("&"):
                self.advance()
                left = And(left, self.parse_unary())
            elif self.at("U"):
                self.advance()
                interval = TimeInterval(*self.parse_interval("time"))
                left = Until(left, self.parse_unary(), interval)
            else:
                return left

    def parse_unary(self):
        if self.at("!"):
            return Not(self.nested(self.advance(), self.parse_unary))
        if self.at("F", "G"):
            tok = self.advance()
            interval = TimeInterval(*self.parse_interval("time"))
            cls = Eventually if tok.text == "F" else Always
            return cls(self.nested(tok, self.parse_unary), interval)
        if self.at("In", "Out"):
            if self.mode == "global":
                self.fail("graph operators belong to the agent-local layer")
            return self.parse_graph_op()
        return self.parse_primary()

    def parse_graph_op(self):
        head = self.advance()
        direction = "in" if head.text == "In" else "out"
        quantifier = "exists"
        if self.at("<exists>", "<forall>"):
            quantifier = self.advance().text.strip("<>")
        self.expect("{", "'{'")
        tags = self.parse_comma_list(self.parse_tag(), self.parse_tag, "graph tag")
        self.expect("}", "'}'")
        if not self.at("E"):
            self.fail(f"unexpected {self.describe(self.peek())}", ("'E'",))
        self.advance()
        counts = self.parse_count_set()
        weights = FULL_WEIGHTS
        if self.at("W"):
            self.advance()
            weights = WeightInterval(*self.parse_interval("weight"))
        child = self.nested(head, self.parse_unary)
        return GraphOp(direction, quantifier, tags, counts, weights, child)

    def parse_count_set(self) -> CountSet:
        intervals = [self.parse_interval("count", empty_ok=True)]
        if intervals[0] is None:
            return CountSet.empty()
        while self.at("u"):
            self.advance()
            intervals.append(self.parse_interval("count"))
        return CountSet(tuple(intervals))

    def parse_tag(self) -> str:
        return self.expect("IDENT", "graph tag").text

    def parse_comma_list(self, first, read, what: str) -> tuple:
        """``first ("," item)*``, each further item from ``read``, none repeated."""
        items = {first: None}
        while self.at(","):
            self.advance()
            tok = self.peek()
            item = read()
            if item in items:
                self.fail(f"duplicate {what} {item!r}", first=tok)
            items[item] = None
        return tuple(items)

    def parse_primary(self):
        tok = self.peek()
        if tok.text in ("true", "false"):
            self.advance()
            return Truth() if tok.text == "true" else Not(Truth())
        if tok.kind == "(":
            return self.parenthesized(tok, self.parse_implies)
        if tok.kind == "[":
            return self.parse_atom()
        if self.mode == "global":
            if tok.kind == "@":
                self.advance()
                agent = self.parse_agent_index()
                self.expect(".", "'.'")
                return AgentBind(agent, self.parse_local_parenthesized(tok))
            if tok.text in ("FA", "EX"):
                self.advance()
                self.expect("{", "'{'")
                agents = self.parse_agent_set()
                self.expect("}", "'}'")
                cls = ForAllAgents if tok.text == "FA" else ExistsAgent
                return cls(agents, self.parse_local_parenthesized(tok))
        self.fail(f"unexpected {self.describe(tok)}", ("formula",))

    def parse_local_parenthesized(self, opener: Token) -> LocalFormula:
        """An agent-local formula in parentheses, bound by a system-level ``opener``."""
        self.mode = "local"
        child = self.parenthesized(opener, self.parse_implies)
        self.mode = "global"
        return child

    def parse_agent_index(self) -> int:
        tok = self.peek()
        value = self.parse_nat("agent index")
        if value < 1:
            self.fail("agent indices start at 1", first=tok)
        return value

    def parse_agent_set(self) -> tuple[int, ...]:
        lo = self.parse_agent_index()
        if self.at(".."):
            self.advance()
            tok = self.peek()
            hi = self.parse_agent_index()
            if hi < lo:
                self.fail(f"agent range reversed: {lo}..{hi}", first=tok)
            return tuple(range(lo, hi + 1))
        return self.parse_comma_list(lo, self.parse_agent_index, "agent")

    # -- atoms and expressions ---------------------------------------------

    _CMP = ("<=", "<", ">=", ">", "==", "!=")

    def parse_atom(self):
        self.expect("[", "'['")
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind not in self._CMP:
            self.fail(f"unexpected {self.describe(tok)}", ("comparison operator",))
        self.advance()
        right = self.parse_expr()
        self.expect("]", "']'")
        return self._desugar_comparison(left, tok.kind, right)

    def _desugar_comparison(self, left: Expr, op: str, right: Expr):
        mk_atom = GlobalAtom if self.mode == "global" else Atom

        def ge(a: Expr, b: Expr):
            # a >= b is canonicalized to (a - b) >= 0; a literal zero on the
            # right is dropped so printing as "expr >= 0" round-trips.
            if isinstance(b, Const) and b.value == 0.0:
                return mk_atom(a)
            return mk_atom(BinOp("-", a, b))

        if op == ">=":
            return ge(left, right)
        if op == "<=":
            return ge(right, left)
        if op == ">":
            return Not(ge(right, left))
        if op == "<":
            return Not(ge(left, right))
        if op == "==":
            return And(ge(left, right), ge(right, left))
        return Not(And(ge(left, right), ge(right, left)))

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        while self.at("+", "-"):
            left = BinOp(self.advance().text, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at("*", "/"):
            left = BinOp(self.advance().text, left, self.parse_factor())
        return left

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Const(-float(self.expect("NUMBER", "number").text))
        if tok.kind == "NUMBER":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "(":
            return self.parenthesized(tok, self.parse_expr)
        if tok.text in ("abs", "sqrt"):
            self.advance()
            return UnaryFn(tok.text, self.parenthesized(tok, self.parse_expr))
        if tok.text in ("min", "max"):
            self.advance()
            return BinFn(tok.text, *self.parenthesized(tok, self.parse_expr_pair))
        if tok.text == "x":
            if self.mode == "global":
                self.fail("x[k] accessors belong to the agent-local layer; use s[i][k]")
            self.advance()
            return StateVar(self.parse_bracketed(self.parse_nat, "state component"))
        if tok.text == "s":
            if self.mode == "local":
                self.fail("s[i][k] accessors belong to the system layer; use x[k]")
            self.advance()
            agent = self.parse_bracketed(self.parse_agent_index)
            return AgentStateVar(agent, self.parse_bracketed(self.parse_nat, "state component"))
        self.fail(f"unexpected {self.describe(tok)}", ("expression",))

    def parse_expr_pair(self) -> tuple[Expr, Expr]:
        a = self.parse_expr()
        self.expect(",", "','")
        return a, self.parse_expr()

    def parse_bracketed(self, read, *args):
        self.expect("[", "'['")
        value = read(*args)
        self.expect("]", "']'")
        return value

    # -- intervals ----------------------------------------------------------

    def parse_nat(self, what: str) -> int:
        tok = self.expect("NUMBER", what)
        value = Decimal(tok.text)  # exact, whatever the exponent
        if value != value.to_integral_value():
            self.fail(f"{what} must be an integer", first=tok)
        if value > _MAX_NAT:
            self.fail(f"{what} too large", first=tok)
        return int(value)

    def parse_interval(self, kind: str, empty_ok: bool = False):
        """A bracketed ``kind`` interval as (lo, hi), or None for ``[]`` where
        ``empty_ok``. Time and count bounds are integers with an optional
        ``inf`` upper bound; weight bounds are signed reals or +-inf."""
        open_tok = self.expect("[", "'['")
        if empty_ok and self.at("]"):
            self.advance()
            return None
        lo = self.parse_bound(kind, upper=False)
        self.expect(",", "','")
        hi = self.parse_bound(kind, upper=True)
        close = self.expect("]", "']'")
        if lo > hi:
            self.fail(f"{kind} interval reversed: [{_fmt_num(lo)}, {_fmt_num(hi)}]",
                      first=open_tok, last=close)
        return lo, hi

    def parse_bound(self, kind: str, upper: bool) -> float:
        if kind != "weight":
            if upper and self.at("inf"):
                self.advance()
                return INF
            return self.parse_nat(f"{kind} bound")
        sign = 1.0
        if self.at("-"):
            self.advance()
            sign = -1.0
        if self.at("inf"):
            self.advance()
            return sign * INF
        return sign * float(self.expect("NUMBER", "number or 'inf'").text)


def parse_local(src: str) -> LocalFormula:
    """Parse an agent-local formula; raises ParseError with a source span."""
    return _Parser(src, "local").parse()


def parse_global(src: str) -> GlobalFormula:
    """Parse a system-level formula; raises ParseError with a source span."""
    return _Parser(src, "global").parse()


# ---------------------------------------------------------------------------
# printing (parse(print_formula(f)) is structurally f)

_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 0, 1, 2, 3


def print_formula(f) -> str:
    """Canonical text of a formula; defaults (exists, full W) are elided."""
    return _render(f, _LEVEL_IMPLIES)


def _render(root, level: int) -> str:
    """Text of a formula or expression node printed where ``level`` binds.

    Each node yields its parts, strings and (subnode, level) pairs, and a
    node binding looser than its place is parenthesized. The parts are
    expanded from one explicit stack, so chains of any length print.
    """
    out: list[str] = []
    stack: list = [(root, level)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        parts, own = (_print_expr_node if isinstance(node, Expr) else _print_node)(node)
        stack.extend(reversed(("(", *parts, ")") if own < level else parts))
    return "".join(out)


def _print_node(f) -> tuple[tuple, int]:
    if isinstance(f, Truth):
        return ("true",), _LEVEL_UNARY + 1
    if isinstance(f, Not):
        if isinstance(f.child, Truth):
            return ("false",), _LEVEL_UNARY + 1
        return ("!", (f.child, _LEVEL_UNARY)), _LEVEL_UNARY
    if isinstance(f, (Atom, GlobalAtom)):
        return _print_atom(f.expr), _LEVEL_UNARY + 1
    if isinstance(f, And):
        return ((f.left, _LEVEL_AND), " & ", (f.right, _LEVEL_AND + 1)), _LEVEL_AND
    if isinstance(f, Or):
        return ((f.left, _LEVEL_OR), " | ", (f.right, _LEVEL_OR + 1)), _LEVEL_OR
    if isinstance(f, Implies):
        return ((f.left, _LEVEL_OR), " -> ", (f.right, _LEVEL_IMPLIES)), _LEVEL_IMPLIES
    if isinstance(f, Until):
        return (
            (f.left, _LEVEL_AND),
            " U" + _print_tint(f.interval) + " ",
            (f.right, _LEVEL_AND + 1),
        ), _LEVEL_AND
    if isinstance(f, (Eventually, Always)):
        op = "F" if isinstance(f, Eventually) else "G"
        return (op + _print_tint(f.interval) + " ", (f.child, _LEVEL_UNARY)), _LEVEL_UNARY
    if isinstance(f, GraphOp):
        head = "In" if f.direction == "in" else "Out"
        if f.quantifier == "forall":
            head += "<forall>"
        head += "{" + ",".join(f.graphs) + "}"
        head += " E" + _print_cset(f.counts)
        if f.weights != FULL_WEIGHTS:
            head += " W[" + _fmt_num(f.weights.lo) + "," + _fmt_num(f.weights.hi) + "]"
        return (head + " ", (f.child, _LEVEL_UNARY)), _LEVEL_UNARY
    if isinstance(f, AgentBind):
        return (f"@{f.agent}.(", (f.child, _LEVEL_IMPLIES), ")"), _LEVEL_UNARY + 1
    if isinstance(f, (ForAllAgents, ExistsAgent)):
        head = "FA" if isinstance(f, ForAllAgents) else "EX"
        return (
            f"{head}{{{_print_agents(f.agents)}}}(", (f.child, _LEVEL_IMPLIES), ")"
        ), _LEVEL_UNARY + 1
    raise TypeError(f"not a formula: {f!r}")


def _print_agents(agents: tuple[int, ...]) -> str:
    if len(agents) >= 2 and agents == tuple(range(agents[0], agents[-1] + 1)):
        return f"{agents[0]}..{agents[-1]}"
    return ",".join(str(a) for a in agents)


def _print_atom(expr: Expr) -> tuple:
    # (a - b) >= 0 prints as the comparison it came from; anything else
    # prints against a literal zero. Both forms re-parse to the same tree.
    if isinstance(expr, BinOp) and expr.op == "-":
        right = expr.right
        if not (isinstance(right, Const) and right.value == 0.0):
            return ("[", (expr.left, 1), " >= ", (right, 1), "]")
    return ("[", (expr, 1), " >= 0]")


def _print_tint(i: TimeInterval) -> str:
    return f"[{i.lo},{_fmt_num(i.hi)}]"


def _print_cset(cs: CountSet) -> str:
    if cs.is_empty():
        return "[]"
    return "u".join(f"[{lo},{_fmt_num(hi)}]" for lo, hi in cs.intervals)


def _fmt_num(v: float) -> str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    if isinstance(v, int) or float(v) == int(v):
        return str(int(v))
    return repr(float(v))


_EXPR_ADD, _EXPR_MUL, _EXPR_LEAF = 1, 2, 3


def _print_expr_node(e: Expr) -> tuple[tuple, int]:
    if isinstance(e, Const):
        # negative literals bind like a leaf ("-5"); they only need parens
        # when they would fuse with a preceding operator, which spacing avoids
        return (_fmt_num(e.value),), _EXPR_LEAF if e.value >= 0 else _EXPR_MUL
    if isinstance(e, StateVar):
        return (f"x[{e.index}]",), _EXPR_LEAF
    if isinstance(e, AgentStateVar):
        return (f"s[{e.agent}][{e.index}]",), _EXPR_LEAF
    if isinstance(e, BinOp):
        own = _EXPR_ADD if e.op in ("+", "-") else _EXPR_MUL
        return ((e.left, own), f" {e.op} ", (e.right, own + 1)), own
    if isinstance(e, UnaryFn):
        return (f"{e.fn}(", (e.arg, _EXPR_ADD), ")"), _EXPR_LEAF
    if isinstance(e, BinFn):
        return (f"{e.fn}(", (e.left, _EXPR_ADD), ", ", (e.right, _EXPR_ADD), ")"), _EXPR_LEAF
    raise TypeError(f"not an expression: {e!r}")
