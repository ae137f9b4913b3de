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
opens the level past the limit. A formula at the limit still lowers,
monitors and prints within Python's default recursion limit.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal

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
        lines = src.splitlines() or [""]
        line = lines[self.line_index] if self.line_index < len(lines) else ""
        caret = " " * (self.span.column - 1) + "^"
        return f"{self}\n  {line}\n  {caret}"

    @property
    def line_index(self) -> int:
        return self.span.line - 1


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | punctuation text | END
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT><exists>|<forall>|->|<=|>=|==|!=|\.\.|[\[\]{}(),.@+\-*/!&|<>])
    """,
    re.VERBOSE,
)


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {src[pos]!r}", span)
        kind = m.lastgroup
        text = m.group()
        if kind in ("WS", "COMMENT"):
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = m.start() + text.rindex("\n") + 1
        else:
            span = SourceSpan(m.start(), m.end(), line, m.start() - line_start + 1)
            if kind == "PUNCT":
                tokens.append(Token(text, text, span))
            else:
                tokens.append(Token(kind, text, span))
        pos = m.end()
    tokens.append(Token("END", "", SourceSpan(n, n, line, n - line_start + 1)))
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

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"unexpected {self.describe(tok)}", (what or kind,))
        return self.advance()

    def describe(self, tok: Token) -> str:
        return "end of input" if tok.kind == "END" else repr(tok.text)

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        raise ParseError(message, self.peek().span, expected)

    def nested(self, opener: Token, parse):
        """Run ``parse`` one nesting level deeper, in the level ``opener`` opens."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.span)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    # -- entry ------------------------------------------------------------

    def parse(self):
        f = self.parse_implies()
        if not self.at("END"):
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
            elif self.at("IDENT", "U"):
                self.advance()
                interval = self.parse_time_interval()
                left = Until(left, self.parse_unary(), interval)
            else:
                return left

    def parse_unary(self):
        if self.at("!"):
            return Not(self.nested(self.advance(), self.parse_unary))
        if self.at("IDENT", "F"):
            tok = self.advance()
            interval = self.parse_time_interval()
            return Eventually(self.nested(tok, self.parse_unary), interval)
        if self.at("IDENT", "G"):
            tok = self.advance()
            interval = self.parse_time_interval()
            return Always(self.nested(tok, self.parse_unary), interval)
        if self.at("IDENT", "In") or self.at("IDENT", "Out"):
            if self.mode == "global":
                self.fail("graph operators belong to the agent-local layer")
            return self.parse_graph_op()
        return self.parse_primary()

    def parse_graph_op(self):
        head = self.advance()
        direction = "in" if head.text == "In" else "out"
        quantifier = "exists"
        if self.at("<exists>") or self.at("<forall>"):
            quantifier = self.advance().text.strip("<>")
        self.expect("{", "'{'")
        tag_tok = self.expect("IDENT", "graph tag")
        tags = [tag_tok.text]
        while self.at(","):
            self.advance()
            tag_tok = self.expect("IDENT", "graph tag")
            if tag_tok.text in tags:
                raise ParseError(f"duplicate graph tag {tag_tok.text!r}", tag_tok.span)
            tags.append(tag_tok.text)
        self.expect("}", "'}'")
        if not self.at("IDENT", "E"):
            self.fail(f"unexpected {self.describe(self.peek())}", ("'E'",))
        self.advance()
        counts = self.parse_count_set()
        weights = FULL_WEIGHTS
        if self.at("IDENT", "W"):
            self.advance()
            weights = self.parse_weight_interval()
        child = self.nested(head, self.parse_unary)
        return GraphOp(direction, quantifier, tuple(tags), counts, weights, child)

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "true":
            self.advance()
            return Truth()
        if tok.kind == "IDENT" and tok.text == "false":
            self.advance()
            return Not(Truth())
        if tok.kind == "(":
            self.advance()
            f = self.nested(tok, self.parse_implies)
            self.expect(")", "')'")
            return f
        if tok.kind == "[":
            return self.parse_atom()
        if self.mode == "global":
            if tok.kind == "@":
                self.advance()
                agent = self.parse_agent_index()
                self.expect(".", "'.'")
                self.expect("(", "'('")
                child = self.nested(tok, self.parse_local_subformula)
                self.expect(")", "')'")
                return AgentBind(agent, child)
            if tok.kind == "IDENT" and tok.text in ("FA", "EX"):
                self.advance()
                self.expect("{", "'{'")
                agents = self.parse_agent_set()
                self.expect("}", "'}'")
                self.expect("(", "'('")
                child = self.nested(tok, self.parse_local_subformula)
                self.expect(")", "')'")
                cls = ForAllAgents if tok.text == "FA" else ExistsAgent
                return cls(agents, child)
        self.fail(f"unexpected {self.describe(tok)}", ("formula",))

    def parse_local_subformula(self) -> LocalFormula:
        saved = self.mode
        self.mode = "local"
        try:
            return self.parse_implies()
        finally:
            self.mode = saved

    def parse_agent_index(self) -> int:
        tok = self.peek()
        value = self.parse_nat("agent index")
        if value < 1:
            raise ParseError("agent indices start at 1", tok.span)
        return value

    def parse_agent_set(self) -> tuple[int, ...]:
        first = self.parse_agent_index()
        if self.at(".."):
            self.advance()
            span_start = self.peek().span
            last = self.parse_agent_index()
            if last < first:
                raise ParseError(f"agent range reversed: {first}..{last}", span_start)
            return tuple(range(first, last + 1))
        agents = [first]
        while self.at(","):
            self.advance()
            tok = self.peek()
            agent = self.parse_agent_index()
            if agent in agents:
                raise ParseError(f"duplicate agent {agent}", tok.span)
            agents.append(agent)
        return tuple(agents)

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
        while self.at("+") or self.at("-"):
            op = self.advance().text
            right = self.parse_term()
            left = BinOp(op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at("*") or self.at("/"):
            op = self.advance().text
            right = self.parse_factor()
            left = BinOp(op, left, right)
        return left

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            num = self.expect("NUMBER", "number")
            return Const(-float(num.text))
        if tok.kind == "NUMBER":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.advance()
            e = self.nested(tok, self.parse_expr)
            self.expect(")", "')'")
            return e
        if tok.kind == "IDENT" and tok.text in ("abs", "sqrt"):
            self.advance()
            self.expect("(", "'('")
            arg = self.nested(tok, self.parse_expr)
            self.expect(")", "')'")
            return UnaryFn(tok.text, arg)
        if tok.kind == "IDENT" and tok.text in ("min", "max"):
            self.advance()
            self.expect("(", "'('")
            a = self.nested(tok, self.parse_expr)
            self.expect(",", "','")
            b = self.nested(tok, self.parse_expr)
            self.expect(")", "')'")
            return BinFn(tok.text, a, b)
        if tok.kind == "IDENT" and tok.text == "x":
            if self.mode == "global":
                self.fail("x[k] accessors belong to the agent-local layer; use s[i][k]")
            self.advance()
            self.expect("[", "'['")
            k = self.parse_nat("state component")
            self.expect("]", "']'")
            return StateVar(k)
        if tok.kind == "IDENT" and tok.text == "s":
            if self.mode == "local":
                self.fail("s[i][k] accessors belong to the system layer; use x[k]")
            self.advance()
            self.expect("[", "'['")
            agent = self.parse_agent_index()
            self.expect("]", "']'")
            self.expect("[", "'['")
            k = self.parse_nat("state component")
            self.expect("]", "']'")
            return AgentStateVar(agent, k)
        self.fail(f"unexpected {self.describe(tok)}", ("expression",))

    # -- intervals ----------------------------------------------------------

    def parse_nat(self, what: str) -> int:
        tok = self.expect("NUMBER", what)
        value = Decimal(tok.text)  # exact, whatever the exponent
        if value != value.to_integral_value():
            raise ParseError(f"{what} must be an integer", tok.span)
        if value > _MAX_NAT:
            raise ParseError(f"{what} too large", tok.span)
        return int(value)

    def parse_time_interval(self) -> TimeInterval:
        open_tok = self.expect("[", "'['")
        lo = self.parse_nat("time bound")
        self.expect(",", "','")
        if self.at("IDENT", "inf"):
            self.advance()
            hi: float = INF
        else:
            hi = self.parse_nat("time bound")
        close = self.expect("]", "']'")
        if lo > hi:
            raise ParseError(
                f"time interval reversed: [{lo}, {_fmt_num(hi)}]",
                _join_spans(open_tok.span, close.span),
            )
        return TimeInterval(lo, hi)

    def parse_weight_interval(self) -> WeightInterval:
        open_tok = self.expect("[", "'['")
        lo = self.parse_signed_num()
        self.expect(",", "','")
        hi = self.parse_signed_num()
        close = self.expect("]", "']'")
        if lo > hi:
            raise ParseError(
                f"weight interval reversed: [{_fmt_num(lo)}, {_fmt_num(hi)}]",
                _join_spans(open_tok.span, close.span),
            )
        return WeightInterval(lo, hi)

    def parse_signed_num(self) -> float:
        sign = 1.0
        if self.at("-"):
            self.advance()
            sign = -1.0
        if self.at("IDENT", "inf"):
            self.advance()
            return sign * INF
        tok = self.expect("NUMBER", "number or 'inf'")
        return sign * float(tok.text)

    def parse_count_set(self) -> CountSet:
        intervals = [self.parse_count_interval(allow_empty=True)]
        if intervals[0] is None:
            return CountSet.empty()
        while self.at("IDENT", "u"):
            self.advance()
            intervals.append(self.parse_count_interval(allow_empty=False))
        return CountSet(tuple(intervals))

    def parse_count_interval(self, allow_empty: bool):
        open_tok = self.expect("[", "'['")
        if allow_empty and self.at("]"):
            self.advance()
            return None
        lo = self.parse_nat("count bound")
        self.expect(",", "','")
        if self.at("IDENT", "inf"):
            self.advance()
            hi: float = INF
        else:
            hi = self.parse_nat("count bound")
        close = self.expect("]", "']'")
        if lo > hi:
            raise ParseError(
                f"count interval reversed: [{lo}, {_fmt_num(hi)}]",
                _join_spans(open_tok.span, close.span),
            )
        return (lo, hi)


def _join_spans(a: SourceSpan, b: SourceSpan) -> SourceSpan:
    return SourceSpan(a.start, b.end, a.line, a.column)


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
    return _print(f, _LEVEL_IMPLIES)


def _print(f, level: int) -> str:
    s, own = _print_node(f)
    return f"({s})" if own < level else s


def _print_node(f) -> tuple[str, int]:
    if isinstance(f, Truth):
        return "true", _LEVEL_UNARY + 1
    if isinstance(f, Not):
        if isinstance(f.child, Truth):
            return "false", _LEVEL_UNARY + 1
        return "!" + _print(f.child, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, (Atom, GlobalAtom)):
        return _print_atom(f.expr), _LEVEL_UNARY + 1
    if isinstance(f, And):
        return (
            _print(f.left, _LEVEL_AND) + " & " + _print(f.right, _LEVEL_AND + 1),
            _LEVEL_AND,
        )
    if isinstance(f, Or):
        return (
            _print(f.left, _LEVEL_OR) + " | " + _print(f.right, _LEVEL_OR + 1),
            _LEVEL_OR,
        )
    if isinstance(f, Implies):
        return (
            _print(f.left, _LEVEL_OR) + " -> " + _print(f.right, _LEVEL_IMPLIES),
            _LEVEL_IMPLIES,
        )
    if isinstance(f, Until):
        return (
            _print(f.left, _LEVEL_AND)
            + " U"
            + _print_tint(f.interval)
            + " "
            + _print(f.right, _LEVEL_AND + 1),
            _LEVEL_AND,
        )
    if isinstance(f, Eventually):
        return "F" + _print_tint(f.interval) + " " + _print(f.child, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, Always):
        return "G" + _print_tint(f.interval) + " " + _print(f.child, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, GraphOp):
        head = "In" if f.direction == "in" else "Out"
        if f.quantifier == "forall":
            head += "<forall>"
        head += "{" + ",".join(f.graphs) + "}"
        head += " E" + _print_cset(f.counts)
        if f.weights != FULL_WEIGHTS:
            head += " W[" + _fmt_num(f.weights.lo) + "," + _fmt_num(f.weights.hi) + "]"
        return head + " " + _print(f.child, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(f, AgentBind):
        return f"@{f.agent}.({print_formula(f.child)})", _LEVEL_UNARY + 1
    if isinstance(f, (ForAllAgents, ExistsAgent)):
        head = "FA" if isinstance(f, ForAllAgents) else "EX"
        return f"{head}{{{_print_agents(f.agents)}}}({print_formula(f.child)})", _LEVEL_UNARY + 1
    raise TypeError(f"not a formula: {f!r}")


def _print_agents(agents: tuple[int, ...]) -> str:
    if len(agents) >= 2 and agents == tuple(range(agents[0], agents[-1] + 1)):
        return f"{agents[0]}..{agents[-1]}"
    return ",".join(str(a) for a in agents)


def _print_atom(expr: Expr) -> str:
    # (a - b) >= 0 prints as the comparison it came from; anything else
    # prints against a literal zero. Both forms re-parse to the same tree.
    if isinstance(expr, BinOp) and expr.op == "-":
        right = expr.right
        if not (isinstance(right, Const) and right.value == 0.0):
            return f"[{_print_expr(expr.left, 1)} >= {_print_expr(right, 1)}]"
    return f"[{_print_expr(expr, 1)} >= 0]"


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


def _print_expr(e: Expr, level: int) -> str:
    s, own = _print_expr_node(e)
    return f"({s})" if own < level else s


def _print_expr_node(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        # negative literals bind like a leaf ("-5"); they only need parens
        # when they would fuse with a preceding operator, which spacing avoids
        return _fmt_num(e.value), _EXPR_LEAF if e.value >= 0 else _EXPR_MUL
    if isinstance(e, StateVar):
        return f"x[{e.index}]", _EXPR_LEAF
    if isinstance(e, AgentStateVar):
        return f"s[{e.agent}][{e.index}]", _EXPR_LEAF
    if isinstance(e, BinOp):
        if e.op in ("+", "-"):
            return (
                _print_expr(e.left, _EXPR_ADD)
                + f" {e.op} "
                + _print_expr(e.right, _EXPR_ADD + 1),
                _EXPR_ADD,
            )
        return (
            _print_expr(e.left, _EXPR_MUL)
            + f" {e.op} "
            + _print_expr(e.right, _EXPR_MUL + 1),
            _EXPR_MUL,
        )
    if isinstance(e, UnaryFn):
        return f"{e.fn}({_print_expr(e.arg, _EXPR_ADD)})", _EXPR_LEAF
    if isinstance(e, BinFn):
        return (
            f"{e.fn}({_print_expr(e.left, _EXPR_ADD)}, {_print_expr(e.right, _EXPR_ADD)})",
            _EXPR_LEAF,
        )
    raise TypeError(f"not an expression: {e!r}")
