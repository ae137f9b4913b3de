"""A recursive interpreter of predicate-function expressions, used only by
tests.

``reference_eval`` transcribes the expression semantics node by node:
operands left before right, the builtins ``min``, ``max`` and ``abs`` with
their operands in the written order, and the same ValueError texts for a
division by zero and the sqrt of a negative value. ``formula.compile_expr``
must give the same float, bit for bit, and raise the same errors.
"""

from __future__ import annotations

import math

from stlgo.formula import AgentStateVar, BinFn, BinOp, Const, StateVar, UnaryFn


def reference_eval(e, x) -> float:
    """The value of expression e over x, an agent's state vector (for
    ``StateVar``) or a time slice of them (for ``AgentStateVar``)."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is StateVar:
        return x[e.index]
    if kind is AgentStateVar:
        return x[e.agent - 1][e.index]
    if kind is UnaryFn:
        a = reference_eval(e.arg, x)
        if e.fn == "abs":
            return abs(a)
        if a < 0:
            raise ValueError("sqrt of a negative value in predicate function")
        return math.sqrt(a)
    a = reference_eval(e.left, x)
    b = reference_eval(e.right, x)
    op = e.op if kind is BinOp else e.fn
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ValueError("division by zero in predicate function")
        return a / b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    raise TypeError(f"not an expression: {e!r}")
