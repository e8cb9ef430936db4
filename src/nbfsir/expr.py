"""Arithmetic expression language for state-dependent feedback terms.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            # right-associative
    atom   := number | variable | '(' expr ')' | func '(' expr (',' expr)? ')'

Variables are ``x1..xn`` and ``y1..yn`` (1-based).  Functions: ``exp``,
``log``, ``sqrt``, ``abs`` take one argument; ``min``, ``max`` take two.
Precedence, loosest to tightest: ``+ -``, then ``* /``, then unary
minus, then ``^``.  Unary minus binds looser than exponentiation, so
``-x1^2`` parses as ``-(x1^2)``.

Scalar mode (:func:`parse_scalar`) accepts the same grammar over a
single variable, spelled ``u``, ``x``, ``y``, ``x1`` or ``y1``; all
spellings normalize to the same node and pretty-print as ``u``.

Evaluation is numpy-aware: variables may hold scalars or arrays of any
matching leading shape, and all operators broadcast.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Node",
    "parse_expression",
    "parse_scalar",
    "evaluate",
    "evaluate_scalar",
    "pretty",
    "variables",
]

_FUNCTIONS_1 = ("exp", "log", "sqrt", "abs")
_FUNCTIONS_2 = ("min", "max")
_FUNCTIONS = _FUNCTIONS_1 + _FUNCTIONS_2


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    axis: str   # 'x', 'y', or 'u' (scalar mode)
    index: int  # 1-based; always 1 in scalar mode


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Node = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # skip leading whitespace manually to report the right offset
            stripped = source[pos:].lstrip()
            offset = len(source) - len(stripped)
            raise ExpressionSyntaxError(
                f"syntax error: unexpected character {source[offset]!r}", offset
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


_VAR_RE = re.compile(r"^([xy])([0-9]+)$")
_SCALAR_NAMES = ("u", "x", "y", "x1", "y1")


class _Parser:
    """Recursive-descent parser over the token list.

    ``n`` is the subpopulation count in vector mode; ``n is None``
    selects scalar mode.
    """

    def __init__(self, source: str, n: int | None):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        kind, text, offset = self.peek()
        found = "end of input" if kind == "end" else repr(text)
        raise ExpressionSyntaxError(
            f"syntax error: expected {expected}, found {found}", offset
        )

    def expect_op(self, op: str):
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.fail(f"'{op}'")

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(
                f"syntax error: unexpected trailing input {text!r}", offset
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # exponent is a unary so x^-2 works; recursion keeps ^ right-associative
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            self.advance()
            if text in _FUNCTIONS:
                self.expect_op("(")
                first = self.expr()
                if text in _FUNCTIONS_2:
                    self.expect_op(",")
                    second = self.expr()
                    self.expect_op(")")
                    return Call(text, (first, second))
                self.expect_op(")")
                return Call(text, (first,))
            return self.variable(text, offset)
        self.fail("a number, variable, '(' or function")

    def variable(self, name: str, offset: int) -> Node:
        if self.n is None:
            if name in _SCALAR_NAMES:
                return Var("u", 1)
            raise ExpressionSyntaxError(
                f"unknown identifier {name!r}: scalar functions use the "
                "variable 'u' (or 'x'/'y')", offset
            )
        m = _VAR_RE.match(name)
        if m is None:
            raise ExpressionSyntaxError(
                f"unknown identifier {name!r}: variables are x1..x{self.n} "
                f"and y1..y{self.n}", offset
            )
        axis, digits = m.group(1), m.group(2)
        index = int(digits)
        if not 1 <= index <= self.n:
            raise ExpressionSyntaxError(
                f"variable index out of range: {name!r} with n={self.n}", offset
            )
        return Var(axis, index)


def parse_expression(source: str, n: int) -> Node:
    """Parse an expression over x1..xn, y1..yn.

    Raises ExpressionSyntaxError with the byte offset of the fault.
    """
    if n < 1:
        raise ExpressionSyntaxError("n must be at least 1", 0)
    return _Parser(source, n).parse()


def parse_scalar(source: str) -> Node:
    """Parse a single-variable expression (node functions g and f)."""
    return _Parser(source, None).parse()


def _eval(node: Node, x, y):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        base = x if node.axis in ("x", "u") else y
        return base[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval(node.operand, x, y)
    if isinstance(node, BinOp):
        left = _eval(node.left, x, y)
        right = _eval(node.right, x, y)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        return np.power(left, right)
    fn = {
        "exp": np.exp,
        "log": np.log,
        "sqrt": np.sqrt,
        "abs": np.abs,
        "min": np.minimum,
        "max": np.maximum,
    }[node.func]
    return fn(*(_eval(arg, x, y) for arg in node.args))


def evaluate(node: Node, x, y):
    """Evaluate over state arrays of shape (..., n).

    Division by zero, log of a nonpositive value, sqrt of a negative
    value, or any other domain fault raises EvaluationError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            out = _eval(node, x, y)
    except FloatingPointError as exc:
        raise EvaluationError(
            f"expression evaluation failed ({exc}) in {pretty(node)!r}"
        ) from exc
    return np.asarray(out, dtype=float) + np.zeros(x.shape[:-1])


def evaluate_scalar(node: Node, u):
    """Evaluate a scalar-mode expression at u (scalar or any-shape array)."""
    u = np.asarray(u, dtype=float)[..., None]
    return evaluate(node, u, u)


# precedence levels used by the printer; atoms sit above every operator
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _ATOM_PREC


def _fmt_number(value: float) -> str:
    text = format(value, ".17g")
    return text


def pretty(node: Node) -> str:
    """Render with minimal parentheses; parse(pretty(a)) == a structurally."""
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return "u" if node.axis == "u" else f"{node.axis}{node.index}"
    if isinstance(node, Neg):
        inner = pretty(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(pretty(a) for a in node.args)})"
    op = node.op
    left, right = pretty(node.left), pretty(node.right)
    if op == "^":
        # left operand must be an atom; exponent may be a unary chain
        if _prec(node.left) < _ATOM_PREC:
            left = f"({left})"
        if _prec(node.right) < _PREC["neg"]:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(node.left) < _PREC[op]:
        left = f"({left})"
    # left-associative: a right operand at the same level needs parens
    if _prec(node.right) <= _PREC[op]:
        right = f"({right})"
    if op in "+-":
        return f"{left} {op} {right}"
    return f"{left}{op}{right}"


def variables(node: Node) -> set[tuple[str, int]]:
    """Set of (axis, index) pairs referenced by the expression."""
    if isinstance(node, Var):
        return {(node.axis, node.index)}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out: set[tuple[str, int]] = set()
        for arg in node.args:
            out |= variables(arg)
        return out
    return set()
