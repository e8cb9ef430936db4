"""Arithmetic expression language for state-dependent feedback terms.

The language is two tables, read by the parser (precedence climbing),
the printer and the evaluator alike: ``_BINARY`` gives each binary
operator its precedence level and operation, and ``_FUNCTIONS``
gives each function its numpy ufunc, whose ``nin`` is its arity.

Grammar (whitespace-insensitive); ``expr(k)`` reads the operators of
level ``k`` and above::

    expr(k) := unary (op expr(k'))*    # k' = op's level + 1; its level for ^
    unary   := '-' expr(4) | atom
    atom    := number | variable | '(' expr(1) ')'
             | func '(' expr(1) (',' expr(1))* ')'

Levels, loosest to tightest: ``+ -`` (1), ``* /`` (2), unary minus (3),
``^`` (4, right-associative).  So ``-x1^2`` parses as ``-(x1^2)``, and
an exponent may open with a minus (``x1^-2``).

Variables are ``x1..xn`` and ``y1..yn`` (1-based).  Functions: ``exp``,
``log``, ``sqrt``, ``abs`` take one argument; ``min``, ``max`` take two.
A numeric literal beyond the float range is a syntax error, and so is
an expression nested deeper than ``_MAX_DEPTH`` levels: a tree that
deep, or parentheses, calls and operands nested that deep in the source
(a chain of k operators, such as ``u+u+u``, is k + 1 levels deep).

Scalar mode (:func:`parse_scalar`) accepts the same grammar over a
single variable, spelled ``u``, ``x``, ``y``, ``x1`` or ``y1``; all
spellings normalize to the same node and pretty-print as ``u``.

Evaluation is numpy-aware: variables may hold scalars or arrays of any
matching leading shape, and all operators broadcast.
"""

from __future__ import annotations

import math
import operator
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

# binary operator -> (precedence level, operation); ^ alone is
# right-associative.  Unary minus sits at _NEG and atoms above every level.
_BINARY = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    "^": (4, np.power),
}
_NEG = 3
_ATOM = 5

# the deepest expression accepted.  The printer and the evaluator recurse
# two frames a level through a call; evaluation in a screen's pool worker,
# their deepest call site, manages 483 nested calls under CPython 3.11's
# default recursion limit of 1000.  The parser takes three frames a level.
_MAX_DEPTH = 200
_TOO_DEEP = "syntax error: expression nested too deeply"

# function name -> numpy ufunc; the ufunc's nin is the function's arity
_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}


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
    pos, end = 0, len(source.rstrip())  # trailing whitespace is no token
    while pos < end:
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
    """Precedence-climbing parser over the token list.

    ``n`` is the subpopulation count in vector mode; ``n is None``
    selects scalar mode.
    """

    def __init__(self, source: str, n: int | None):
        if not isinstance(source, str):
            raise ExpressionSyntaxError(
                f"an expression must be a string, got {type(source).__name__}", 0)
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n = n
        self.depth = 0  # expr calls open now

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
        # an operator chain is built in a loop: deep without nesting
        if _depth(node) > _MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, 0)
        return node

    def expr(self, floor: int = 1) -> Node:
        """Precedence climbing: a unary, then every binary operator whose
        level is at least floor, each with its right operand."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, self.peek()[2])
        node = self.unary()
        while True:
            _, text, _ = self.peek()
            # only an op token can spell an operator; others read level 0
            level = _BINARY[text][0] if text in _BINARY else 0
            if level < floor:
                self.depth -= 1
                return node
            self.advance()
            node = BinOp(text, node, self.expr(level if text == "^" else level + 1))

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.expr(_NEG + 1))
        return self.atom()

    def atom(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            value = float(text)
            if math.isinf(value):
                raise ExpressionSyntaxError(
                    f"number {text!r} is beyond the float range", offset)
            return Num(value)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            self.advance()
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                for _ in range(1, _FUNCTIONS[text].nin):
                    self.expect_op(",")
                    args.append(self.expr())
                self.expect_op(")")
                return Call(text, tuple(args))
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


def _depth(node: Node) -> int:
    """The tree's depth, counted level by level without recursion."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [child for item in level for child in (
            (item.operand,) if isinstance(item, Neg)
            else (item.left, item.right) if isinstance(item, BinOp)
            else item.args if isinstance(item, Call) else ())]
    return depth


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
        return _BINARY[node.op][1](_eval(node.left, x, y), _eval(node.right, x, y))
    return _FUNCTIONS[node.func](*(_eval(arg, x, y) for arg in node.args))


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


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _BINARY[node.op][0]
    if isinstance(node, Neg):
        return _NEG
    return _ATOM


def pretty(node: Node) -> str:
    """Render with minimal parentheses; parse(pretty(a)) == a structurally."""
    if isinstance(node, Num):
        return format(node.value, ".17g")
    if isinstance(node, Var):
        return "u" if node.axis == "u" else f"{node.axis}{node.index}"
    if isinstance(node, Neg):
        inner = pretty(node.operand)
        return f"-({inner})" if _prec(node.operand) < _NEG else f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(pretty(a) for a in node.args)})"
    level = _BINARY[node.op][0]
    # the parser's operand floors: the left operand at this level and the
    # right at the next, but for ^ an atom on the left and this level on
    # the right; a right operand may open with unary minus
    left_floor, right_floor = (_ATOM, level) if node.op == "^" else (level, level + 1)
    left, right = pretty(node.left), pretty(node.right)
    if _prec(node.left) < left_floor:
        left = f"({left})"
    if _prec(node.right) < right_floor and not isinstance(node.right, Neg):
        right = f"({right})"
    if level == 1:
        return f"{left} {node.op} {right}"
    return f"{left}{node.op}{right}"


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
