"""Tiny expression language for scalar functions of one nonnegative variable.

Weights, custom nonlinearities and custom operator profiles are given in
config files as strings like ``"6/(1+r^2)"`` or ``"c*min(r, 4)"``.  An
expression has exactly one free variable (any identifier that is not a
function name and not a bound parameter).  A named parameter is a slot in
the tree, and its value is part of the ``Expr``, so the points of a
parameter sweep share one tree and each binds its own values.

Evaluation is strict about domains: any operation that would produce a
non-finite or complex value (division by zero, ln of a nonpositive number,
negative base with fractional exponent, overflow) raises DomainError
instead of silently returning nan/inf.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from ._memo import BoundedCache

__all__ = [
    "Expr",
    "ExprError",
    "SyntaxError_",
    "NameError_",
    "ArityError",
    "NumberError",
    "DomainError",
    "parse",
]


class ExprError(ValueError):
    """Base class for expression-language failures."""


class _LocatedError(ExprError):
    """A failure at a character offset of the source, kept as ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class SyntaxError_(_LocatedError):
    """Source that does not parse."""


class NameError_(_LocatedError):
    """An identifier after the free variable is bound to another."""


class ArityError(_LocatedError):
    """A function called with the wrong number of arguments."""


class NumberError(_LocatedError):
    """A number literal or a parameter value that is not finite."""


class DomainError(ExprError):
    """Evaluation left the real domain or overflowed."""


# ---------------------------------------------------------------------------
# AST nodes (immutable; shared freely between threads)

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Var:
    pass


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
    name: str
    args: tuple


Node = Union[Num, Param, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "sinh": 1,
    "asinh": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> tuple:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if source[pos:].strip() == "":
                break
            raise SyntaxError_(f"unexpected character {source[pos:].lstrip()[0]!r}", pos)
        # the kind is the name of the one group that matched
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tuple(tokens)


class _Parser:
    def __init__(self, tokens, names: tuple):
        self.tokens = tokens
        self.i = 0
        self.names = names
        self.variable = None

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise SyntaxError_(f"expected {symbol!r}", pos)
        return self.advance()

    def parse_expression(self) -> Node:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        if kind == "op" and text == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_primary()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_primary(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            if math.isinf(value := float(text)):
                raise NumberError(f"number {text} overflows a float", pos)
            return Num(value)
        if kind == "op" and text == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in _FUNCTIONS:
                return self.parse_call(text, pos)
            if text in self.names:
                return Param(text)
            if self.variable is None:
                self.variable = text
                return Var()
            if text == self.variable:
                return Var()
            raise NameError_(
                f"unknown identifier {text!r} (variable already bound to {self.variable!r})",
                pos,
            )
        raise SyntaxError_("expected a value", pos)

    def parse_call(self, name: str, pos: int) -> Node:
        self.expect_op("(")
        args = [self.parse_expression()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.parse_expression())
            else:
                break
        self.expect_op(")")
        want = _FUNCTIONS[name]
        if len(args) != want:
            raise ArityError(f"{name} takes {want} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))


# (root, variable name) by source and parameter names, shared by the points
# of a sweep
_TREES = BoundedCache(64)


def parse(source: str, params: Mapping[str, float] | None = None) -> "Expr":
    """Parse ``source`` into an Expr.

    Each name of ``params`` is a slot, bound to its value in the Expr.  The
    free variable is the first identifier that is neither a function nor a
    parameter; a second distinct identifier is an error.
    """
    if not isinstance(source, str) or source.strip() == "":
        raise SyntaxError_("empty expression", 0)
    names = tuple(sorted(params or ()))
    def tree():
        parser = _Parser(_tokenize(source), names)
        root = parser.parse_expression()
        kind, text, pos = parser.peek()
        if kind != "eof":
            raise SyntaxError_(f"unexpected trailing {text!r}", pos)
        return root, parser.variable or "r"
    root, variable = _TREES.get((source, names), tree)
    values = tuple((name, float(params[name])) for name in names)
    for name, value in values:
        if not math.isfinite(value):  # located at its first use
            pos = next((p for k, t, p in _tokenize(source) if (k, t) == ("ident", name)), 0)
            raise NumberError(f"parameter {name!r} is {value!r}, not a finite number", pos)
    return Expr(root, variable, source, values)


# ---------------------------------------------------------------------------
# Evaluation

def _check_finite(value, what: str):
    if not np.isfinite(value).all():
        raise DomainError(f"{what} produced a non-finite value")
    return value


def _eval_node(node: Node, x, values: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Param):
        return values[node.name]
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval_node(node.operand, x, values)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, x, values)
        b = _eval_node(node.right, x, values)
        if node.op == "+":
            return _check_finite(np.add(a, b), "addition")
        if node.op == "-":
            return _check_finite(np.subtract(a, b), "subtraction")
        if node.op == "*":
            return _check_finite(np.multiply(a, b), "multiplication")
        if node.op == "/":
            if np.any(b == 0):
                raise DomainError("division by zero")
            return _check_finite(np.divide(a, b), "division")
        if node.op == "^":
            return _eval_power(a, b)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        args = [_eval_node(arg, x, values) for arg in node.args]
        return _eval_call(node.name, args)
    raise AssertionError(type(node))


def _eval_power(base, exponent):
    base = np.asarray(base, dtype=float)
    exponent = np.asarray(exponent, dtype=float)
    integral = np.equal(np.floor(exponent), exponent)
    if np.any((base < 0) & ~integral):
        raise DomainError("negative base with non-integer exponent")
    if np.any((base == 0) & (exponent < 0)):
        raise DomainError("zero base with negative exponent")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.power(base, exponent)
    return _check_finite(out, "power")


def _eval_call(name: str, args):
    a = args[0]
    if name == "exp":
        with np.errstate(over="ignore"):
            return _check_finite(np.exp(a), "exp")
    if name == "ln":
        if np.any(np.asarray(a) <= 0):
            raise DomainError("ln of a nonpositive value")
        return _check_finite(np.log(a), "ln")
    if name == "sqrt":
        if np.any(np.asarray(a) < 0):
            raise DomainError("sqrt of a negative value")
        return _check_finite(np.sqrt(a), "sqrt")
    if name == "sinh":
        with np.errstate(over="ignore"):
            return _check_finite(np.sinh(a), "sinh")
    if name == "asinh":
        return _check_finite(np.arcsinh(a), "asinh")
    if name == "abs":
        return np.abs(a)
    if name == "min":
        return np.minimum(a, args[1])
    if name == "max":
        return np.maximum(a, args[1])
    raise AssertionError(name)


def _pretty(node: Node, leaves: dict) -> str:
    # fully parenthesized where structure matters; reparses identically
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Param, Var)):
        return leaves[node]
    if isinstance(node, Neg):
        return f"(-{_pretty(node.operand, leaves)})"
    if isinstance(node, BinOp):
        return f"({_pretty(node.left, leaves)} {node.op} {_pretty(node.right, leaves)})"
    if isinstance(node, Call):
        inner = ", ".join(_pretty(a, leaves) for a in node.args)
        return f"{node.name}({inner})"
    raise AssertionError(type(node))


@dataclass(frozen=True)
class Expr:
    """A parsed expression of a single variable and its sorted (name, value)
    parameter pairs."""

    root: Node
    var_name: str
    source: str
    params: tuple = ()

    def __call__(self, x):
        """Evaluate at ``x`` (scalar or ndarray); scalar in, float out."""
        arr = np.asarray(x, dtype=float)
        out = np.asarray(_eval_node(self.root, arr, dict(self.params)), dtype=float)
        if arr.ndim == 0:
            return float(out)
        if out.shape == arr.shape:
            return out
        return np.full(arr.shape, float(out))

    def pretty(self) -> str:
        """Unambiguous text form, each parameter as its value in parentheses
        (-2.0 ^ 2 negates the power); parse(pretty()) evaluates the same."""
        slots = {Param(name): f"({value!r})" for name, value in self.params}
        return _pretty(self.root, {Var(): self.var_name, **slots})
