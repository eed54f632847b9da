"""Tiny expression grammar for parametric maps in problem documents.

Deliberately small so inputs stay auditable: numeric literals, the constant
pi, named variables, + - * /, unary minus, parentheses, and the functions
sin, cos, exp.  No user-defined functions, no powers, no attribute access;
parsing is a plain recursive descent with positions in error messages.

Each expression is compiled once, at parse time, into a closure of numpy
operations, so variables may be scalars or arrays of parameters.  It runs
with numpy's divide, overflow and invalid floating-point errors raised,
and any of them (t/0, exp(1000), sin(inf)) is an ExpressionError.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}

CONSTANTS = {"pi": math.pi}

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_TOKEN_OPS = set("+-*/()")


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", position=i)
            if not math.isfinite(value):
                raise ExpressionError(f"number {text[i:j]!r} is out of range", position=i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", position=i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", None, len(self.text))

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", position=at)
        self.advance()

    def parse(self):
        node = self.expression()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {val!r}", position=at)
        return node

    def expression(self):
        node = self.term()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = (val, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = (val, node, rhs)
            else:
                return node

    def factor(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return ("neg", self.factor())
        if kind == "op" and val == "+":
            self.advance()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, val, at = self.advance()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return ("call", val, arg)
            if val in CONSTANTS:
                return ("num", CONSTANTS[val])
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected {val!r}", position=at)


@dataclass(frozen=True)
class Expression:
    """Parsed expression, evaluable against a variable environment whose
    values are scalars or arrays (the result broadcasts over them)."""

    source: str
    node: tuple
    variables: frozenset

    def __post_init__(self):
        object.__setattr__(self, "_fn", _compile(self.node, self.source))

    def __call__(self, env: Dict[str, object]):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return self._fn(env)
        except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:  # t/0, exp(1e3)
            raise ExpressionError(f"cannot evaluate {self.source!r}: {exc}") from None


def _compile(node, source) -> Callable:
    """The node as a closure env -> value built from numpy operations."""
    op = node[0]
    if op == "num":
        value = np.float64(node[1])
        return lambda env: value
    if op == "var":
        name = node[1]

        def variable(env):
            try:
                return np.asarray(env[name], dtype=float)
            except KeyError:
                raise ExpressionError(
                    f"unknown variable {name!r} in {source!r}"
                ) from None
        return variable
    if op == "neg":
        arg = _compile(node[1], source)
        return lambda env: -arg(env)
    if op == "call":
        fn, arg = FUNCTIONS[node[1]], _compile(node[2], source)
        return lambda env: fn(arg(env))
    if op in _BINARY:
        fn, lhs, rhs = _BINARY[op], _compile(node[1], source), _compile(node[2], source)
        return lambda env: fn(lhs(env), rhs(env))
    raise ExpressionError(f"corrupt expression node {op!r}")


def _collect_vars(node, out):
    if node[0] == "var":
        out.add(node[1])
    elif node[0] in ("neg",):
        _collect_vars(node[1], out)
    elif node[0] == "call":
        _collect_vars(node[2], out)
    elif node[0] in "+-*/":
        _collect_vars(node[1], out)
        _collect_vars(node[2], out)


def parse_expression(text: str) -> Expression:
    if not isinstance(text, str):
        raise ExpressionError(f"expression must be a string, got {type(text).__name__}")
    try:
        node = _Parser(text).parse()
        variables = set()
        _collect_vars(node, variables)
        return Expression(source=text, node=node, variables=frozenset(variables))
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
