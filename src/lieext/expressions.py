"""Tiny expression grammar for parametric maps in problem documents.

Deliberately small so inputs stay auditable: numeric literals, the constant
pi, named variables, + - * /, unary minus, parentheses, and the scalar
functions sin, cos, exp.  No user-defined functions, no powers, no
attribute access; parsing is a plain recursive descent with positions in
error messages.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import ExpressionError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}

CONSTANTS = {"pi": math.pi}

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
    """Parsed scalar expression, evaluable against a variable environment."""

    source: str
    node: tuple
    variables: frozenset

    def __call__(self, env: Dict[str, float]) -> float:
        try:
            return _eval_node(self.node, env, self.source)
        except (ArithmeticError, ValueError) as exc:  # t/0, exp(1e3), sin(inf)
            raise ExpressionError(f"cannot evaluate {self.source!r}: {exc}") from None


def _eval_node(node, env, source):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        try:
            return float(env[node[1]])
        except KeyError:
            raise ExpressionError(
                f"unknown variable {node[1]!r} in {source!r}"
            ) from None
    if op == "neg":
        return -_eval_node(node[1], env, source)
    if op == "call":
        return FUNCTIONS[node[1]](_eval_node(node[2], env, source))
    a = _eval_node(node[1], env, source)
    b = _eval_node(node[2], env, source)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
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
    node = _Parser(text).parse()
    variables = set()
    _collect_vars(node, variables)
    return Expression(source=text, node=node, variables=frozenset(variables))
