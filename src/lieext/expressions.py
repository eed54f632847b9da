"""Tiny expression grammar for parametric maps in problem documents.

Deliberately small so inputs stay auditable: numeric literals, the constant
pi, named variables, + - * /, unary minus, parentheses, and the functions
sin, cos, exp.  No user-defined functions, no powers, no attribute access.

Parsing is one operator-precedence loop (shunting-yard) over the tokens of
one compiled regex, with a stack of operands and one of pending operators
and open groups; a reduction builds a numpy closure and its depth
together.  + - and * / are left-associative and unary minus binds tighter
than * /, as in Python.  A parse error carries the position of its token,
and a lexical error (a character outside the grammar, a malformed or
out-of-range number) comes before any syntax error.  The expression is at
most MAX_DEPTH levels deep (an operation, unary minus or call is a level, a
parenthesis none), which bounds the recursion of evaluation.  The closures
run with numpy's divide, overflow and invalid errors raised, on scalars or
arrays, and any of those errors (t/0, exp(1000), sin(inf)) is an
ExpressionError.
"""
import math
import operator
import re
from dataclasses import InitVar, dataclass
from typing import Callable, Dict, NoReturn

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}

CONSTANTS = {"pi": math.pi}

MAX_DEPTH = 500

# A pending operator as (level, numpy function).  Level 0, an open
# parenthesis or call, stops every reduction but that of its ')'.
_PENDING = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    **{name: (0, fn) for name, fn in FUNCTIONS.items()},
}
_PREFIX = {"-": [(3, None)], "(": [(0, None)], "+": []}  # unary plus is no operation
# A token that may follow an operand, with the lowest level it reduces; None
# is the end of the text.
_CLOSING = {"+": 1, "-": 1, "*": 2, "/": 2, ")": 1, None: 1}

_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")
_TOKEN = re.compile(rf"[-+*/()]|{_NUMBER.pattern}|(?!\d)\w+|\S")  # whitespace is skipped


@dataclass(frozen=True)
class Expression:
    """Parsed expression, evaluable against a variable environment whose
    values are scalars or arrays (the result broadcasts over them)."""

    source: str
    variables: frozenset
    fn: InitVar[Callable]  # the expression compiled, env -> value

    def __post_init__(self, fn):
        object.__setattr__(self, "_fn", fn)

    def __call__(self, env: Dict[str, object]):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return self._fn(env)
        except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:  # t/0, exp(1e3)
            raise ExpressionError(f"cannot evaluate {self.source!r}: {exc}") from None


def _variable(name, source):
    def variable(env):
        try:
            return np.asarray(env[name], dtype=float)
        except KeyError:
            raise ExpressionError(f"unknown variable {name!r} in {source!r}") from None
    return variable


def _fail(text, at, message=None) -> NoReturn:
    """Raise the first lexical error of text, else message ('unexpected' and
    the token by default) at token number at; one past the last is the end."""
    matches = list(_TOKEN.finditer(text))
    for match in matches:
        token, start = match.group(), match.start()
        if _NUMBER.fullmatch(token):
            try:
                if not math.isfinite(float(token)):
                    raise ExpressionError(f"number {token!r} is out of range", position=start)
            except ValueError:
                raise ExpressionError(f"bad number {token!r}", position=start) from None
        elif not (token[0].isalpha() or token[0] == "_" or token in "+-*/()"):
            raise ExpressionError(f"unexpected character {token[0]!r}", position=start)
    if at == len(matches):
        raise ExpressionError(message or "unexpected None", position=len(text))
    token = matches[at].group()
    value = float(token) if _NUMBER.fullmatch(token) else token
    raise ExpressionError(message or f"unexpected {value!r}", position=matches[at].start())


def parse_expression(text: str) -> Expression:
    """Compile text, or raise an ExpressionError with the position of the
    offending token."""
    if not isinstance(text, str):
        raise ExpressionError(f"expression must be a string, got {type(text).__name__}")
    tokens = _TOKEN.findall(text)
    tokens.append(None)
    operands, pending, variables = [], [], {}  # (fn, depth); _PENDING values; name -> fn
    operand = True  # the next token must begin an operand
    steps = enumerate(tokens)
    for at, token in steps:
        if operand:
            if token in _PREFIX:
                pending += _PREFIX[token]
            elif token in FUNCTIONS:
                pending.append(_PENDING[token])
                at, token = next(steps)
                if token != "(":
                    _fail(text, at, "expected '('")
            elif token is None or token in _CLOSING:
                _fail(text, at)
            elif token in CONSTANTS or token[0].isdecimal() or token[0] == ".":
                try:
                    value = CONSTANTS[token] if token in CONSTANTS else float(token)
                except ValueError:
                    _fail(text, at)
                if not math.isfinite(value):
                    _fail(text, at)
                operands.append((lambda env, v=np.float64(value): v, 1))
                operand = False
            else:
                fn = variables.get(token)
                if fn is None:
                    if not (token[0].isalpha() or token[0] == "_"):
                        _fail(text, at)
                    fn = variables[token] = _variable(token, text)
                operands.append((fn, 1))
                operand = False
            continue
        level = _CLOSING.get(token)
        if level is None:
            _fail(text, at, "expected ')'" if any(not p[0] for p in pending) else None)
        while pending and pending[-1][0] >= level:
            top, f = pending.pop()
            fn, depth = operands.pop()
            if top == 3:
                fn = lambda env, a=fn: -a(env)
            else:
                lhs_fn, lhs_depth = operands.pop()
                fn = lambda env, f=f, a=lhs_fn, b=fn: f(a(env), b(env))
                if lhs_depth > depth:
                    depth = lhs_depth
            if depth >= MAX_DEPTH:
                _fail(text, at, "expression is nested too deeply")
            operands.append((fn, depth + 1))
        if token in _PENDING:
            pending.append(_PENDING[token])
            operand = True
        elif not pending:
            if token:  # a ')' that closes nothing
                _fail(text, at)
        elif not token:
            _fail(text, at, "expected ')'")
        else:
            _, f = pending.pop()
            if f:
                fn, depth = operands.pop()
                if depth >= MAX_DEPTH:
                    _fail(text, at, "expression is nested too deeply")
                operands.append((lambda env, f=f, a=fn: f(a(env)), depth + 1))
    (fn, _), = operands
    return Expression(text, frozenset(variables), fn)
