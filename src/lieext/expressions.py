"""Tiny expression grammar for parametric maps in problem documents.

Deliberately small so inputs stay auditable: numeric literals, the constant
pi, named variables, + - * /, unary minus, parentheses, and the functions
sin, cos, exp.  No user-defined functions, no powers, no attribute access.

Parsing is one operator-precedence loop (shunting-yard) over the tokens of
one compiled regex, with a stack of operands and one of pending operators
and open groups.  + - and * / are left-associative and unary minus binds
tighter than * /, as in Python.  A parse error carries the position of its
token, and a lexical error (a character outside the grammar, a malformed or
out-of-range number) comes before any syntax error.  The expression is at
most MAX_DEPTH levels deep (an operation, unary minus or call is a level, a
parenthesis none).

Each reduction is a node of a Table, and a node met again is the same node
(hash-consing, Ershov 1958): each text of a map is parsed into the map's
one table, evaluated once per call.  Evaluation runs with numpy's divide,
overflow and invalid errors raised, on scalars or arrays, and any of those
errors (t/0, exp(1000), sin(inf)) is an ExpressionError.
"""
import bisect
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from .errors import ExpressionError, _quoted

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}

CONSTANTS = {"pi": math.pi}

MAX_DEPTH = 500

# A pending operator as (level, numpy function).  Level 0, an open
# parenthesis or call, stops every reduction but that of its ')'; level 3,
# unary minus, takes one operand.
_PENDING = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    **{name: (0, fn) for name, fn in FUNCTIONS.items()},
}
_PREFIX = {"-": [(3, operator.neg)], "(": [(0, None)], "+": []}  # unary plus is no operation
# A token that may follow an operand, with the lowest level it reduces; None
# is the end of the text.
_CLOSING = {"+": 1, "-": 1, "*": 2, "/": 2, ")": 1, None: 1}

_NUMBER = re.compile(r"[\d.]+(?:[eE][+-]?\d+)?")
_TOKEN = re.compile(rf"[-+*/()]|{_NUMBER.pattern}|(?!\d)\w+|\S")  # whitespace is skipped
Entry = NamedTuple("Entry", [("source", str), ("variables", frozenset), ("root", int)])


@dataclass(frozen=True)
class Expression:
    """Parsed expression, evaluable against a variable environment whose
    values are scalars or arrays (the result broadcasts over them)."""

    source: str
    variables: frozenset
    table: "Table"  # the table it was parsed into
    root: int  # its node there

    def __call__(self, env: Dict[str, object]):
        table = Table()  # of its own, so its nodes run in its text's order
        table.enter(parse_expression(self.source, table))
        names = [node for node in table.index if type(node) is str]  # in the text's order
        for name in names:
            if name not in env:
                raise ExpressionError(f"unknown variable {_quoted(name)} in {_quoted(self.source)}")
        return table.compile(names, lambda e: "")(*map(env.get, names))[..., 0][()]


class Table:
    """The node table of one map and its entries, Entry records (no Expression,
    so a dropped map is freed by reference counting).  index maps each node (a
    constant, a variable name, or (fn, *operand ids)) to its id, the order it was added in."""

    def __init__(self):
        self.index, self.entries, self.ends = {}, [], []  # ends: len(index) after each entry
        self.parsed = {}  # text -> its Entry here, for a caller that meets a text again

    def enter(self, entry) -> None:
        """Append entry, an Expression parsed into this table or its parsed Entry."""
        if getattr(entry, "table", self) is not self:
            raise ValueError(f"{_quoted(entry.source)} was parsed into another table")
        self.entries.append(Entry(entry.source, entry.variables, entry.root))
        self.parsed.setdefault(entry.source, self.entries[-1])
        self.ends.append(len(self.index))

    def compile(self, names: Sequence[str], where: Callable[[int], str]) -> Callable:
        """The entries as one map: one array per name in, an array of shape
        shape + (entries,) out, shape being the broadcast shape of the arrays.
        Each node is evaluated once per call, in table order.  An error names
        where(e) and the text of the first entry e that needs the failing
        node, the entry it was added with.  The plan is made on the first
        call (two first calls at once make the same plan)."""
        entries, plans = self.entries, []

        def evaluate(*args):
            template, inputs, plan = plans[0] if plans else self._plan(names, plans)
            values = template.copy()
            for r, k in inputs:
                values[r] = np.asarray(args[k], dtype=float)
            out = np.empty(np.broadcast_shapes(*map(np.shape, args)) + (len(entries),))
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    for steps, root, ats, e in plan:
                        for r, fn, a, b in steps:
                            values[r] = fn(values[a]) if b is None else fn(values[a], values[b])
                        for at in ats:
                            out[at] = values[root]
            except (ArithmeticError, ValueError, TypeError) as exc:  # t/0, exp(1e3)
                raise ExpressionError(
                    f"{where(e)}cannot evaluate {_quoted(entries[e].source)}: {exc}") from None
            return out
        return evaluate

    def _plan(self, names, plans) -> tuple:
        """(register values with the constants, (register, argument) per
        variable, segments of steps (register, fn, operand registers) each
        ending at a root: (steps, its register, its positions, its entry)),
        appended to plans.  A leaf keeps
        its own register; an operation takes one that its operands' last read
        freed, or a root that no node reads, once written."""
        nodes = list(self.index)
        last = list(range(len(nodes)))  # each node's last reader
        for i, node in enumerate(nodes):
            if type(node) is tuple:
                last[node[1]] = last[node[-1]] = i
        writes = {}  # each root's positions
        for e, entry in enumerate(self.entries):
            writes.setdefault(entry.root, []).append((..., e))
        reg, free, template, inputs, plan, steps = [], [], [], [], [], []
        for i, node in enumerate(nodes):
            if type(node) is tuple:
                a, b = node[1], node[-1]  # b is a for a function or unary minus
                if last[a] == i:
                    free.append(reg[a])
                if last[b] == i and b != a:
                    free.append(reg[b])
                if free:
                    r = free.pop()
                else:
                    r = len(template)
                    template.append(None)
                steps.append((r, node[0], reg[a], reg[b] if len(node) > 2 else None))
                if last[i] == i:  # a root no node reads: free once written
                    free.append(r)
            else:
                r, last[i] = len(template), -1  # a leaf keeps its register
                if type(node) is str:
                    inputs.append((r, names.index(node)))
                template.append(None if type(node) is str else node)
            reg.append(r)
            if i in writes:
                plan.append((steps, r, writes[i], bisect.bisect_right(self.ends, i)))
                steps = []
        plans.append((template, inputs, plan))
        return plans[0]


def _fail(text, at, message=None) -> NoReturn:
    """Raise the first lexical error of text, else message ('unexpected' and
    the token by default) at token number at; one past the last is the end."""
    matches = list(_TOKEN.finditer(text))
    for match in matches:
        token, start = match.group(), match.start()
        if _NUMBER.fullmatch(token):
            try:
                if not math.isfinite(float(token)):
                    raise ExpressionError(f"number {_quoted(token)} is out of range", position=start)
            except ValueError:
                raise ExpressionError(f"bad number {_quoted(token)}", position=start) from None
        elif not (token[0].isalpha() or token[0] == "_" or token in "+-*/()"):
            raise ExpressionError(f"unexpected character {token[0]!r}", position=start)
    if at == len(matches):
        raise ExpressionError(message or "unexpected None", position=len(text))
    token = matches[at].group()
    value = float(token) if _NUMBER.fullmatch(token) else token
    raise ExpressionError(message or f"unexpected {_quoted(value)}", position=matches[at].start())



def parse_expression(text: str, table: Optional[Table] = None) -> Expression:
    """Compile text into table, a new one by default, or raise an
    ExpressionError with the position of the offending token (table then
    holds stray nodes)."""
    if not isinstance(text, str):
        raise ExpressionError(f"expression must be a string, got {type(text).__name__}")
    tokens = _TOKEN.findall(text)
    tokens.append(None)
    table = Table() if table is None else table
    index, variables = table.index, set()
    add = index.setdefault  # add(node, len(index)) is the id of node, added if new
    operands, pending = [], []  # (node id, depth); _PENDING values
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
                operands.append((add(np.float64(value), len(index)), 1))
                operand = False
            else:
                if not (token[0].isalpha() or token[0] == "_"):
                    _fail(text, at)
                variables.add(token)
                operands.append((add(token, len(index)), 1))
                operand = False
            continue
        level = _CLOSING.get(token)
        if level is None:
            _fail(text, at, "expected ')'" if any(not p[0] for p in pending) else None)
        while pending and pending[-1][0] >= level:
            top, f = pending.pop()
            rhs, depth = operands.pop()
            node = (f, rhs)
            if top < 3:
                lhs, lhs_depth = operands.pop()
                node = (f, lhs, rhs)
                if lhs_depth > depth:
                    depth = lhs_depth
            if depth >= MAX_DEPTH:
                _fail(text, at, "expression is nested too deeply")
            operands.append((add(node, len(index)), depth + 1))
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
                node, depth = operands.pop()
                if depth >= MAX_DEPTH:
                    _fail(text, at, "expression is nested too deeply")
                operands.append((add((f, node), len(index)), depth + 1))
    (root, _), = operands
    return Expression(text, frozenset(variables), table, root)
