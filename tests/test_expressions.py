import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieext.errors import ExpressionError
from lieext.expressions import MAX_DEPTH, Table, parse_expression


class TestParsing:
    def test_arithmetic_precedence(self):
        e = parse_expression("1 + 2 * 3 - 4 / 2")
        assert e({}) == pytest.approx(5.0)

    def test_parentheses(self):
        assert parse_expression("(1 + 2) * 3")({}) == pytest.approx(9.0)

    def test_unary_minus(self):
        assert parse_expression("-t + 1")({"t": 0.25}) == pytest.approx(0.75)
        assert parse_expression("--2")({}) == pytest.approx(2.0)

    def test_functions_and_pi(self):
        e = parse_expression("sin(pi * t) + cos(0) + exp(0)")
        assert e({"t": 0.5}) == pytest.approx(3.0)

    def test_scientific_notation(self):
        assert parse_expression("1.5e-3 + 2E2")({}) == pytest.approx(200.0015)

    def test_variables_collected(self):
        e = parse_expression("x1 * y2 - sin(x2)")
        assert e.variables == {"x1", "y2", "x2"}

    def test_division(self):
        assert parse_expression("t / 4")({"t": 1.0}) == pytest.approx(0.25)


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + * 2")
        assert err.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin(t")

    def test_unknown_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("t ^ 2")
        assert err.value.position == 2

    def test_unknown_function_is_just_a_variable(self):
        # tan is not in the grammar; used bare it's a variable, called it fails
        with pytest.raises(ExpressionError):
            parse_expression("tan(t)")({"t": 1.0, "tan": 0.0})

    def test_unknown_variable_at_eval(self):
        with pytest.raises(ExpressionError):
            parse_expression("t + s")({"t": 1.0})

    def test_non_string_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression(3.14)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2")

    # A lexical error anywhere (a character outside the grammar, a malformed
    # or out-of-range number) is reported before a syntax error.
    @pytest.mark.parametrize("text, message, position", [
        ("1 + * 2", "unexpected '*'", 4),
        ("t ^ 2", "unexpected character '^'", 2),
        ("sin t", "expected '('", 4),
        ("sin", "expected '('", 3),
        ("sin(t", "expected ')'", 5),
        ("((t)", "expected ')'", 4),
        ("(t", "expected ')'", 2),
        ("(t s)", "expected ')'", 3),
        ("1 2", "unexpected 2.0", 2),
        (")", "unexpected ')'", 0),
        ("cos(t))", "unexpected ')'", 6),
        ("sin()", "unexpected ')'", 4),
        ("2 * (3 + )", "unexpected ')'", 9),
        ("1e400", "number '1e400' is out of range", 0),
        ("t + 1e309", "number '1e309' is out of range", 4),
        (".", "bad number '.'", 0),
        ("1.2.3", "bad number '1.2.3'", 0),
        ("", "unexpected None", 0),
        ("   ", "unexpected None", 3),
        ("t +", "unexpected None", 3),
        ("-", "unexpected None", 1),
        ("sin(", "unexpected None", 4),
        ("exp(t,s)", "unexpected character ','", 5),
        ("1e", "unexpected 'e'", 1),
        ("0x10", "unexpected 'x10'", 1),
        ("pi(t)", "unexpected '('", 2),
        ("t(s)", "unexpected '('", 1),
        ("sin(t) cos(t)", "unexpected 'cos'", 7),
        ("3 / / 4", "unexpected '/'", 4),
        ("1 + * $", "unexpected character '$'", 6),
        ("1 2 1e999", "number '1e999' is out of range", 4),
    ])
    def test_message_and_position(self, text, message, position):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert (str(err.value), err.value.position) == (message, position)

    def test_names_and_numbers_beyond_ascii(self):
        assert parse_expression("θ + _a1").variables == {"θ", "_a1"}
        assert parse_expression("٣٣")({}) == 33.0  # decimal digits of any script
        with pytest.raises(ExpressionError) as err:
            parse_expression("t + ½")
        assert (str(err.value), err.value.position) == ("unexpected character '½'", 4)


class TestArrays:
    @pytest.mark.parametrize(
        "text", ["sin(pi*t)*cos(2*pi*s) - exp(t/3)", "-t*s + 1.5e-3", "(t - s)/(t + 2)", "cos(0)"]
    )
    def test_scalar_and_one_element_array_agree_bitwise(self, text):
        e = parse_expression(text)
        for t, s in ((0.1, 0.7), (0.987654321, -3.25), (1e-12, 2.0)):
            scalar = np.float64(e({"t": t, "s": s}))
            array = np.asarray(e({"t": np.array([t]), "s": np.array([s])}))
            assert np.broadcast_to(array, (1,))[0].tobytes() == scalar.tobytes()

    def test_array_evaluation_matches_pointwise(self):
        e = parse_expression("sin(pi*t) + t*t/(1 + s)")
        t = np.linspace(0.0, 1.0, 7)
        got = e({"t": t, "s": 0.5})
        assert got.shape == (7,)
        assert np.allclose(got, [e({"t": x, "s": 0.5}) for x in t], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("text", ["t/0", "exp(1000)", "exp(t*800)", "1e300*1e300*t"])
    def test_floating_point_errors_are_expression_errors(self, text):
        e = parse_expression(text)
        with pytest.raises(ExpressionError):
            e({"t": np.array([0.5, 1.0])})
        with pytest.raises(ExpressionError):
            e({"t": 1.0})

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("t + 1e400")

    def test_deep_nesting_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_expression("+".join(["t"] * 1200))


class TestNestingBound:
    """MAX_DEPTH levels parse and evaluate; one more is refused at parse time."""

    @pytest.mark.parametrize("make", [
        lambda n: "+".join(["t"] * n),  # a left-deep chain, n levels
        lambda n: "-" * (n - 1) + "t",
        lambda n: "sin(" * (n - 1) + "t" + ")" * (n - 1),
        lambda n: "(" * n + "t" + "*t)" * (n - 1) + ")",
    ])
    def test_both_ends(self, make):
        inside = parse_expression(make(MAX_DEPTH))
        assert np.isfinite(inside({"t": np.array([0.5, 0.25])})).all()
        with pytest.raises(ExpressionError, match="nested too deeply") as err:
            parse_expression(make(MAX_DEPTH + 1))
        assert err.value.position is not None

    def test_parentheses_add_no_level(self):
        assert parse_expression("(" * 5000 + "t" + ")" * 5000)({"t": 2.0}) == 2.0


_NAMES = ("t", "s", "x1", "y_2", "_a", "sinx", "pi2")
_leaves = st.one_of(
    st.floats(0, 1e3).map(repr),  # always with '.' or 'e', so Python reads a float too
    st.sampled_from([".5", "5.", "2.5E3", "1e-2", "pi"]),
    st.sampled_from(_NAMES),
)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", " - ", " * "]), children)
        .map("".join),
        st.tuples(st.sampled_from(["-", "+", "- "]), children).map("".join),
        children.map("({})".format),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map("{0[0]}({0[1]})".format),
    )


class TestAgainstPython:
    """Python's + - * / and unary minus have the grammar's precedence and
    associativity, so Python's eval of the same text is a reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_leaves, _grow, max_leaves=12),
           st.lists(st.floats(-2, 2), min_size=len(_NAMES), max_size=len(_NAMES)))
    def test_bit_identical_to_python_eval(self, text, values):
        env = dict(zip(_NAMES, values))
        e = parse_expression(text)
        assert e.variables == set(re.findall(r"\w+", text)) & set(_NAMES)
        try:
            got = np.float64(e(env))
        except ExpressionError:  # t/0 or an overflow; Python may go on with inf
            return
        namespace = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": math.pi}
        want = np.float64(eval(text, {"__builtins__": {}}, {**namespace, **env}))
        assert got.tobytes() == want.tobytes(), (text, got, want)


class TestNodeTable:
    """A map's entries, drawn from a shared pool of subexpressions, are one
    node table; each position keeps the bits its entry gives evaluated alone
    and Python's eval gives, and an error names the first entry that fails
    alone, with its message.  A text met again is entered again, not parsed
    again, and an Expression of another table is refused."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_each_position_keeps_its_entry_bits(self, data):
        pool = data.draw(st.lists(st.recursive(_leaves, _grow, max_leaves=6), min_size=1, max_size=4))
        shared = st.sampled_from(pool).map("({})".format)
        texts = data.draw(st.lists(st.recursive(shared | _leaves, _grow, max_leaves=4),
                                   min_size=1, max_size=8))
        values = data.draw(st.lists(st.floats(-2, 2), min_size=len(_NAMES), max_size=len(_NAMES)))
        env = dict(zip(_NAMES, values))
        table = Table()
        for text in texts:
            if text not in table.parsed:
                table.parsed[text] = parse_expression(text, table)
            table.enter(table.parsed[text])
        run = table.compile(_NAMES, "entry {}: ".format)
        alone = []
        for text in texts:
            try:
                alone.append(np.float64(parse_expression(text)(env)))
            except ExpressionError as exc:
                alone.append(exc)
        failed = [k for k, value in enumerate(alone) if isinstance(value, ExpressionError)]
        if failed:
            with pytest.raises(ExpressionError) as err:
                run(*values)
            assert str(err.value) == f"entry {failed[0]}: {alone[failed[0]]}"
            return
        out = run(*values)
        assert out.shape == (len(texts),)
        namespace = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "pi": math.pi}
        for k, text in enumerate(texts):
            want = np.float64(eval(text, {"__builtins__": {}}, {**namespace, **env}))
            assert out[k].tobytes() == alone[k].tobytes() == want.tobytes(), text

    def test_an_error_names_the_entry_that_adds_the_failing_node(self):
        # the division is the only node the second entry adds: 1 and t - 0.5
        # come with the first, which does not fail
        table = Table()
        for text in ("1 + (t - 0.5)", "1/(t - 0.5)"):
            table.enter(parse_expression(text, table))
        with pytest.raises(ExpressionError) as err:
            table.compile(["t"], "entry {}: ".format)(0.5)
        assert str(err.value) == ("entry 1: cannot evaluate '1/(t - 0.5)': "
                                  "divide by zero encountered in scalar divide")

    def test_an_expression_called_alone_keeps_its_own_order(self):
        # in the table it was parsed into, 1/s comes before exp(800*t); called
        # alone, the expression parses its own text afresh and fails first
        # where its text fails: at the overflow
        table = Table()
        parse_expression("1/s", table)
        expr = parse_expression("exp(800*t) + 1/s", table)
        table.enter(expr)
        with pytest.raises(ExpressionError) as shared:
            table.compile(["t", "s"], "".format)(1.0, 0.0)
        assert str(shared.value) == ("cannot evaluate 'exp(800*t) + 1/s': "
                                     "divide by zero encountered in divide")
        with pytest.raises(ExpressionError) as alone:
            expr({"t": 1.0, "s": 0.0})
        assert str(alone.value) == ("cannot evaluate 'exp(800*t) + 1/s': "
                                    "overflow encountered in exp")

    def test_enter_refuses_an_expression_of_another_table(self):
        table, other = Table(), Table()
        expr = parse_expression("sin(t)", other)
        with pytest.raises(ValueError, match="parsed into another table"):
            table.enter(expr)
        assert table.entries == [] and table.parsed == {} and table.ends == []
