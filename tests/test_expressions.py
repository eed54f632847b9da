import numpy as np
import pytest

from lieext.errors import ExpressionError
from lieext.expressions import parse_expression


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
        with pytest.raises(ExpressionError):
            parse_expression("+".join(["t"] * 1200))
