"""Expression language: parsing, precedence, evaluation, printing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbfsir.errors import EvaluationError, ExpressionSyntaxError
from nbfsir.expr import (
    _MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    evaluate_scalar,
    parse_expression,
    parse_scalar,
    pretty,
    variables,
)


def ev(source: str, x, y, n=None):
    node = parse_expression(source, n if n is not None else len(x))
    return evaluate(node, np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestParsing:
    def test_number_forms(self):
        for text, value in [("3", 3.0), ("3.5", 3.5), (".5", 0.5),
                            ("2.", 2.0), ("1e3", 1000.0), ("2.5E-2", 0.025)]:
            assert parse_expression(text, 1) == Num(value)

    def test_variables(self):
        assert parse_expression("x1", 2) == Var("x", 1)
        assert parse_expression("y2", 2) == Var("y", 2)

    def test_addition_is_left_associative(self):
        node = parse_expression("x1 - y1 - 1", 1)
        assert node == BinOp("-", BinOp("-", Var("x", 1), Var("y", 1)), Num(1.0))

    def test_division_is_left_associative(self):
        assert float(ev("8 / 4 / 2", [0.0], [0.0])) == 1.0

    def test_multiplication_binds_tighter_than_addition(self):
        assert float(ev("2 + 3 * 4", [0.0], [0.0])) == 14.0

    def test_power_binds_tighter_than_multiplication(self):
        assert float(ev("2 * 3 ^ 2", [0.0], [0.0])) == 18.0

    def test_power_is_right_associative(self):
        assert float(ev("2 ^ 3 ^ 2", [0.0], [0.0])) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        # -x1^2 is -(x1^2), so at x1 = 3 the value is -9
        assert float(ev("-x1^2", [3.0], [0.0])) == -9.0

    def test_power_accepts_negative_exponent(self):
        assert float(ev("2 ^ -2", [0.0], [0.0])) == 0.25

    def test_parentheses_override_precedence(self):
        assert float(ev("(2 + 3) * 4", [0.0], [0.0])) == 20.0

    def test_double_negation(self):
        node = parse_expression("--x1", 1)
        assert node == Neg(Neg(Var("x", 1)))

    def test_functions_one_argument(self):
        assert np.isclose(float(ev("exp(1)", [0.0], [0.0])), np.e)
        assert float(ev("log(exp(2))", [0.0], [0.0])) == pytest.approx(2.0)
        assert float(ev("abs(-3)", [0.0], [0.0])) == 3.0
        assert float(ev("sqrt(x1 + 2)", [0.25], [0.0])) == 1.5
        with pytest.raises(EvaluationError, match="sqrt"):
            ev("sqrt(x1 - 1)", [0.0], [0.0])

    def test_functions_two_arguments(self):
        assert float(ev("min(2, 5)", [0.0], [0.0])) == 2.0
        assert float(ev("max(x1, y1)", [0.3], [0.8])) == 0.8

    def test_nested_calls(self):
        assert float(ev("max(min(1, 2), abs(-5))", [0.0], [0.0])) == 5.0

    def test_whitespace_insensitive(self):
        a = parse_expression("1+x1 *  y2", 2)
        b = parse_expression("1 + x1*y2", 2)
        assert a == b


class TestParseErrors:
    def test_unknown_identifier_reports_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1 + foo", 2)
        assert "foo" in str(err.value)
        assert err.value.offset == 4

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_nodes_rejected(self, n):
        # "1" names no variable, so only the check of n refuses it; a
        # ScalarScaled with no numerators parses its denominator at n = 0
        with pytest.raises(ExpressionSyntaxError, match="n must be at least 1") as err:
            parse_expression("1", n)
        assert err.value.offset == 0

    def test_variable_index_out_of_range(self):
        with pytest.raises(ExpressionSyntaxError, match="out of range"):
            parse_expression("x3", 2)

    def test_variable_index_zero_rejected(self):
        with pytest.raises(ExpressionSyntaxError, match="out of range"):
            parse_expression("x0", 2)

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError, match="trailing"):
            parse_expression("1 + 2 3", 1)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(1 + 2", 1)

    def test_unexpected_character_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1 + @", 1)
        assert err.value.offset == 4

    def test_missing_operand(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 +", 1)

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("", 1)

    def test_min_needs_two_arguments(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("min(1)", 1)

    def test_function_without_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("exp 3", 1)


class TestLanguageTables:
    """The operator and function tables fix these trees and messages."""

    @pytest.mark.parametrize("source, tree", [
        ("-2^-3^2", Neg(BinOp("^", Num(2.0), Neg(BinOp("^", Num(3.0), Num(2.0)))))),
        ("2^-3*4", BinOp("*", BinOp("^", Num(2.0), Neg(Num(3.0))), Num(4.0))),
        ("1 - -2", BinOp("-", Num(1.0), Neg(Num(2.0)))),
        ("-x1*y1", BinOp("*", Neg(Var("x", 1)), Var("y", 1))),
        ("x1^y1^-2", BinOp("^", Var("x", 1), BinOp("^", Var("y", 1), Neg(Num(2.0))))),
        ("min(1, 2)^2", BinOp("^", Call("min", (Num(1.0), Num(2.0))), Num(2.0))),
    ])
    def test_exact_trees(self, source, tree):
        assert parse_expression(source, 1) == tree
        assert parse_expression(pretty(tree), 1) == tree

    @pytest.mark.parametrize("source, message, offset", [
        ("min(1)", "syntax error: expected ',', found ')'", 5),
        ("exp(1, 2)", "syntax error: expected ')', found ','", 5),
        ("max(1,)", "syntax error: expected a number, variable, '(' or function, "
                    "found ')'", 6),
    ])
    def test_arity_errors(self, source, message, offset):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(source, 1)
        assert (err.value.reason, err.value.offset) == (message, offset)

    def test_literal_beyond_the_float_range_is_refused(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_scalar("1 + u/1e999")
        assert err.value.reason == "number '1e999' is beyond the float range"
        assert err.value.offset == 6
        # the largest float and an underflow to zero still read
        assert parse_scalar("1.7976931348623157e308") == Num(1.7976931348623157e308)
        assert parse_scalar("1e-999") == Num(0.0)

    def test_trailing_whitespace_is_no_token(self):
        assert parse_expression("1 + x1 \t\n", 1) == parse_expression("1 + x1", 1)
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_scalar("  ")
        assert "end of input" in err.value.reason

    @pytest.mark.parametrize("source", ["-" * 1000 + "u", "(" * 1000 + "u" + ")" * 1000],
                             ids=["minus-signs", "parentheses"])
    def test_nesting_too_deep_is_a_syntax_error(self, source):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_scalar(source)
        assert err.value.reason == "syntax error: expression nested too deeply"
        assert 0 < err.value.offset < len(source)

    def test_a_long_operator_chain_is_too_deep(self):
        # the parser builds u+u+...+u in a loop, into a left-deep tree that
        # the printer and the evaluator would recurse over
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_scalar("+".join(["u"] * 1000))
        assert err.value.reason == "syntax error: expression nested too deeply"

    @pytest.mark.parametrize("nest", [
        lambda k: "+".join(["u"] * k),
        lambda k: "-" * (k - 1) + "u",
        lambda k: "u^" * (k - 1) + "u",
        lambda k: "abs(" * (k - 1) + "u" + ")" * (k - 1),
        lambda k: "(" * (k - 1) + "u" + ")" * (k - 1),
    ], ids=["sum", "minus-signs", "powers", "calls", "parentheses"])
    def test_the_depth_limit_is_one_constant(self, nest):
        node = parse_scalar(nest(_MAX_DEPTH))
        assert np.isfinite(evaluate_scalar(node, 0.5))
        assert parse_scalar(pretty(node)) == node
        with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
            parse_scalar(nest(_MAX_DEPTH + 1))

    @pytest.mark.parametrize("source", [3, 2.0, None, b"u", ["u"]])
    def test_a_non_string_source_is_refused_at_offset_0(self, source):
        for parse in (parse_scalar, lambda s: parse_expression(s, 2)):
            with pytest.raises(ExpressionSyntaxError, match="must be a string") as err:
                parse(source)
            assert err.value.offset == 0


class TestScalarMode:
    def test_all_spellings_normalize_to_u(self):
        nodes = {parse_scalar(name) for name in ("u", "x", "y", "x1", "y1")}
        assert nodes == {Var("u", 1)}

    def test_pretty_prints_u(self):
        assert pretty(parse_scalar("1 + x")) == "1 + u"

    def test_unknown_scalar_name(self):
        with pytest.raises(ExpressionSyntaxError, match="'u'"):
            parse_scalar("x2")

    def test_scalar_evaluation_shapes(self):
        node = parse_scalar("2 * u + 1")
        assert float(evaluate_scalar(node, 0.5)) == 2.0
        out = evaluate_scalar(node, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(out, [1.0, 3.0, 5.0])
        grid = evaluate_scalar(node, np.zeros((4, 3)))
        assert grid.shape == (4, 3)

    def test_constant_broadcasts_over_input(self):
        node = parse_scalar("3")
        out = evaluate_scalar(node, np.zeros(5))
        assert out.shape == (5,)
        assert np.array_equal(out, np.full(5, 3.0))


class TestEvaluation:
    def test_batched_states(self):
        node = parse_expression("x1 * y2 + 1", 2)
        x = np.array([[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array([[0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
        assert np.array_equal(evaluate(node, x, y), [2.0, 4.0, 9.0])

    def test_division_by_zero_raises(self):
        node = parse_expression("1 / y1", 1)
        with pytest.raises(EvaluationError):
            evaluate(node, np.array([0.5]), np.array([0.0]))

    def test_log_of_zero_raises(self):
        node = parse_expression("log(y1)", 1)
        with pytest.raises(EvaluationError):
            evaluate(node, np.array([0.5]), np.array([0.0]))

    def test_log_of_negative_raises(self):
        node = parse_expression("log(x1 - 2)", 1)
        with pytest.raises(EvaluationError):
            evaluate(node, np.array([0.5]), np.array([0.0]))

    def test_error_message_names_expression(self):
        node = parse_expression("1 / y1", 1)
        with pytest.raises(EvaluationError, match="1/y1"):
            evaluate(node, np.array([0.5]), np.array([0.0]))


class TestPrinting:
    @pytest.mark.parametrize("source,expected", [
        ("x1*(y1+2)", "x1*(y1 + 2)"),
        ("(x1+y1)*2", "(x1 + y1)*2"),
        ("x1-(y1-1)", "x1 - (y1 - 1)"),
        ("-(x1+1)", "-(x1 + 1)"),
        ("(2^3)^2", "(2^3)^2"),
        ("2^3^2", "2^3^2"),
        ("x1^-2", "x1^-2"),
        ("min(x1, 2)", "min(x1, 2)"),
        ("1/(1+1.5*u)", None),  # scalar mode below
    ])
    def test_minimal_parentheses(self, source, expected):
        if expected is None:
            node = parse_scalar(source)
            assert pretty(node) == "1/(1 + 1.5*u)"
            return
        node = parse_expression(source, 2)
        assert pretty(node) == expected

    def test_variables_collects_references(self):
        node = parse_expression("x1 + y2 * max(x2, y2)", 2)
        assert variables(node) == {("x", 1), ("y", 2), ("x", 2)}


# --- structural round trip: pretty then parse reproduces the AST -----------

def _ast_strategy():
    # nonnegative literals only: a negative literal prints as -c, which
    # parses back as Neg(Num(c)) rather than Num(-c)
    numbers = st.one_of(
        st.integers(min_value=0, max_value=9).map(float),
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False, width=32),
    ).map(Num)
    vars_ = st.tuples(st.sampled_from("xy"), st.integers(1, 3)).map(
        lambda t: Var(t[0], t[1]))
    leaves = st.one_of(numbers, vars_)

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs"]), children).map(
                lambda t: Call(t[0], (t[1],))),
            st.tuples(st.sampled_from(["min", "max"]), children, children).map(
                lambda t: Call(t[0], (t[1], t[2]))),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_ast_strategy())
def test_pretty_parse_round_trip(node):
    assert parse_expression(pretty(node), 3) == node
