"""Tests for the formula tokenizer, parser and evaluator."""

import math
import sys

import numpy as np
import pytest

from bicheb.exprparse import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    eval_ast,
    parse,
    parse_expression,
    pretty_print,
    tokenize,
)
from bicheb.errors import EvalError, ParseError


class TestTokenize:
    def test_single_identifier(self):
        tokens = tokenize("x")
        assert len(tokens) == 1
        assert (tokens[0].kind, tokens[0].text) == ("identifier", "x")

    def test_call_expression(self):
        kinds = [(t.kind, t.text) for t in tokenize("cos(x*y)")]
        assert kinds == [
            ("identifier", "cos"), ("paren", "("), ("identifier", "x"),
            ("operator", "*"), ("identifier", "y"), ("paren", ")"),
        ]

    def test_scientific_notation(self):
        tokens = tokenize("1.5e-3+x")
        assert [(t.kind, t.text) for t in tokens] == [
            ("number", "1.5e-3"), ("operator", "+"), ("identifier", "x")]

    def test_positions_strictly_increase(self):
        tokens = tokenize("cos(10*x*y^2) + exp(-x^2)")
        positions = [t.position for t in tokens]
        assert positions == sorted(set(positions))

    def test_illegal_character(self):
        with pytest.raises(ParseError) as info:
            tokenize("x + $y")
        assert info.value.position == 4


class TestParse:
    def test_precedence(self):
        ast = parse_expression("2+3*4")
        assert eval_ast(ast, 0.0, 0.0) == 14.0

    def test_unary_minus_binds_looser_than_power(self):
        ast = parse_expression("-x^2")
        assert ast == Neg(BinOp("^", Var("x"), Num(2.0)))
        assert eval_ast(ast, 3.0, 0.0) == -9.0

    def test_power_is_right_associative(self):
        ast = parse_expression("x^2^3")
        assert eval_ast(ast, 2.0, 0.0) == 256.0

    def test_two_top_level_addends(self):
        ast = parse_expression("cos(10*x*y^2)+exp(-x^2)")
        assert isinstance(ast, BinOp) and ast.op == "+"
        assert isinstance(ast.left, Call) and ast.left.func == "cos"
        assert isinstance(ast.right, Call) and ast.right.func == "exp"

    def test_constants(self):
        assert eval_ast(parse_expression("cos(pi)"), 0.0, 0.0) == pytest.approx(-1.0)
        assert eval_ast(parse_expression("log(e)"), 0.0, 0.0) == pytest.approx(1.0)
        assert eval_ast(parse_expression("sqrt(x)"), 4.0, 0.0) == 2.0

    def test_two_argument_function(self):
        assert eval_ast(parse_expression("pow(x, 3)"), 2.0, 0.0) == 8.0

    @pytest.mark.parametrize("source", [
        "", "x +", "(x", "x)", "cos()", "cos(x, y)", "pow(x)",
        "foo(x)", "z + 1", "1 2", "x ^", "* x",
    ])
    def test_rejections_carry_positions(self, source):
        with pytest.raises(ParseError) as info:
            parse_expression(source)
        assert 0 <= info.value.position <= len(source)

    @pytest.mark.parametrize("source, message", [
        ("", "empty expression (at position 0)"),
        ("x +", "unexpected end of input (at position 3)"),
        ("(x", "expected ')', found end of input (at position 2)"),
        ("((x)", "expected ')', found end of input (at position 4)"),
        ("x)", "unexpected token ')' (at position 1)"),
        (")", "unexpected token ')' (at position 0)"),
        ("(", "unexpected end of input (at position 1)"),
        ("cos()", "unexpected token ')' (at position 4)"),
        ("cos(x, y)", "cos takes 1 argument(s), got 2 (at position 0)"),
        ("pow(x)", "pow takes 2 argument(s), got 1 (at position 0)"),
        ("pow(x,y,1)", "pow takes 2 argument(s), got 3 (at position 0)"),
        ("pow(x,", "unexpected end of input (at position 6)"),
        ("sin(x,)", "unexpected token ')' (at position 6)"),
        ("foo(x)", "unknown function 'foo' (at position 0)"),
        ("e(x)", "unknown function 'e' (at position 0)"),
        ("z + 1", "unknown identifier 'z' (at position 0)"),
        ("cos x", "unknown identifier 'cos' (at position 0)"),
        ("sin", "unknown identifier 'sin' (at position 0)"),
        ("1 2", "unexpected token '2' (at position 2)"),
        ("x,y", "unexpected token ',' (at position 1)"),
        ("x ^", "unexpected end of input (at position 3)"),
        ("* x", "unexpected token '*' (at position 0)"),
        ("x ** 2", "unexpected token '*' (at position 3)"),
        ("2*(3+)", "unexpected token ')' (at position 5)"),
        ("--x+", "unexpected end of input (at position 4)"),
        ("1.5e", "unexpected token 'e' (at position 3)"),
        ("x$y", "illegal character '$' (at position 1)"),
        # the end of input is placed just past the last token, not at the
        # end of the trailing whitespace
        ("   ", "empty expression (at position 0)"),
        ("(x  ", "expected ')', found end of input (at position 2)"),
        ("x  +  ", "unexpected end of input (at position 4)"),
        ("pow(x,  ", "unexpected end of input (at position 6)"),
        ("-" * 200 + "x", "expression nested deeper than 128 levels (at position 127)"),
    ])
    def test_rejection_messages(self, source, message):
        with pytest.raises(ParseError) as info:
            parse_expression(source)
        assert str(info.value) == message

    def test_deep_parentheses_are_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("(" * 5000 + "x" + ")" * 5000)

    def test_long_flat_sum_is_rejected(self):
        # parses to a left-leaning tree 3000 levels high
        with pytest.raises(ParseError):
            parse_expression("+".join(["x"] * 3000))

    def test_moderate_depth_parses_and_evaluates(self):
        assert eval_ast(parse_expression("+".join(["x"] * 200)), 0.5, 0.0) == 100.0
        nested = parse_expression("(" * 100 + "x" + ")" * 100)
        assert eval_ast(nested, 0.25, 0.0) == 0.25

    @pytest.mark.parametrize("opening, frames", [("(", 4), ("x+x*(", 5), ("sin(", 5)])
    def test_nesting_fits_five_frames_a_level(self, opening, frames):
        # 127 levels of a bracket, of a bracket after '+' and '*', or of a
        # call need `frames` parser frames a level: at 5, about 640 in all,
        # within 700 of the caller's depth
        source = opening * 127 + "x" + ")" * 127
        frame, caller_depth = sys._getframe(), 0
        while frame is not None:
            frame, caller_depth = frame.f_back, caller_depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(caller_depth + 127 * frames + 65)
        try:
            node = parse_expression(source)
            value = eval_ast(node, 0.25, 0.0)
            printed = pretty_print(node)
        finally:
            sys.setrecursionlimit(limit)
        assert printed.count("x") == source.count("x")
        assert math.isfinite(value)


class TestEval:
    def test_cos_at_origin(self):
        assert eval_ast(parse_expression("cos(x*y)"), 0.0, 0.0) == 1.0

    def test_cube(self):
        value = eval_ast(parse_expression("x^3"), 0.8, 0.0)
        assert value == pytest.approx(0.512, abs=1e-12)

    def test_reference_point(self):
        ast = parse_expression("cos(10*x*y^2)+exp(-x^2)")
        assert eval_ast(ast, 1.0, 1.0) == pytest.approx(-0.4711920879050101,
                                                        abs=1e-9)

    def test_negative_integer_power(self):
        assert eval_ast(parse_expression("x^-2"), 2.0, 0.0) == 0.25

    def test_repeated_calls_are_bitwise_equal(self):
        ast = parse_expression("sin(x)*cos(y)+x^5/(1+y^2)")
        first = eval_ast(ast, 0.12345, -0.6789)
        for _ in range(5):
            assert eval_ast(ast, 0.12345, -0.6789) == first

    def test_array_arguments_broadcast(self):
        ast = parse_expression("cos(10*x*y^2)+exp(-x^2)")
        xs = np.linspace(-1.0, 1.0, 5)
        ys = np.linspace(-1.0, 1.0, 4)
        grid = eval_ast(ast, xs[:, None], ys[None, :])
        assert grid.shape == (5, 4)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert grid[i, j] == eval_ast(ast, float(x), float(y))

    def test_log_of_nonpositive(self):
        with pytest.raises(EvalError):
            eval_ast(parse_expression("log(x)"), -1.0, 0.0)
        with pytest.raises(EvalError):
            eval_ast(parse_expression("log(x)"), 0.0, 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division"):
            eval_ast(parse_expression("1/x"), 0.0, 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            eval_ast(parse_expression("sqrt(x)"), -2.0, 0.0)

    def test_overflow_names_subexpression(self):
        with pytest.raises(EvalError) as info:
            eval_ast(parse_expression("exp(x)"), 1000.0, 0.0)
        assert "exp" in str(info.value)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            eval_ast(parse_expression("x^0.5"), -2.0, 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            eval_ast(parse_expression("x^-1"), 0.0, 0.0)

    @pytest.mark.parametrize("source, x, y, message", [
        ("1/x", 0.0, 1.0, "division by zero in '(1.0 / x)'"),
        ("x/y", np.array([1.0, 2.0]), np.array([3.0, 0.0]),
         "division by zero in '(x / y)'"),
        ("pow(x,-1)", 0.0, 1.0, "zero raised to a negative power in 'pow(x, (-1.0))'"),
        ("x^-16", np.array([1.0, 0.0]), 1.0,
         "zero raised to a negative power in '(x ^ (-16.0))'"),
        # not an exact power: np.power gives inf
        ("x^-17", 0.0, 1.0, "non-finite value in '(x ^ (-17.0))'"),
        ("x^-0.5", 0.0, 1.0, "non-finite value in '(x ^ (-0.5))'"),
        ("x^0.5", -2.0, 1.0, "non-finite value in '(x ^ 0.5)'"),
        ("log(x)", 0.0, 1.0, "log of a nonpositive value in 'log(x)'"),
        ("log(x)", np.array([1.0, -1.0]), 1.0, "log of a nonpositive value in 'log(x)'"),
        ("sqrt(x-1)", 0.5, 1.0, "sqrt of a negative value in 'sqrt((x - 1.0))'"),
        ("exp(x)", 1000.0, 1.0, "non-finite value in 'exp(x)'"),
        ("x*y*1e300", 1e10, 1.0, "non-finite value in '((x * y) * 1e+300)'"),
        ("-tan(x)+y", 1.0, np.inf, "non-finite value in '((-tan(x)) + y)'"),
        # x * x underflows to 0, whose reciprocal is inf, for a plain float too
        ("x^-2", 1e-200, 1.0, "non-finite value in '(x ^ (-2.0))'"),
        ("x^-2", np.float64(1e-200), 1.0, "non-finite value in '(x ^ (-2.0))'"),
        ("x^-2", np.array([1e-200]), 1.0, "non-finite value in '(x ^ (-2.0))'"),
    ])
    def test_eval_error_messages(self, source, x, y, message):
        with pytest.raises(EvalError) as info:
            eval_ast(parse_expression(source), x, y)
        assert str(info.value) == message

    @pytest.mark.parametrize("call", [
        pretty_print,
        lambda tree: eval_ast(tree, 0.5, 0.5),
        lambda tree: eval_ast(tree, np.zeros(3), np.ones(3)),
    ], ids=["pretty_print", "eval_ast-scalar", "eval_ast-array"])
    def test_a_leaf_that_is_not_a_node(self, call):
        with pytest.raises(TypeError) as info:
            call(BinOp("+", Var("x"), "y"))
        assert str(info.value) == "not an expression node: 'y'"


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.integers(3)
        if pick == 0:
            return Num(float(abs(rng.standard_normal())) + 0.25)
        return Var("x" if pick == 1 else "y")
    pick = rng.integers(3)
    if pick == 0:
        return Neg(_random_ast(rng, depth - 1))
    if pick == 1:
        op = ["+", "-", "*", "/", "^"][rng.integers(5)]
        return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    func = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "pow"][rng.integers(8)]
    arity = 2 if func == "pow" else 1
    return Call(func, tuple(_random_ast(rng, depth - 1) for _ in range(arity)))


class TestRoundTrip:
    def test_random_trees_survive_reprinting(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            ast = _random_ast(rng, int(rng.integers(1, 7)))
            assert parse(tokenize(pretty_print(ast))) == ast

    def test_parsed_sources_survive_reprinting(self):
        for source in ["cos(x*y)", "-x^2", "cos(10*x*y^2)+exp(-x^2)",
                       "pow(x, y)/(1.5e-3+x)", "x*y*pi-e"]:
            ast = parse_expression(source)
            assert parse(tokenize(pretty_print(ast))) == ast
