import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funclass as fc
from funclass import grid
from funclass.expr import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    evaluate_array,
    parse,
    to_text,
)


class TestParsing:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("x^2", 0.5, 0.25),
            ("x + 0.3*sin(2*pi*x)", 0.25, 0.55),
            ("2^3^2", 0.0, 512.0),
            ("1+2*3", 0.0, 7.0),
            ("sqrt(x)", 4.0, 2.0),
            ("abs(-x)", 3.0, 3.0),
            ("min(x, 2)", 5.0, 2.0),
            ("max(x, 2)", 5.0, 5.0),
            ("pow(x, 3)", 2.0, 8.0),
            ("e", 0.0, math.e),
            ("-x^2", 3.0, -9.0),  # unary minus binds looser than ^
            ("(-x)^2", 3.0, 9.0),
            ("2*-3", 0.0, -6.0),
            ("--x", 7.0, 7.0),
            ("6/3/2", 0.0, 1.0),  # division is left-associative
        ],
    )
    def test_evaluates(self, text, x, expected):
        assert evaluate(parse(text), x) == expected

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("   ", 0),
            ("2x", 1),
            ("foo(x)", 0),
            ("(x + 1", 6),
            ("x + ", 4),
            ("x) ", 1),
            ("sin(x, 1)", 8),
            ("1 $ 2", 2),
            ("1e999", 0),
            ("x*\u00b2", 2),  # superscript two: a digit to str.isdigit, not to the grammar
            ("2*\u0663", 2),  # Arabic-Indic three
        ],
    )
    def test_parse_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_unknown_identifier_names_it(self):
        with pytest.raises(ParseError, match="sinh"):
            parse("sinh(x)")


# Nestings past the interpreter's recursion limit, each with the offset of the
# token where it first passes the 200-level limit.
DEEP_EXPRESSIONS = [
    ("parentheses", "(" * 600 + "x" + ")" * 600, 200),
    ("leading-minus", "-" * 1200 + "x", 200),
    ("power-tower", "^".join(["x"] * 1200), 400),
    ("long-sum", "+".join(["x"] * 3000), 399),
]


class TestNestingDepth:
    @pytest.mark.parametrize(
        "text, position", [c[1:] for c in DEEP_EXPRESSIONS], ids=[c[0] for c in DEEP_EXPRESSIONS]
    )
    def test_deep_nesting_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match="deeper than 200 levels") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, value",
        [
            ("(" * 199 + "x" + ")" * 199, 1.0),
            ("-" * 198 + "x", 1.0),
            ("^".join(["x"] * 200), 1.0),
            ("+".join(["x"] * 200), 200.0),
            ("abs(" * 199 + "x" + ")" * 199, 1.0),
        ],
        ids=["parentheses", "leading-minus", "power-tower", "long-sum", "calls"],
    )
    def test_nesting_at_the_limit_parses_prints_and_evaluates(self, text, value):
        ast = parse(text)
        assert parse(to_text(ast)) == ast
        assert evaluate(ast, 1.0) == value
        assert evaluate_array(ast, np.ones(3)).tolist() == [value] * 3


class TestEvaluation:
    @pytest.mark.parametrize(
        "text,x",
        [
            ("log(x)", 0.0),
            ("log(x)", -1.0),
            ("sqrt(x)", -4.0),
            ("1/x", 0.0),
            ("x^0.5", -2.0),
            ("pow(x, -1)", 0.0),
            ("exp(x)", 1e9),  # overflow is a domain error, not infinity
        ],
    )
    def test_domain_errors_never_nan(self, text, x):
        ast = parse(text)
        with pytest.raises(EvalError):
            evaluate(ast, x)

    def test_zero_power_zero(self):
        assert evaluate(parse("x^0"), 0.0) == 1.0


def _random_ast(rng: random.Random, depth: int):
    """Random parser-canonical AST: literals non-negative, signs via Neg."""
    if depth <= 0:
        return rng.choice(
            [Num(round(rng.uniform(0, 10), 3)), Var(), Num(float(rng.randint(0, 5)))]
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 1:
        op = rng.choice("+-*/^")
        return Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        name = rng.choice(["sin", "cos", "exp", "log", "sqrt", "abs", "min", "max", "pow"])
        arity = 2 if name in ("min", "max", "pow") else 1
        return Call(name, tuple(_random_ast(rng, depth - 1) for _ in range(arity)))
    return _random_ast(rng, 0)


class TestRoundTrip:
    def test_thousand_random_asts(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            ast = _random_ast(rng, depth=rng.randint(1, 4))
            text = to_text(ast)
            reparsed = parse(text)
            assert reparsed == ast, text
            for _ in range(10):
                x = rng.uniform(-3, 3)
                try:
                    a = evaluate(ast, x)
                except EvalError:
                    with pytest.raises(EvalError):
                        evaluate(reparsed, x)
                    continue
                assert evaluate(reparsed, x) == a

    @given(st.text(alphabet="x0123456789+-*/^(). ,pine\u00b2\u0663\u00e9\u00bd\u2177\u00a0",
                   max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_parser_total_over_junk(self, text):
        # any input either parses or raises ParseError, nothing else
        try:
            parse(text)
        except ParseError:
            pass


# Zero of both signs, negatives, tiny and huge magnitudes, and points where
# np.power and math.pow (or x^2 and x*x) round differently.
GRID = np.concatenate(
    [np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1, 710.0]]
)


def _hex_or_error(ast, x: float) -> str:
    try:
        return evaluate(ast, x).hex()
    except EvalError:
        return "error"


class TestArrayEvaluation:
    def test_matches_scalar_bit_for_bit_on_random_asts(self):
        rng = random.Random(20261018)
        for _ in range(1500):
            ast = _random_ast(rng, depth=rng.randint(1, 4))
            want = [_hex_or_error(ast, x) for x in GRID.tolist()]
            if "error" in want:  # raised exactly when some element raises
                with pytest.raises(EvalError):
                    evaluate_array(ast, GRID)
                continue
            got = [v.hex() for v in evaluate_array(ast, GRID).tolist()]
            assert got == want, to_text(ast)

    @pytest.mark.parametrize(
        "text",
        ["x^2", "x*x", "pow(x, 3.5)", "exp(x) + log(abs(x) + 1)", "sin(x) * cos(x)",
         "min(-x, 0) - max(x, -0)", "min(0/1, -0) + 1/max(-0, 0/1)", "1/min(x - x, -0)"],
    )
    def test_signed_zeros_and_math_rounding(self, text):
        ast = parse(text)
        want = [_hex_or_error(ast, x) for x in GRID.tolist()]
        if "error" in want:
            with pytest.raises(EvalError):
                evaluate_array(ast, GRID)
        else:
            assert [v.hex() for v in evaluate_array(ast, GRID).tolist()] == want

    def test_constant_expression_fills_the_array(self):
        out = evaluate_array(parse("2 + pi"), GRID)
        assert out.shape == GRID.shape and out.dtype == np.float64
        assert np.all(out == 2 + math.pi)

    def test_no_warning_on_overflow_or_nan(self):
        # the suite turns RuntimeWarning into an error; Python floats never warn
        out = evaluate_array(parse("1e308*x*10 - 1e308*x*10"), np.array([1.0, 0.01]))
        assert np.isnan(out[0]) and out[1] == 0.0


def _sample_by_points(text, origin, step, count):
    """The scalar loop that sample() falls back to, over the whole grid."""
    ast = parse(text)
    return fc.sample(lambda t: evaluate(ast, t), origin, step, count)


class TestSampleOverArrays:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_matches_the_scalar_loop_across_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(grid, "_CHUNK", chunk)
        rng = random.Random(chunk)
        for _ in range(150):
            ast = _random_ast(rng, depth=rng.randint(1, 4))
            text = to_text(ast)
            try:
                want = _sample_by_points(text, -2.0, 0.0625, 65)
            except fc.GridError as exc:
                with pytest.raises(fc.GridError) as got:
                    fc.sample(text, -2.0, 0.0625, 65)
                assert str(got.value) == str(exc), text
                continue
            got = fc.sample(text, -2.0, 0.0625, 65)
            assert [v.hex() for v in got.values.tolist()] == [
                v.hex() for v in want.values.tolist()
            ], text

    def test_the_periodic_benchmark_expression_past_one_chunk(self):
        text = "x + 0.17*log(2 + cos(2*pi*x)) + 0.22*exp(sin(2*pi*x))"
        count = grid._CHUNK + 257
        got = fc.sample(text, -3.0, 0.001, count)
        assert np.array_equal(got.values, _sample_by_points(text, -3.0, 0.001, count).values)

    @pytest.mark.parametrize(
        "text, origin, step, count, message",
        [
            # finite in numpy (min(inf, 1) is 1), a division by zero to Python
            ("min(x/0, 1)", -1.0, 0.5, 5,
             "evaluation failed at x=-1.0: division by zero: -1.0 / 0.0"),
            ("sqrt(x - 1)", 0.0, 0.5, 5,
             "evaluation failed at x=0.0: domain error in sqrt([-1.0]): math domain error"),
            ("log(x)", 0.0, 0.5, 5,
             "evaluation failed at x=0.0: domain error in log([0.0]): math domain error"),
            ("exp(1000*x)", 0.0, 0.125, 9,
             "evaluation failed at x=0.75: domain error in exp([750.0]): math range error"),
            ("1e308*x*10", 0.25, 0.25, 5, "non-finite value inf at x=0.25"),
            # first bad points past the first chunk
            ("1/(x - 20000)", 0.0, 1.0, 20001,
             "evaluation failed at x=20000.0: division by zero: 1.0 / 0.0"),
            ("sqrt(17000.5 - x)", 0.0, 1.0, 20001,
             "evaluation failed at x=17001.0: domain error in sqrt([-0.5]): math domain error"),
            ("1/(x - 19000.5) + 1e308*10^(x - 19000)", 0.0, 1.0, 20001,
             "non-finite value inf at x=19001.0"),
        ],
    )
    def test_errors_name_the_first_failing_x_as_the_scalar_loop_does(
        self, text, origin, step, count, message
    ):
        with pytest.raises(fc.GridError) as scalar:
            _sample_by_points(text, origin, step, count)
        with pytest.raises(fc.GridError) as fast:
            fc.sample(text, origin, step, count)
        assert str(fast.value) == str(scalar.value) == message
