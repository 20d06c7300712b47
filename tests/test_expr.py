import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funclass.expr import (
    Bin,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
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
        name = rng.choice(["sin", "cos", "exp", "sqrt", "abs", "min", "max", "pow"])
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
