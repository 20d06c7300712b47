"""Arithmetic expressions of one variable ``x`` for defining test functions.

Grammar (ASCII only): numeric literals, ``x``, constants ``pi`` and ``e``,
binary ``+ - * / ^`` with ``^`` right-associative, unary minus, and the calls
``sin cos exp log sqrt abs`` (one argument) and ``min max pow`` (two).
Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.

One regular expression tokenizes; any other character, non-ASCII digits and
letters included, is a :class:`ParseError`.  The operator tables ``_BINARY``,
``_FUNCTIONS`` and ``_BINDING`` drive both parsing (precedence climbing; every
error carries the offset where it was detected) and evaluation.  Nesting deeper
than ``_MAX_DEPTH`` (200) levels of parentheses, operators and calls is a
:class:`ParseError` too, so no parsed expression exhausts the interpreter's
recursion limit in parsing, printing or evaluation.  Evaluation is total on its
domain: out-of-domain input (log of a non-positive number, square root of a
negative, division by zero) raises :class:`EvalError` rather than returning NaN
or infinity.  :func:`evaluate_array` evaluates over a whole array with the
same bits as :func:`evaluate` at each element; each table entry carries both
implementations.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["EvalError", "Expr", "ParseError", "evaluate", "evaluate_array", "parse", "to_text"]


def _elementwise(fn):
    """Array form of a ``math`` function: ``fn`` itself on every element.

    The operands are broadcast together and read as Python floats, and the
    results are collected by ``np.fromiter``; the first element at which
    ``fn`` raises raises.
    """
    def array_fn(*args):
        operands = np.broadcast_arrays(*args)
        shape = operands[0].shape
        columns = [operand.ravel().tolist() for operand in operands]
        return np.fromiter(map(fn, *columns), np.float64, operands[0].size).reshape(shape)
    return array_fn


def _divide(a, b):
    # Python raises on every zero divisor, -0.0 included, where numpy gives inf or NaN
    if np.any(b == 0.0):
        raise ZeroDivisionError("float division by zero")
    return np.divide(a, b)


def _sqrt(a):
    if np.any(a < 0.0):
        raise ValueError("math domain error")
    return np.sqrt(a)


# Each operator and function has a scalar implementation for evaluate() and an
# array one for evaluate_array() that gives the same bits and raises where the
# scalar one raises at some element.
_BINARY = {  # op -> (scalar, array)
    "+": (operator.add, operator.add),
    "-": (operator.sub, operator.sub),
    "*": (operator.mul, operator.mul),
    "/": (operator.truediv, _divide),
    "^": (math.pow, _elementwise(math.pow)),
}
_FUNCTIONS = {  # name -> (arity, scalar, array)
    "sin": (1, math.sin, _elementwise(math.sin)),
    "cos": (1, math.cos, _elementwise(math.cos)),
    "exp": (1, math.exp, _elementwise(math.exp)),
    "log": (1, math.log, _elementwise(math.log)),
    "sqrt": (1, math.sqrt, _sqrt),
    "abs": (1, abs, np.abs),
    # Python's min and max return the first argument unless the second is
    # strictly smaller or larger, which decides NaN and signed zeros
    "min": (2, min, lambda a, b: np.where(b < a, b, a)),
    "max": (2, max, lambda a, b: np.where(b > a, b, a)),
    "pow": (2, math.pow, _elementwise(math.pow)),
}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    pass


# --- AST -------------------------------------------------------------------
# Numeric literals are always non-negative; a leading sign parses as Neg.


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Num | Var | Neg | Bin | Call


# --- tokenizer --------------------------------------------------------------

# Only ASCII whitespace, as str.isspace defines it (so \x1c-\x1f too), falls
# between matches; "bad" takes any other character no alternative matches,
# every non-ASCII one included.
_TOKEN = re.compile(
    r"(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^])"
    r"|(?P<punct>[(),])"
    r"|(?P<bad>[^\s\x1c-\x1f])",
    re.ASCII,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op end, or the punctuation character itself
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", m.start())
        tokens.append(_Token(lexeme if kind == "punct" else kind, lexeme, m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------------

_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_MINUS_BINDING = 30  # between mul/div and ^
# Deepest nesting accepted: parsing, printing and evaluation recurse once or
# twice per level, so this stays well below the interpreter's recursion limit.
_MAX_DEPTH = 200


def _too_deep(position: int) -> ParseError:
    return ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", position)


class _Parser:
    """Precedence climbing; each parse method returns a node and its height.

    ``depth`` counts the enclosing parentheses, operators and calls, so the
    parser's own recursion stops at ``_MAX_DEPTH``; the height bounds the
    tree, which a chain like ``x+x+...`` deepens without any recursion.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    def parse_expr(self, min_bp: int, depth: int) -> tuple[Expr, int]:
        pos = self.peek().pos  # where the tree passes the limit, if it does
        if depth > _MAX_DEPTH:
            raise _too_deep(pos)
        left, height = self.parse_prefix(depth)
        while height <= _MAX_DEPTH:
            tok = self.peek()
            if tok.kind != "op" or _BINDING[tok.text] < min_bp:
                return left, height
            self.advance()
            bp = _BINDING[tok.text]
            # right-associative ^ re-enters at its own binding power
            right, right_height = self.parse_expr(bp if tok.text == "^" else bp + 1, depth + 1)
            left, height, pos = Bin(tok.text, left, right), max(height, right_height) + 1, tok.pos
        raise _too_deep(pos)

    def parse_prefix(self, depth: int) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {tok.text!r} overflows", tok.pos)
            return Num(value), 1
        if tok.kind == "op" and tok.text == "-":
            operand, height = self.parse_expr(_UNARY_MINUS_BINDING, depth + 1)
            return Neg(operand), height + 1
        if tok.kind == "(":
            inner = self.parse_expr(0, depth + 1)
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "x":
                return Var(), 1
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name]), 1
            if name in _FUNCTIONS:
                self.expect("(", f"'(' after {name}")
                args = [self.parse_expr(0, depth + 1)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr(0, depth + 1))
                closing = self.expect(")", "')'")
                arity = _FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ParseError(
                        f"{name} takes {arity} argument(s), got {len(args)}", closing.pos
                    )
                return Call(name, tuple(a for a, _ in args)), max(h for _, h in args) + 1
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Expr:
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    ast, _ = parser.parse_expr(0, 1)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    return ast


# --- printing ----------------------------------------------------------------


def _node_bp(e: Expr) -> int:
    if isinstance(e, Bin):
        return _BINDING[e.op]
    if isinstance(e, Neg):
        return _UNARY_MINUS_BINDING
    return 100


def to_text(e: Expr) -> str:
    """Render with minimal parentheses so that ``parse(to_text(e)) == e``."""
    if isinstance(e, Num):
        if e.value < 0:
            raise ValueError("literal nodes must be non-negative; wrap in Neg")
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        inner = to_text(e.operand)
        if _node_bp(e.operand) <= _UNARY_MINUS_BINDING and not isinstance(e.operand, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        bp = _BINDING[e.op]
        left = to_text(e.left)
        right = to_text(e.right)
        # left child needs parens if looser; for left-assoc ops also if equal on the right
        if _node_bp(e.left) < bp or (e.op == "^" and _node_bp(e.left) <= bp):
            left = f"({left})"
        if _node_bp(e.right) < bp or (e.op != "^" and _node_bp(e.right) <= bp):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(to_text(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation ---------------------------------------------------------------


def evaluate(e: Expr, x: float) -> float:
    return _evaluate(e, x, 0)


def evaluate_array(e: Expr, x: np.ndarray) -> np.ndarray:
    """:func:`evaluate` at every element of ``x``, bit for bit, in one pass per node.

    ``+ - * /``, negation, ``abs`` and ``sqrt`` are numpy ufuncs, correctly
    rounded like Python's float operations; ``sin cos exp log`` and
    ``pow``/``^`` call the ``math`` functions on each element.  Raises
    :class:`EvalError`, without naming the element, exactly when
    :func:`evaluate` raises at some element; non-finite results are returned
    as they are, and no floating-point warning is issued.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        return np.array(np.broadcast_to(_evaluate(e, x, 1), x.shape), dtype=np.float64)


def _evaluate(e: Expr, x, impl: int):
    """Evaluate with the scalar (``impl`` 0) or array (1) implementations."""
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return x
    if kind is Neg:
        return -_evaluate(e.operand, x, impl)
    if kind is Bin:
        a = _evaluate(e.left, x, impl)
        b = _evaluate(e.right, x, impl)
        try:
            return _BINARY[e.op][impl](a, b)
        except ZeroDivisionError:
            raise EvalError(f"division by zero: {a!r} / {b!r}") from None
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error in {a!r} {e.op} {b!r}: {exc}") from None
    if kind is Call:
        args = [_evaluate(a, x, impl) for a in e.args]
        try:
            return _FUNCTIONS[e.name][1 + impl](*args)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error in {e.name}({args!r}): {exc}") from None
    raise TypeError(f"not an expression node: {e!r}")
