"""Arithmetic expressions of one variable ``x`` for defining test functions.

Grammar (ASCII only): numeric literals, ``x``, constants ``pi`` and ``e``,
binary ``+ - * / ^`` with ``^`` right-associative, unary minus, and the calls
``sin cos exp log sqrt abs`` (one argument) and ``min max pow`` (two).
Precedence, tightest first: ``^``, unary minus, ``* /``, ``+ -``.

One regular expression tokenizes; any other character, non-ASCII digits and
letters included, is a :class:`ParseError`.  The operator tables ``_BINARY``,
``_FUNCTIONS`` and ``_BINDING`` drive both parsing (precedence climbing; every
error carries the offset where it was detected) and evaluation.  Evaluation is
total on its domain: out-of-domain input (log of a non-positive number, square
root of a negative, division by zero) raises :class:`EvalError` rather than
returning NaN or infinity.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

__all__ = ["EvalError", "Expr", "ParseError", "evaluate", "parse", "to_text"]

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}
_FUNCTIONS = {  # name -> (arity, implementation)
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "log": (1, math.log),
    "sqrt": (1, math.sqrt),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
    "pow": (2, math.pow),
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


class _Parser:
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

    def parse_expr(self, min_bp: int) -> Expr:
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _BINDING[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # right-associative ^ re-enters at its own binding power
            right = self.parse_expr(bp if tok.text == "^" else bp + 1)
            left = Bin(tok.text, left, right)
        return left

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {tok.text!r} overflows", tok.pos)
            return Num(value)
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expr(_UNARY_MINUS_BINDING))
        if tok.kind == "(":
            inner = self.parse_expr(0)
            self.expect(")", "')'")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "x":
                return Var()
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in _FUNCTIONS:
                self.expect("(", f"'(' after {name}")
                args = [self.parse_expr(0)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr(0))
                closing = self.expect(")", "')'")
                arity = _FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ParseError(
                        f"{name} takes {arity} argument(s), got {len(args)}", closing.pos
                    )
                return Call(name, tuple(args))
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Expr:
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    ast = parser.parse_expr(0)
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
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return x
    if kind is Neg:
        return -evaluate(e.operand, x)
    if kind is Bin:
        a = evaluate(e.left, x)
        b = evaluate(e.right, x)
        try:
            return _BINARY[e.op](a, b)
        except ZeroDivisionError:
            raise EvalError(f"division by zero: {a!r} / {b!r}") from None
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error in {a!r} {e.op} {b!r}: {exc}") from None
    if kind is Call:
        args = [evaluate(a, x) for a in e.args]
        try:
            return _FUNCTIONS[e.name][1](*args)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"domain error in {e.name}({args!r}): {exc}") from None
    raise TypeError(f"not an expression node: {e!r}")
