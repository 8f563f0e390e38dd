"""Arithmetic expressions over the chart variables x1, x2.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` binds tightest; unary minus binds tighter than ``*``/``/`` but looser
than ``^`` (so ``-x1^2`` is ``-(x1^2)``).  Identifiers are the variables
``x1``/``x2``, the constants ``pi``/``e``, and the functions sin, cos, tan,
exp, log, sqrt, sinh, cosh, tanh, atan.  Evaluation happens over the truncated
Taylor jet algebra, yielding exact partial derivatives at a point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import jets
from .jets import DomainError, Jet

__all__ = [
    "Expr",
    "Literal",
    "Var",
    "Const",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ParseError",
    "UnknownIdentifierError",
    "DomainError",
    "parse",
    "format_expr",
    "eval_jet",
]

VARIABLES = ("x1", "x2")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTION_NAMES = tuple(sorted(jets.FUNCTIONS))

_MAX_DEPTH = 200
_MAX_INT_POWER = 8


class ParseError(ValueError):
    """Source text could not be parsed; ``position`` is the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


# -- AST ----------------------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# -- lexer ---------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPERATORS = "+-*/^()"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num", "ident", one of the operator characters, or "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.pos)
        return self.advance()

    def parse_expr(self, depth: int = 0) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        node = self.parse_term(depth + 1)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term(depth + 1)
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def parse_term(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        node = self.parse_factor(depth + 1)
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_factor(depth + 1)
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def parse_factor(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.parse_factor(depth + 1))
        return self.parse_power(depth + 1)

    def parse_power(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        base = self.parse_atom(depth + 1)
        if self.peek().kind == "^":
            self.advance()
            exponent = self.parse_factor(depth + 1)
            return Pow(base, exponent)
        return base

    def parse_atom(self, depth: int) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} out of range", tok.pos)
            return Literal(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in VARIABLES:
                return Var(name)
            if name in CONSTANTS:
                return Const(name)
            if name in jets.FUNCTIONS:
                self.expect("(", f"'(' after function {name!r}")
                arg = self.parse_expr(depth + 1)
                self.expect(")", "')'")
                return Call(name, arg)
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect(")", "')'")
            return node
        got = tok.text or "end of input"
        raise ParseError(f"expected a number, identifier, or '(', got {got!r}", tok.pos)


def parse(source: str) -> Expr:
    """Parse expression text into an AST."""
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


# -- printer ---------------------------------------------------------------------

# Precedence levels used for minimal parenthesisation; printing a child at a
# minimum level below its own precedence adds parentheses, which makes
# print -> parse the structural identity.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, min_prec: int) -> str:
    if isinstance(e, Literal):
        # integral values print without the trailing ".0"; both spellings
        # re-parse to the same node, so round-tripping is unaffected
        if e.value.is_integer() and abs(e.value) < 1e16:
            return repr(int(e.value))
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, _PREC_ADD)})"
    if isinstance(e, Neg):
        body = f"-{_fmt(e.arg, _PREC_NEG)}"
        return body if _PREC_NEG >= min_prec else f"({body})"
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        body = f"{_fmt(e.left, _PREC_ADD)} {op} {_fmt(e.right, _PREC_ADD + 1)}"
        return body if _PREC_ADD >= min_prec else f"({body})"
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        body = f"{_fmt(e.left, _PREC_MUL)}{op}{_fmt(e.right, _PREC_MUL + 1)}"
        return body if _PREC_MUL >= min_prec else f"({body})"
    if isinstance(e, Pow):
        body = f"{_fmt(e.base, _PREC_ATOM)}^{_fmt(e.exponent, _PREC_NEG)}"
        return body if _PREC_POW >= min_prec else f"({body})"
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e: Expr) -> str:
    """Render an AST back to source text; re-parsing yields an identical tree."""
    return _fmt(e, _PREC_ADD)


# -- evaluation ---------------------------------------------------------------------


def eval_jet(expr: Expr | str, point: tuple[float, float], order: int) -> Jet:
    """Evaluate an expression at ``point`` over the jet algebra of ``order``.

    Returns the exact partial derivatives of the expression up to ``order``.
    Raises ``DomainError`` if the point leaves the real domain of log/sqrt or
    a division hits a zero value term.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    if not 0 <= order <= jets.MAX_ORDER:
        raise ValueError(f"order must be in 0..{jets.MAX_ORDER}, got {order}")
    x1, x2 = float(point[0]), float(point[1])
    env = {
        "x1": Jet.variable(x1, 1, order),
        "x2": Jet.variable(x2, 2, order),
    }
    return _eval(expr, env, order)


def _eval(e: Expr, env: dict[str, Jet], order: int) -> Jet:
    try:
        rule = _EVAL_RULES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return rule(e, env, order)


# One evaluation rule per node type, dispatched on the exact type.  Function
# calls look ``jets.FUNCTIONS`` up at evaluation time, not when this is built.
_EVAL_RULES = {
    Literal: lambda e, env, order: Jet.constant(e.value, order),
    Var: lambda e, env, order: env[e.name],
    Const: lambda e, env, order: Jet.constant(CONSTANTS[e.name], order),
    Neg: lambda e, env, order: -_eval(e.arg, env, order),
    Add: lambda e, env, order: _eval(e.left, env, order) + _eval(e.right, env, order),
    Sub: lambda e, env, order: _eval(e.left, env, order) - _eval(e.right, env, order),
    Mul: lambda e, env, order: _eval(e.left, env, order) * _eval(e.right, env, order),
    Div: lambda e, env, order: _eval(e.left, env, order) / _eval(e.right, env, order),
    Pow: lambda e, env, order: _power(_eval(e.base, env, order), _eval(e.exponent, env, order)),
    Call: lambda e, env, order: jets.FUNCTIONS[e.func](_eval(e.arg, env, order)),
}


def _power(base: Jet, exponent: Jet) -> Jet:
    # Constant integer exponents of modest size keep the base's full real
    # domain (e.g. x^2 for negative x); everything else goes through exp/log.
    if exponent.is_constant():
        v = exponent.value
        n = round(v)
        if v == n and abs(n) <= _MAX_INT_POWER:
            return jets.integer_power(base, int(n))
    return jets.exp(exponent * jets.log(base))
