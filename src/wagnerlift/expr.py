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
exp, log, sqrt, sinh, cosh, tanh, atan.  Whitespace and digits are Unicode's
(U+3000 separates tokens, and ``\u0663`` reads as 3).  One regex splits the
text into tokens, and two methods parse them: ``_Parser.chain`` serves both
left-associative levels (``expr`` and ``term``), and ``_Parser.factor`` the
rules ``factor``, ``power`` and ``atom``.  Text nested past ``_MAX_DEPTH``
raises ``ParseError``, with each rule counting one level as if it had its own
method: a parenthesis or call costs five levels, and an operand of a chain the
height of the tree to its left, so ``x1 + x2 + ...`` is one level per ``+``.
Evaluation happens over the truncated Taylor jet algebra, yielding exact
partial derivatives at a point.

Evaluation runs on a ``Tape``: the AST lowered once, with no jet arithmetic,
to a straight line of jet operations (Taylor propagation along a tape,
Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Registers 0 and 1
hold the x1/x2 seed jets, then comes one register per non-variable node,
leaves included, in post-order; the jet run and the compiler read one list.
After ``COMPILE_AFTER`` successful runs at an order, the tape compiles that
order by source transformation (as Tapenade does; Hascoet & Pascual, ACM
TOMS 39(3), 2013) into one function over float locals (``_compile``).  It folds
the registers that do not depend on x1/x2, runs log's and exp's derivative
sequences inline in ``jets._log``'s and ``jets._exp``'s operation order, and
forms in each Horner step only the Taylor slots that reach the output, as
``jets.compose`` does.

The results are bit-identical to evaluating the tree recursively: the tape
applies the same jet operations to the same operands in the same order
(post-order, left operand first), and the compiled function the same float
operations, less those whose result it knows; a point where it cannot vouch
for that reruns on the jets.  A constant operation either raises at every
point, and then no run succeeds and nothing compiles, or at none.
"""

from __future__ import annotations

import math
import operator
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
    "Tape",
]

VARIABLES = ("x1", "x2")
CONSTANTS = {"pi": math.pi, "e": math.e}

_MAX_DEPTH = 200
_MAX_INT_POWER = 8


class ParseError(ValueError):
    """Source text could not be parsed; ``position`` is the character offset."""

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


# -- parser ---------------------------------------------------------------------

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Groups: 1 whitespace, 2 number, 3 identifier, 4 operator, 5 any other character.
_TOKEN_RE = re.compile(rf"(\s+)|({_NUMBER})|({_IDENT})|([-+*/^()])|(.)", re.S)
_KINDS = {2: "num", 3: "ident"}  # an operator's kind is its text
_CHAINS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})  # by precedence level


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """``(kind, text, pos)`` triples; kind is "num", "ident", the operator, or "end"."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        group, text = m.lastindex, m.group()
        if group == 5:
            raise ParseError(f"unexpected character {text!r}", m.start())
        if group > 1:
            tokens.append((_KINDS.get(group, text), text, m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens, self.i = _tokenize(source), 0

    def expect(self, kind: str, what: str) -> None:
        got, text, pos = self.tokens[self.i]
        if got != kind:
            raise ParseError(f"expected {what}, got {text or 'end of input'!r}", pos)
        self.i += 1

    def chain(self, level: int, depth: int) -> Expr:
        """Level 0 is ``+ -`` over terms, level 1 ``* /`` over factors."""
        node = self.chain(1, depth + 1) if level == 0 else self.factor(depth + 1)
        ops = _CHAINS[level]
        while op := ops.get(self.tokens[self.i][0]):
            self.i, height = self.i + 1, self.height
            depth_rhs = depth + height + 1  # the tree so far is its left sibling
            rhs = self.chain(1, depth_rhs) if level == 0 else self.factor(depth_rhs)
            node = op(node, rhs)
            self.height = max(height, self.height) + 1  # the height of the node parsed last
        return node

    def factor(self, depth: int) -> Expr:
        """Unary minus, an atom, and its ``^`` exponent."""
        kind, text, pos = self.tokens[self.i]
        if depth > _MAX_DEPTH:  # every recursive cycle of the grammar passes here
            raise ParseError("expression too deeply nested", pos)
        self.i += 1
        if kind == "-":
            node = Neg(self.factor(depth + 1))
            self.height += 1
            return node
        self.height = 1
        if kind == "num":
            node = Literal(float(text))
            if not math.isfinite(node.value):
                raise ParseError(f"number {text!r} out of range", pos)
        elif kind == "(":
            node = self.chain(0, depth + 3)
            self.expect(")", "')'")
        elif kind != "ident":
            got = text or "end of input"
            raise ParseError(f"expected a number, identifier, or '(', got {got!r}", pos)
        elif text in VARIABLES:
            node = Var(text)
        elif text in CONSTANTS:
            node = Const(text)
        elif text in jets.FUNCTIONS:
            self.expect("(", f"'(' after function {text!r}")
            node = Call(text, self.chain(0, depth + 3))
            self.expect(")", "')'")
            self.height += 1
        else:
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        if self.tokens[self.i][0] != "^":
            return node
        self.i += 1
        height, exponent = self.height, self.factor(depth + 2)
        self.height = max(height, self.height) + 1
        return Pow(node, exponent)


def parse(source: str) -> Expr:
    """Parse expression text into an AST."""
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(source)
    node = parser.chain(0, 0)
    kind, text, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
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
    """Render an AST back to source text; re-parsing a tree that ``parse``
    returned yields an identical tree (a negative or infinite ``Literal``
    does not come back)."""
    return _fmt(e, _PREC_ADD)


# -- evaluation ---------------------------------------------------------------------

_SEEDS = {"x1": 0, "x2": 1}
# Per order, the x1 and x2 seed coefficients after the value term.
_SEED_TAILS = [
    [Jet.variable(0.0, axis, n)._t[1:] for axis in (1, 2)] for n in range(jets.MAX_ORDER + 1)
]
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


# Successful jet runs after which a tape compiles that order.  Compiling costs
# 25 to 40 jet runs, so a tape queried at a few points never compiles.
COMPILE_AFTER = 20


class Tape:
    """An expression lowered once to a straight line of jet operations.

    Registers 0 and 1 hold the x1/x2 seed jets; entry k of ``_ops``, one per
    non-variable node in post-order, writes register k + 2: ``fn(r[i], r[j])``
    for ``(fn, i, j)``, ``fn(r[i])`` when ``j`` is None, or the constant ``i``
    when ``fn`` is None.  Evaluate through ``eval_jet``.
    """

    __slots__ = ("_expr", "_ops", "_out", "_runs", "_compiled")

    def __init__(self, expr: Expr):
        self._expr = expr
        ops: list[tuple] = []

        def lower(e: Expr) -> int:
            kind = type(e)
            if kind is Var:
                return _SEEDS[e.name]
            if kind is Literal or kind is Const:
                ops.append((None, e.value if kind is Literal else CONSTANTS[e.name], None))
            elif kind is Neg:
                ops.append((operator.neg, lower(e.arg), None))
            elif kind is Call:
                ops.append((jets.FUNCTIONS[e.func], lower(e.arg), None))
            elif kind is Pow:
                ops.append((_power, lower(e.base), lower(e.exponent)))
            elif kind in _BINARY:
                ops.append((_BINARY[kind], lower(e.left), lower(e.right)))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            return len(ops) + 1

        self._out = lower(expr)
        self._ops = tuple(ops)
        self._runs = [0] * (jets.MAX_ORDER + 1)
        self._compiled: list = [None] * (jets.MAX_ORDER + 1)  # None: on the jets

    @property
    def compiled(self) -> list:
        """Per order, the generated function or None (on the jets); live."""
        return self._compiled

    def __reduce__(self):
        # Generated functions do not pickle; a copy lowers and compiles afresh.
        return Tape, (self._expr,)

    def _run(self, x1: float, x2: float, order: int) -> Jet:
        compiled = self._compiled[order]
        if compiled is not None:
            try:
                return jets._new(order, compiled(x1, x2))
            except _FALLBACK:
                return self._run_jets(x1, x2, order)
        jet = self._run_jets(x1, x2, order)
        self._runs[order] += 1
        if self._runs[order] == COMPILE_AFTER:
            self._compiled[order] = _compile(self, order)
        return jet

    def _run_jets(self, x1: float, x2: float, order: int) -> Jet:
        r = [jets._new(order, (x, *tail)) for x, tail in zip((x1, x2), _SEED_TAILS[order])]
        for fn, i, j in self._ops:
            if j is not None:
                r.append(fn(r[i], r[j]))
            else:
                r.append(fn(r[i]) if fn is not None else Jet.constant(i, order))
        return r[self._out]


# A compiled tape raises these where the jets may differ; the point then
# reruns on the jets, which give their own result or exception.
_FALLBACK = (ArithmeticError, ValueError)
_SLOTWISE = {operator.add: "+", operator.sub: "-"}


def _compile(tape: Tape, order: int):
    """``tape`` at ``order`` as one generated function ``(x1, x2) -> Taylor
    tuple``, or None when an exponent depends on x1/x2 or an output is a
    known NaN."""
    src = _Source()
    r = [[x, *tail] for x, tail in zip(("x1", "x2"), _SEED_TAILS[order])]
    names = {fn: name for name, fn in jets.FUNCTIONS.items()}
    for fn, i, j in tape._ops:
        if fn is None:
            r.append([i] + [0.0] * (jets._SIZE[order] - 1))
            continue
        a, b = r[i], None if j is None else r[j]
        if fn is _power:
            if any(isinstance(s, str) for s in b):
                return None
            n = _integer_exponent(Jet(order, tuple(b)))
            if n is None:
                out = src.mul(b, src.compose(a, jets.DERIVS["log"]))
                out = src.compose(out, jets.DERIVS["exp"])
            else:
                out = src.power(a, n)
        elif fn is operator.neg:
            out = [src.local(f"-{x}") if isinstance(x, str) else -x for x in a]
        elif fn is operator.mul:
            out = src.mul(a, b)
        elif fn is operator.truediv:
            out = src.mul(a, src.compose(b, jets.reciprocal_derivs))
        elif fn in _SLOTWISE:
            out = [src.op(x, _SLOTWISE[fn], y) for x, y in zip(a, b)]
        else:  # an elementary function
            out = src.compose(a, jets.DERIVS[names[fn]])
        r.append(out)
    return src.function(r[tape._out])


class _Source:
    """Straight-line float code for jet operations on lists of Taylor slots, whose
    length gives their order: the compiled tapes and ``surface._pipeline_kernel``.

    A slot is a float known at compile time or the name of a local.  The code
    performs the jets' float operations in their order, less those whose
    result is known: known operands fold; x*1.0, x*-1.0 (as -x), x + -0.0 and
    x - 0.0 give x; and a product term with a +-0.0 factor is left out, which
    changes no kernel sum (they start at +0.0) unless the other factor is not
    finite.  So a tape's function sums those factors and its outputs, and raises
    ``FloatingPointError`` when the sum t is not finite (t - t is then NaN;
    a sum that overflows only sends the point to the jets).
    """

    def __init__(self):
        self.lines: list[str] = []
        self.names: dict = {"log": math.log, "exp": math.exp}
        self.tested: dict[str, None] = {}

    def text(self, s) -> str:
        if isinstance(s, str):
            return s
        if isinstance(s, list):  # as a tuple
            return f"({''.join(f'{self.text(x)}, ' for x in s)})"
        if math.isfinite(s):
            return repr(s)
        self.names[f"c{len(self.names)}"] = s  # inf and nan have no literal
        return f"c{len(self.names) - 1}"

    def local(self, expr: str) -> str:
        self.lines.append(f"v{len(self.lines)} = {expr}")
        return f"v{len(self.lines) - 1}"

    def op(self, a, sign: str, b):
        if not isinstance(a, str) and not isinstance(b, str):
            return a + b if sign == "+" else a - b if sign == "-" else a / b
        if sign != "/" and not isinstance(b, str) and b == 0.0:
            if (math.copysign(1.0, b) < 0.0) == (sign == "+"):
                return a  # x + -0.0 and x - 0.0 are x
        return self.local(f"{self.text(a)} {sign} {self.text(b)}")

    def mul(self, a: list, b: list, first_b: int = 0) -> list:
        """``a * b`` at the shorter list's order, as ``Jet.__mul__`` truncates,
        less the terms of ``b``'s slots below ``first_b``."""
        out = []
        for pairs in jets._PRODUCT_TERMS[: min(len(a), len(b))]:
            acc, chain = 0.0, ""  # the known leading partial sum, then the rest
            for i, j in (pair for pair in pairs if pair[1] >= first_b):
                x, y = a[i], b[j]
                if not (isinstance(x, str) or isinstance(y, str)):
                    term = x * y
                    if term != 0.0 and chain:  # a +-0.0 term changes no sum
                        chain += f" + {self.text(term)}"
                    elif term != 0.0:
                        acc += term
                    continue
                if not isinstance(x, str):
                    x, y = y, x
                if isinstance(y, str):
                    chain += f" + {x}*{y}"
                elif y == 0.0:
                    self.tested[x] = None
                elif y == 1.0 or y == -1.0:
                    chain += f" {'+' if y > 0.0 else '-'} {x}"
                else:
                    chain += f" + {x}*{self.text(y)}"
            out.append(self.local(self.text(acc) + chain) if chain else acc)
        return out

    def compose(self, f: list, derivs) -> list:
        """``jets.compose`` of ``f`` with ``derivs(f[0], order)``; ``jets._log``
        and ``jets._exp`` run inline, other sequences by name.  Each Horner step forms
        only the slots that reach the output, as in ``jets``: a dead slot feeds only dead
        slots, and no term reads the 0.0 that pads the last step's slots."""
        n = jets._ORDER[len(f)]
        if isinstance(f[0], str) and derivs is jets._log:
            self.lines.append(f"if {f[0]} <= 0.0: raise FloatingPointError")
            d = [self.local(f"log({f[0]})")]
            for k in range(1, n + 1):  # sign * (k - 1)! / v**k
                d.append(self.local(f"{(-1) ** (k - 1) * jets._FACTORIALS[k - 1]!r} / {f[0]}**{k}"))
        elif isinstance(f[0], str) and derivs is jets._exp:
            d = [self.local(f"exp({f[0]})")] * (n + 1)
        elif isinstance(f[0], str):
            d = [f"v{len(self.lines)}_{k}" for k in range(n + 1)]
            self.names[derivs.__name__] = derivs
            self.lines.append(f"{', '.join(d)}, = {derivs.__name__}({f[0]}, {n})")
        else:
            d = derivs(f[0], n)
        taylor = d[:2] + [self.op(d[k], "/", jets._FACTORIALS[k]) for k in range(2, n + 1)]
        result = [self.op(taylor[n], "+", 0.0)]
        for k in range(n - 1, -1, -1):  # the perturbation f - f0, as jets.compose
            size = jets._SIZE[n - k]
            result = self.mul(result + [0.0] * (size - len(result)), f[:size], 1)
            result[0] = self.op(result[0], "+", taylor[k])
        return result

    def power(self, f: list, n: int) -> list:
        """``jets.integer_power`` of ``f``."""
        if n == 0:
            return [1.0] + [0.0] * (len(f) - 1)
        if n < 0:
            return self.compose(self.power(f, -n), jets.reciprocal_derivs)
        result = f
        for _ in range(n - 1):
            result = self.mul(result, f)
        return result

    def function(self, out: list):
        if any(s != s for s in out if not isinstance(s, str)):
            return None  # the sign of a folded NaN depends on how it was computed
        self.tested.update(dict.fromkeys(s for s in out if isinstance(s, str)))
        tested = list(self.tested)
        for i in range(0, len(tested), 64):  # short sums keep Python's compiler shallow
            self.lines.append("t = " + " + ".join(["t"] * (i > 0) + tested[i : i + 64]))
        if tested:
            self.lines.append("if t - t != 0.0: raise FloatingPointError")
        self.lines.append(f"return {self.text(out)}")
        return self.define("x1, x2")

    def define(self, params: str):
        """The lines as the body of a function of ``params``."""
        exec(f"def compiled({params}):\n    " + "\n    ".join(self.lines), self.names)
        return self.names["compiled"]


def eval_jet(expr: Expr | str | Tape, point: tuple[float, float], order: int) -> Jet:
    """Evaluate an expression at ``point`` over the jet algebra of ``order``.

    Returns the exact partial derivatives of the expression up to ``order``.
    Raises ``DomainError`` if the point leaves the real domain of log/sqrt or
    a division hits a zero value term.  Pass a ``Tape`` to evaluate one
    expression at many points; a string or AST is lowered afresh per call.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    if not 0 <= order <= jets.MAX_ORDER:
        raise ValueError(f"order must be in 0..{jets.MAX_ORDER}, got {order}")
    tape = expr if isinstance(expr, Tape) else Tape(expr)
    return tape._run(float(point[0]), float(point[1]), order)


def _integer_exponent(exponent: Jet) -> int | None:
    # Constant integer exponents of modest size keep the base's full real
    # domain (e.g. x^2 for negative x); everything else goes through exp/log,
    # except a constant that is not finite, which no route gives a value for.
    if exponent.is_constant():
        v = exponent.value
        if not math.isfinite(v):
            raise DomainError(f"power with non-finite constant exponent {v!r}")
        n = round(v)
        if v == n and abs(n) <= _MAX_INT_POWER:
            return int(n)
    return None


def _power(base: Jet, exponent: Jet) -> Jet:
    n = _integer_exponent(exponent)
    if n is None:
        return jets.exp(exponent * jets.log(base))
    return jets.integer_power(base, n)
