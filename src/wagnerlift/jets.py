"""Truncated bivariate Taylor jets.

A ``Jet`` carries the value and all partial derivatives of a scalar field of
two variables at a point, up to a fixed order (at most 4).  Arithmetic on jets
propagates derivatives exactly: sums and products term by term, quotients via
the reciprocal series, and elementary functions by composing their univariate
derivative sequences with the truncated series (those of tan, tanh and atan
evaluate polynomials built once at import, up to MAX_ORDER).  Internally
coefficients are Taylor-scaled (divided by a!·b!) so that multiplication is a
plain truncated polynomial product; the public accessors return raw derivative
values.

Products and compositions run through straight-line kernels generated at import,
one per order, from ``_PRODUCT_TERMS`` (``_MUL_TABLE`` by output slot, which
``expr._Source`` also reads).  A product kernel unpacks two coefficient tuples
into locals and returns every output slot as ``0.0 + a[i]*b[j] + ...`` with the
terms in table order: the same sequence of roundings as accumulating ``out[k] +=
a[i]*b[j]`` over the table from a zero-filled list, signed zeros included.  A
Horner kernel (``compose``) multiplies by the perturbation f - f0, which has no
value slot, so a slot of degree d with k steps still to run reaches only degree
d + k and up (Griewank & Walther, *Evaluating Derivatives*, ch. 13): the step
with k Taylor terms still to add forms only the slots of degree <= n - k, each
the same sum as in a full product, and a dead slot feeds only dead slots.  No
slot sum is -0.0, since each starts from +0.0, so adding the constant Taylor
term touches slot 0 only: adding 0.0 to the other slots would change no bit.
"""

from __future__ import annotations

import math
from operator import add, mul, neg, sub

MAX_ORDER = 4


class DomainError(ValueError):
    """Evaluation left the real domain (log/sqrt of a non-positive value,
    or division by a jet whose value term is zero)."""


def _monomials(order: int) -> list[tuple[int, int]]:
    # Ordered by total degree, so truncation to a lower order is a prefix slice.
    return [(a, d - a) for d in range(order + 1) for a in range(d, -1, -1)]


MONOMIALS = {n: _monomials(n) for n in range(MAX_ORDER + 1)}
_INDEX = {n: {ab: i for i, ab in enumerate(MONOMIALS[n])} for n in range(MAX_ORDER + 1)}
_SIZE = {n: len(MONOMIALS[n]) for n in range(MAX_ORDER + 1)}
_ORDER = {size: n for n, size in _SIZE.items()}  # the order of a Taylor slot count

# (i, j, k): coefficient i times coefficient j contributes to output slot k.
_MUL_TABLE: dict[int, list[tuple[int, int, int]]] = {}
for _n in range(MAX_ORDER + 1):
    _tbl = []
    for _i, (_a1, _b1) in enumerate(MONOMIALS[_n]):
        for _j, (_a2, _b2) in enumerate(MONOMIALS[_n]):
            if _a1 + _a2 + _b1 + _b2 <= _n:
                _tbl.append((_i, _j, _INDEX[_n][(_a1 + _a2, _b1 + _b2)]))
    _MUL_TABLE[_n] = _tbl

# Per output slot k, the (i, j) of a product's terms a[i]*b[j] in ``_MUL_TABLE``'s
# order.  They do not depend on the order, so order n reads the first _SIZE[n] slots.
_PRODUCT_TERMS = [[(i, j) for i, j, k in _MUL_TABLE[MAX_ORDER] if k == slot]
                  for slot in range(_SIZE[MAX_ORDER])]

# (src, factor, dst): Taylor coefficients of the partial derivative.
_DIFF_TABLE: dict[tuple[int, int], list[tuple[int, float, int]]] = {}
for _n in range(1, MAX_ORDER + 1):
    for _axis in (1, 2):
        _tbl = []
        for _i, (_a, _b) in enumerate(MONOMIALS[_n]):
            if _axis == 1 and _a >= 1:
                _tbl.append((_i, float(_a), _INDEX[_n - 1][(_a - 1, _b)]))
            elif _axis == 2 and _b >= 1:
                _tbl.append((_i, float(_b), _INDEX[_n - 1][(_a, _b - 1)]))
        _DIFF_TABLE[(_n, _axis)] = _tbl

_FACTORIALS = [1.0, 1.0, 2.0, 6.0, 24.0]

# a!*b! per monomial.  Scaling by it equals scaling by a! and then b!: at
# order <= 4 one factor is 1 unless a = b = 2, and powers of two scale exactly.
_SCALE = {
    n: tuple(_FACTORIALS[a] * _FACTORIALS[b] for a, b in MONOMIALS[n])
    for n in range(MAX_ORDER + 1)
}


def _product_kernel(n: int):
    """Straight-line product of two order-``n`` coefficient tuples."""
    size = _SIZE[n]
    a, b = (", ".join(f"{x}{i}" for i in range(size)) for x in "ab")
    slots = ", ".join(" + ".join(["0.0"] + [f"a{i}*b{j}" for i, j in terms])
                      for terms in _PRODUCT_TERMS[:size])
    namespace: dict = {}
    exec(f"def kernel(a, b):\n    {a}, = a\n    {b}, = b\n    return ({slots},)\n", namespace)
    return namespace["kernel"]


def _horner_kernel(n: int):
    """Straight-line ``compose`` at order ``n`` of Taylor slots ``b`` and derivatives ``d``."""
    code = f"def kernel(b, d):\n    _, {''.join(f'b{j}, ' for j in range(1, _SIZE[n]))}= b\n"
    code += f"    a0 = d[{n}] / {_FACTORIALS[n]!r} + 0.0\n"
    for k in range(n - 1, -1, -1):  # the products of the perturbation, less its value slot
        slots = [" + ".join(["0.0"] + [f"a{i}*b{j}" for i, j in terms if j])
                 for terms in _PRODUCT_TERMS[: _SIZE[n - k]]]
        slots[0] += f" + d[{k}] / {_FACTORIALS[k]!r}"
        code += f"    {''.join(f'a{s}, ' for s in range(len(slots)))}= {', '.join(slots)},\n"
    namespace: dict = {}
    exec(code + f"    return ({''.join(f'a{s}, ' for s in range(_SIZE[n]))})\n", namespace)
    return namespace["kernel"]


_MUL_KERNELS = tuple(map(_product_kernel, range(MAX_ORDER + 1)))
_HORNER_KERNELS = tuple(map(_horner_kernel, range(MAX_ORDER + 1)))


def _new(order: int, taylor: tuple[float, ...]) -> "Jet":
    # Unchecked construction for jets whose shape this module guarantees.
    jet = object.__new__(Jet)
    jet.order = order
    jet._t = taylor
    return jet


class Jet:
    """Value plus partial derivatives, up to ``order``, of a scalar at a point."""

    __slots__ = ("order", "_t")

    def __init__(self, order: int, taylor: tuple[float, ...]):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if len(taylor) != _SIZE[order]:
            raise ValueError(
                f"order-{order} jet needs {_SIZE[order]} coefficients, got {len(taylor)}"
            )
        self.order = order
        self._t = taylor

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet":
        t = [0.0] * _SIZE[order]
        t[0] = float(value)
        return cls(order, tuple(t))

    @classmethod
    def variable(cls, value: float, axis: int, order: int) -> "Jet":
        """Seed jet of the coordinate function x1 (axis=1) or x2 (axis=2)."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        t = [0.0] * _SIZE[order]
        t[0] = float(value)
        if order >= 1:
            t[_INDEX[order][(1, 0) if axis == 1 else (0, 1)]] = 1.0
        return cls(order, tuple(t))

    # -- accessors ----------------------------------------------------------

    @property
    def value(self) -> float:
        return self._t[0]

    def deriv(self, a: int, b: int) -> float:
        """Raw partial derivative d^a_1 d^b_2 of the underlying scalar."""
        if a < 0 or b < 0 or a + b > self.order:
            raise ValueError(f"derivative ({a},{b}) not stored in order-{self.order} jet")
        return self._t[_INDEX[self.order][(a, b)]] * _FACTORIALS[a] * _FACTORIALS[b]

    @property
    def coeffs(self) -> tuple[float, ...]:
        """All raw derivatives, in the canonical monomial order of ``MONOMIALS``."""
        return tuple(map(mul, self._t, _SCALE[self.order]))

    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self._t[1:])

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot raise the order of a jet")
        return _new(order, self._t[: _SIZE[order]])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "tuple[Jet, Jet] | None":
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return self.truncate(n), other.truncate(n)
        if isinstance(other, (int, float)):
            return self, Jet.constant(float(other), self.order)
        return None

    def __add__(self, other):
        a, b = self, other
        if not (isinstance(other, Jet) and other.order == self.order):
            pair = self._coerce(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        return _new(a.order, tuple(map(add, a._t, b._t)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, other
        if not (isinstance(other, Jet) and other.order == self.order):
            pair = self._coerce(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        return _new(a.order, tuple(map(sub, a._t, b._t)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _new(self.order, tuple(map(neg, self._t)))

    def __mul__(self, other):
        if isinstance(other, Jet):
            n = self.order
            if other.order == n:
                return _new(n, _MUL_KERNELS[n](self._t, other._t))
            n = min(n, other.order)
            size = _SIZE[n]
            return _new(n, _MUL_KERNELS[n](self._t[:size], other._t[:size]))
        if isinstance(other, (int, float)):
            f = float(other)
            return _new(self.order, tuple(x * f for x in self._t))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return integer_power(self, n)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"d{a}{b}={self.deriv(a, b):.6g}" for a, b in MONOMIALS[self.order]
        )
        return f"Jet(order={self.order}, {parts})"


def diff(jet: Jet, axis: int) -> Jet:
    """Jet of the partial derivative along ``axis`` (1 or 2); order drops by one."""
    if jet.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    out = [0.0] * _SIZE[jet.order - 1]
    for src, factor, dst in _DIFF_TABLE[(jet.order, axis)]:
        out[dst] = factor * jet._t[src]
    return _new(jet.order - 1, tuple(out))


def compose(jet: Jet, derivs: list[float]) -> Jet:
    """Jet of h(f) given the jet of f and [h(f0), h'(f0), ..., h^(n)(f0)]."""
    # Horner's rule in f - f0: products with its 0.0 value slot would make an overflowed term NaN.
    return _new(jet.order, _HORNER_KERNELS[jet.order](jet._t, derivs))


def integer_power(jet: Jet, n: int) -> Jet:
    if n == 0:
        return Jet.constant(1.0, jet.order)
    if n < 0:
        return reciprocal(integer_power(jet, -n))
    result = jet
    for _ in range(n - 1):
        result = result * jet
    return result


def reciprocal_derivs(v: float, n: int) -> list[float]:
    if v == 0.0:
        raise DomainError("division by a jet whose value term is zero")
    derivs = [1.0 / v]
    for k in range(1, n + 1):
        derivs.append(-derivs[-1] * k / v)
    return derivs


def reciprocal(jet: Jet) -> Jet:
    return compose(jet, reciprocal_derivs(jet.value, jet.order))


# -- elementary functions ----------------------------------------------------
#
# Each function h is its derivative sequence ``derivs(v, n)`` = [h(v), h'(v),
# ..., h^(n)(v)] composed with the argument jet.  Compiled tapes call the
# same sequences, or inline those of log and exp, so both routes round alike.


def _exp(v: float, n: int) -> list[float]:
    return [math.exp(v)] * (n + 1)


def _log(v: float, n: int) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"log of non-positive value {v!r}")
    derivs = [math.log(v)]
    sign = 1.0
    for k in range(1, n + 1):
        derivs.append(sign * _FACTORIALS[k - 1] / v**k)
        sign = -sign
    return derivs


def _sqrt(v: float, n: int) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v!r}")
    s = math.sqrt(v)
    derivs = [s]
    factor = 1.0
    for k in range(1, n + 1):
        factor *= 0.5 - (k - 1)
        derivs.append(factor * s / v**k)
    return derivs


def _sin(v: float, n: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] for k in range(n + 1)]


def _cos(v: float, n: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] for k in range(n + 1)]


def _sinh(v: float, n: int) -> list[float]:
    s, c = math.sinh(v), math.cosh(v)
    return [s if k % 2 == 0 else c for k in range(n + 1)]


def _cosh(v: float, n: int) -> list[float]:
    s, c = math.sinh(v), math.cosh(v)
    return [c if k % 2 == 0 else s for k in range(n + 1)]


def _poly_diff(p: list[float]) -> list[float]:
    return [p[k] * k for k in range(1, len(p))]


def _poly_mul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_eval(p: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_sub(p: list[float], q: list[float]) -> list[float]:
    n = max(len(p), len(q))
    p = p + [0.0] * (n - len(p))
    q = q + [0.0] * (n - len(q))
    return [a - b for a, b in zip(p, q)]


# y' = 1 + sign*y^2 makes the k-th derivative of tan (sign 1) and tanh (sign -1)
# a polynomial P_k in y, from P_0 = y, and d^k atan = Q_k(x) / (1+x^2)^k with
# Q_1 = 1 and Q_{k+1} = Q_k' (1+x^2) - 2k x Q_k: none depends on the point.
_TAN_POLYS, _TANH_POLYS, _ATAN_POLYS = [[0.0, 1.0]], [[0.0, 1.0]], [[1.0]]
for _k in range(1, MAX_ORDER + 1):  # Q_5 too, unread
    _TAN_POLYS.append(_poly_mul(_poly_diff(_TAN_POLYS[-1]), [1.0, 0.0, 1.0]))
    _TANH_POLYS.append(_poly_mul(_poly_diff(_TANH_POLYS[-1]), [1.0, 0.0, -1.0]))
    _ATAN_POLYS.append(_poly_sub(_poly_mul(_poly_diff(_ATAN_POLYS[-1]) or [0.0], [1.0, 0.0, 1.0]),
                                 _poly_mul([0.0, 2.0 * _k], _ATAN_POLYS[-1])))


def _tan(v: float, n: int) -> list[float]:
    u = math.tan(v)
    return [u] + [_poly_eval(p, u) for p in _TAN_POLYS[1 : n + 1]]


def _tanh(v: float, n: int) -> list[float]:
    u = math.tanh(v)
    return [u] + [_poly_eval(p, u) for p in _TANH_POLYS[1 : n + 1]]


def _atan(v: float, n: int) -> list[float]:
    w = 1.0 + v * v
    return [math.atan(v)] + [_poly_eval(q, v) / w**k for k, q in enumerate(_ATAN_POLYS[:n], 1)]


DERIVS = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sinh": _sinh,
    "cosh": _cosh,
    "tanh": _tanh,
    "atan": _atan,
}


def _elementary(name: str, derivs):
    """``h(jet)`` for the h whose derivatives ``derivs`` gives.  A float
    overflow, a division by a power that underflowed to zero, or a math domain
    error such as the sine of an infinite value leaves the real domain."""

    def fn(jet: Jet) -> Jet:
        try:
            return compose(jet, derivs(jet.value, jet.order))
        except OverflowError:
            raise DomainError(f"{name} overflows at value {jet.value!r}") from None
        except ZeroDivisionError:
            raise DomainError(f"{name} underflows at value {jet.value!r}") from None
        except DomainError:
            raise
        except ValueError:
            raise DomainError(f"{name} is undefined at value {jet.value!r}") from None

    fn.__name__ = fn.__qualname__ = name
    return fn


FUNCTIONS = {name: _elementary(name, derivs) for name, derivs in DERIVS.items()}
exp, log = FUNCTIONS["exp"], FUNCTIONS["log"]
