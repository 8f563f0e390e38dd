"""Independent numerical oracles shared by the test modules.

The finite-difference oracle evaluates expressions with mpmath at high
precision, so central differences of 3rd/4th derivatives are limited by
truncation only, never by float cancellation.  The jet references are the
plain loops and the recursive AST interpreter that the library's kernels and
tapes replace, kept here to pin those bit for bit.
"""

from __future__ import annotations

import math
import random

import mpmath as mp

from wagnerlift import expr as ex
from wagnerlift import jets

mp.mp.dps = 40

_FD_WEIGHTS = {
    0: {0: 1},
    1: {-1: mp.mpf("-0.5"), 1: mp.mpf("0.5")},
    2: {-1: 1, 0: -2, 1: 1},
    3: {-2: mp.mpf("-0.5"), -1: 1, 1: -1, 2: mp.mpf("0.5")},
    4: {-2: 1, -1: -4, 0: 6, 1: -4, 2: 1},
}

_MP_FUNCTIONS = {
    "sin": mp.sin,
    "cos": mp.cos,
    "tan": mp.tan,
    "exp": mp.exp,
    "log": mp.log,
    "sqrt": mp.sqrt,
    "sinh": mp.sinh,
    "cosh": mp.cosh,
    "tanh": mp.tanh,
    "atan": mp.atan,
}


def mp_eval(node: ex.Expr, x1, x2):
    """Evaluate an expression AST with mpmath arithmetic."""
    if isinstance(node, ex.Literal):
        return mp.mpf(node.value)
    if isinstance(node, ex.Var):
        return x1 if node.name == "x1" else x2
    if isinstance(node, ex.Const):
        return mp.pi if node.name == "pi" else mp.e
    if isinstance(node, ex.Neg):
        return -mp_eval(node.arg, x1, x2)
    if isinstance(node, ex.Add):
        return mp_eval(node.left, x1, x2) + mp_eval(node.right, x1, x2)
    if isinstance(node, ex.Sub):
        return mp_eval(node.left, x1, x2) - mp_eval(node.right, x1, x2)
    if isinstance(node, ex.Mul):
        return mp_eval(node.left, x1, x2) * mp_eval(node.right, x1, x2)
    if isinstance(node, ex.Div):
        return mp_eval(node.left, x1, x2) / mp_eval(node.right, x1, x2)
    if isinstance(node, ex.Pow):
        return mp.power(mp_eval(node.base, x1, x2), mp_eval(node.exponent, x1, x2))
    if isinstance(node, ex.Call):
        return _MP_FUNCTIONS[node.func](mp_eval(node.arg, x1, x2))
    raise TypeError(f"not an expression node: {node!r}")


def fd_partial(node: ex.Expr, point, a: int, b: int, h: float = 1e-3) -> float:
    """Central-difference estimate of d^a_1 d^b_2 at ``point`` (O(h^2))."""
    hh = mp.mpf(h)
    x1 = mp.mpf(point[0])
    x2 = mp.mpf(point[1])
    total = mp.mpf(0)
    for i, wi in _FD_WEIGHTS[a].items():
        for j, wj in _FD_WEIGHTS[b].items():
            total += wi * wj * mp_eval(node, x1 + i * hh, x2 + j * hh)
    return float(total / hh ** (a + b))


def fd_agrees(node: ex.Expr, point, order: int, rtol: float = 1e-5, h: float = 1e-3) -> bool:
    """Compare every stored jet coefficient against the FD oracle."""
    jet = ex.eval_jet(node, point, order)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            expected = fd_partial(node, point, a, b, h)
            actual = jet.deriv(a, b)
            if abs(actual - expected) > rtol * max(1.0, abs(expected)):
                return False
    return True


# -- random smooth expressions ------------------------------------------------------

_SMOOTH_CALLS = ("sin", "cos", "tanh", "atan")


def random_smooth_expr(rng: random.Random, depth: int = 3) -> ex.Expr:
    """Globally smooth expression tree with moderate derivative growth."""
    if depth == 0:
        kind = rng.random()
        if kind < 0.4:
            return ex.Var("x1")
        if kind < 0.8:
            return ex.Var("x2")
        return ex.Literal(round(rng.uniform(0.1, 1.5), 3))
    kind = rng.random()
    if kind < 0.22:
        return ex.Add(random_smooth_expr(rng, depth - 1), random_smooth_expr(rng, depth - 1))
    if kind < 0.40:
        return ex.Sub(random_smooth_expr(rng, depth - 1), random_smooth_expr(rng, depth - 1))
    if kind < 0.58:
        return ex.Mul(random_smooth_expr(rng, depth - 1), random_smooth_expr(rng, depth - 1))
    if kind < 0.72:
        return ex.Call(rng.choice(_SMOOTH_CALLS), random_smooth_expr(rng, depth - 1))
    if kind < 0.82:
        return ex.Call(
            "exp", ex.Mul(ex.Literal(0.3), random_smooth_expr(rng, depth - 1))
        )
    if kind < 0.92:
        return ex.Pow(random_smooth_expr(rng, depth - 1), ex.Literal(2.0))
    return ex.Neg(random_smooth_expr(rng, depth - 1))


def random_polynomial(rng: random.Random, max_degree: int = 4):
    """(monomial dict, AST) pair for a random bivariate polynomial."""
    monomials = {}
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            if rng.random() < 0.45:
                monomials[(m, n)] = round(rng.uniform(-3.0, 3.0), 4)
    if not monomials:
        monomials[(1, 0)] = 1.0
    node = None
    for (m, n), coeff in sorted(monomials.items()):
        term: ex.Expr = ex.Literal(abs(coeff))
        if coeff < 0:
            term = ex.Neg(term)
        if m:
            term = ex.Mul(term, ex.Pow(ex.Var("x1"), ex.Literal(float(m))))
        if n:
            term = ex.Mul(term, ex.Pow(ex.Var("x2"), ex.Literal(float(n))))
        node = term if node is None else ex.Add(node, term)
    return monomials, node


def polynomial_partial(monomials, point, a: int, b: int) -> float:
    """Exact derivative of a monomial dict: the analytic expansion oracle."""
    import math

    x1, x2 = point
    total = 0.0
    for (m, n), coeff in monomials.items():
        if m < a or n < b:
            continue
        factor = math.factorial(m) // math.factorial(m - a)
        factor *= math.factorial(n) // math.factorial(n - b)
        total += coeff * factor * x1 ** (m - a) * x2 ** (n - b)
    return total


# -- jet arithmetic references ---------------------------------------------------


def mul_reference(a: tuple, b: tuple, order: int) -> tuple:
    """Truncated product of two Taylor coefficient tuples of ``order``: the
    table-driven accumulation loop the generated product kernels replace."""
    out = [0.0] * len(jets.MONOMIALS[order])
    for i, j, k in jets._MUL_TABLE[order]:
        out[k] += a[i] * b[j]
    return tuple(out)


def compose_reference(jet: jets.Jet, derivs: list[float]) -> tuple:
    """Taylor coefficients of h(f) by Horner's rule on whole jets, from the
    zero jet: add the constant jet of the next Taylor term to every slot, then
    multiply by the perturbation with ``mul_reference``."""
    n = jet.order
    taylor = [derivs[k] / jets._FACTORIALS[k] for k in range(n + 1)]
    p = (0.0,) + jet._t[1:]
    result = (0.0,) * len(jets.MONOMIALS[n])
    for k in range(n, -1, -1):
        if k < n:
            result = mul_reference(result, p, n)
        constant = jets.Jet.constant(taylor[k], n)._t
        result = tuple(x + y for x, y in zip(result, constant))
    return result


def coeffs_reference(jet: jets.Jet) -> tuple:
    """Raw derivatives from Taylor coefficients, scaling by a! and then b!."""
    return tuple(
        jet._t[i] * jets._FACTORIALS[a] * jets._FACTORIALS[b]
        for i, (a, b) in enumerate(jets.MONOMIALS[jet.order])
    )


# -- recursive expression evaluation -------------------------------------------------


def eval_jet_reference(node: ex.Expr, point, order: int) -> jets.Jet:
    """Evaluate an AST over jets by recursion on the tree: every constant is
    rebuilt and every power re-resolved at each call."""
    env = {
        "x1": jets.Jet.variable(float(point[0]), 1, order),
        "x2": jets.Jet.variable(float(point[1]), 2, order),
    }
    return _eval(node, env, order)


def _eval(e: ex.Expr, env: dict, order: int) -> jets.Jet:
    try:
        rule = _EVAL_RULES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return rule(e, env, order)


_EVAL_RULES = {
    ex.Literal: lambda e, env, order: jets.Jet.constant(e.value, order),
    ex.Var: lambda e, env, order: env[e.name],
    ex.Const: lambda e, env, order: jets.Jet.constant(ex.CONSTANTS[e.name], order),
    ex.Neg: lambda e, env, order: -_eval(e.arg, env, order),
    ex.Add: lambda e, env, order: _eval(e.left, env, order) + _eval(e.right, env, order),
    ex.Sub: lambda e, env, order: _eval(e.left, env, order) - _eval(e.right, env, order),
    ex.Mul: lambda e, env, order: _eval(e.left, env, order) * _eval(e.right, env, order),
    ex.Div: lambda e, env, order: _eval(e.left, env, order) / _eval(e.right, env, order),
    ex.Pow: lambda e, env, order: _power(_eval(e.base, env, order), _eval(e.exponent, env, order)),
    ex.Call: lambda e, env, order: jets.FUNCTIONS[e.func](_eval(e.arg, env, order)),
}


def _power(base: jets.Jet, exponent: jets.Jet) -> jets.Jet:
    if exponent.is_constant():
        v = exponent.value
        if not math.isfinite(v):
            raise jets.DomainError(f"power with non-finite constant exponent {v!r}")
        n = round(v)
        if v == n and abs(n) <= 8:
            return jets.integer_power(base, int(n))
    return jets.exp(exponent * jets.log(base))
