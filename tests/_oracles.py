"""Independent numerical oracles shared by the test modules.

The finite-difference oracle evaluates expressions with mpmath at high
precision, so central differences of 3rd/4th derivatives are limited by
truncation only, never by float cancellation.  The jet references are the
plain loops and the recursive AST interpreter that the library's kernels and
tapes replace, and the frame calculus and bracket oracle as they ran on whole
jets before they ran on first partials, and the entry-by-entry expansion of
the six curvature components, kept here to pin those bit for bit.
The linear-system connection and the constant frames are oracles that only
the tests need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from wagnerlift import connection
from wagnerlift import expr as ex
from wagnerlift import jets
from wagnerlift import lift
from wagnerlift.surface import surface_jets

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


# -- frame calculus on jets ------------------------------------------------------


def structure_functions(surface, x) -> tuple[float, float]:
    """(c^1_12, c^2_12) of the conformal orthonormal frame at ``x``, from an
    order-1 lambda jet: a third route besides the order-4 pipeline and the
    Lie bracket."""
    surface.require(x)
    lam = ex.eval_jet(surface._lam_tape, x, 1)
    em = jets.exp(-lam).value
    return (em * lam.deriv(0, 1), -em * lam.deriv(1, 0))


def solve_connection(c_values, dim: int) -> connection.ConnectionTable:
    """Brute-force oracle: solve the linear system

        Gamma^k_ij + Gamma^j_ik = 0        (metric compatibility)
        Gamma^k_ij - Gamma^k_ji = c^k_ij   (torsion-freeness)

    in the dim^3 unknowns by least squares.  Independent of any index formula.
    """
    n = dim
    m = n * n * n

    def unknown(k, i, j):
        return (k * n + i) * n + j

    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0.0] * m
                row[unknown(k, i, j)] += 1.0
                row[unknown(j, i, k)] += 1.0
                rows.append(row)
                rhs.append(0.0)
                row = [0.0] * m
                row[unknown(k, i, j)] += 1.0
                row[unknown(k, j, i)] -= 1.0
                rows.append(row)
                rhs.append(c_values[k][i][j])
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    gamma = tuple(
        tuple(tuple(float(solution[unknown(k, i, j)]) for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return connection.ConnectionTable(dim=n, gamma=gamma)


def constant_frame_sampler(c_values, dim: int) -> connection.FrameSampler:
    """Frame with constant structure functions (e.g. a left-invariant frame)."""

    zero = tuple(tuple((0.0,) * dim for _ in range(dim)) for _ in range(dim))

    def at(_) -> connection.FramePoint:
        return connection.FramePoint(dim, c_values, (zero, zero), lambda _i, _f1, _f2: 0.0)

    return connection.FrameSampler(dim=dim, at=at)


@dataclass(frozen=True)
class JetFramePoint:
    """Structure functions as jets and a frame derivative of jets."""

    dim: int
    c: tuple  # c[k][i][j], jets
    d: Callable[[int, jets.Jet], jets.Jet]


def jet_base_frame(surface, order: int = 4) -> connection.FrameSampler:
    """The conformal frame e_a = e^(-lambda) d_a, sampled as jets."""

    def at(x) -> JetFramePoint:
        p = surface_jets(surface, x, order)
        zero = jets.Jet.constant(0.0, p.c1.order)
        c = (
            ((zero, p.c1), (-p.c1, zero)),
            ((zero, p.c2), (-p.c2, zero)),
        )

        def d(i: int, f: jets.Jet) -> jets.Jet:
            return p.em * jets.diff(f, i + 1)

        return JetFramePoint(dim=2, c=c, d=d)

    return connection.FrameSampler(dim=2, at=at)


def jet_lift_frame(surface, kappa_min: float = lift.KAPPA_MIN) -> connection.FrameSampler:
    """The lifted frame, sampled as jets; E3 = K d_phi kills phi-independent fields."""

    def at(x) -> JetFramePoint:
        p = lift._checked_jets(surface, x, kappa_min)
        order = p.c1.order
        zero = jets.Jet.constant(0.0, order)
        minus_one = jets.Jet.constant(-1.0, order)

        def entry(k: int, i: int, j: int) -> jets.Jet:
            if (i, j) == (0, 1):
                return (p.c1, p.c2, minus_one)[k]
            if (i, j) == (1, 0):
                return (-p.c1, -p.c2, -minus_one)[k]
            if k == 2 and (i, j) == (0, 2):
                return p.u1
            if k == 2 and (i, j) == (2, 0):
                return -p.u1
            if k == 2 and (i, j) == (1, 2):
                return p.u2
            if k == 2 and (i, j) == (2, 1):
                return -p.u2
            return zero

        c = tuple(
            tuple(tuple(entry(k, i, j) for j in range(3)) for i in range(3))
            for k in range(3)
        )

        def d(i: int, f: jets.Jet) -> jets.Jet:
            if i == 2:
                return jets.Jet.constant(0.0, max(f.order - 1, 0))
            return p.em * jets.diff(f, i + 1)

        return JetFramePoint(dim=3, c=c, d=d)

    return connection.FrameSampler(dim=3, at=at)


def koszul_jets(point: JetFramePoint) -> tuple:
    """Connection coefficients as jets: Gamma^k_ij = (c^k_ij + c^j_ki + c^i_kj)/2."""
    n, c = point.dim, point.c
    return tuple(
        tuple(
            tuple(0.5 * (c[k][i][j] + c[j][k][i] + c[i][k][j]) for j in range(n))
            for i in range(n)
        )
        for k in range(n)
    )


def jet_values(table) -> tuple:
    """The values of a c[k][i][j]-shaped table of jets."""
    return tuple(tuple(tuple(f.value for f in row) for row in plane) for plane in table)


def curvature_jets(frame: connection.FrameSampler, x) -> connection.CurvatureTable:
    """``connection.curvature`` with e_i Gamma taken from jets of Gamma."""
    point = frame.at(x)
    n = frame.dim
    gamma_jets = koszul_jets(point)
    gamma = [[[gamma_jets[k][i][j].value for j in range(n)] for i in range(n)] for k in range(n)]
    dgamma = [
        [[[point.d(a, gamma_jets[l][j][k]).value for k in range(n)] for j in range(n)] for l in range(n)]
        for a in range(n)
    ]
    c = jet_values(point.c)

    R = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    for s in range(n):
                        total += gamma[l][i][s] * gamma[s][j][k]
                        total -= gamma[l][j][s] * gamma[s][i][k]
                        total -= c[s][i][j] * gamma[l][s][k]
                    R[l][i][j][k] = total
    frozen = tuple(
        tuple(tuple(tuple(R[l][i][j][k] for k in range(n)) for j in range(n)) for i in range(n))
        for l in range(n)
    )
    return connection.CurvatureTable(dim=n, R=frozen)


# -- bracket oracle on jets ------------------------------------------------------


def _coefficient_jets(p) -> tuple:
    zero = jets.Jet.constant(0.0, p.em.order)
    return (
        (p.em, zero, -p.c1),
        (zero, p.em, -p.c2),
        (zero, zero, p.K),
    )


def _bracket_components_jets(rows: tuple, i: int, j: int) -> list[float]:
    out = []
    for mu in range(3):
        total = 0.0
        for nu in range(2):
            total += rows[i][nu].value * jets.diff(rows[j][mu], nu + 1).value
            total -= rows[j][nu].value * jets.diff(rows[i][mu], nu + 1).value
        out.append(total)
    return out


def bracket_structure_jets(surface, x, kappa_min: float = lift.KAPPA_MIN) -> tuple:
    """``lift.bracket_structure`` with the frame coefficients differentiated as jets."""
    p = lift._checked_jets(surface, x, kappa_min)
    rows = _coefficient_jets(p)
    frame_matrix = np.array([[rows[k][mu].value for k in range(3)] for mu in range(3)])
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coefficients = np.linalg.solve(
            frame_matrix, np.array(_bracket_components_jets(rows, i, j))
        )
        for k in range(3):
            table[k][i][j] = float(coefficients[k])
            table[k][j][i] = -float(coefficients[k])
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def nonholonomity_jets(surface, x) -> float:
    """``lift.nonholonomity`` with the frame coefficients differentiated as jets."""
    p = surface_jets(surface, x, 4)
    rows = _coefficient_jets(p)
    bracket = _bracket_components_jets(rows, 0, 1)
    em = p.em.value
    a1 = bracket[0] / em
    a2 = bracket[1] / em
    return bracket[2] - (a1 * rows[0][2].value + a2 * rows[1][2].value)


# -- curvature table entry by entry ----------------------------------------------


def _pair_form(components: dict, a: int, b: int, c: int, d: int) -> float:
    """<R(E_a, E_b) E_c, E_d> extended from the six components by the
    antisymmetries in (a,b) and (c,d) and the pair symmetry."""
    if a == b or c == d:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -sign
    if c > d:
        c, d, sign = d, c, -sign
    key = ((a, b), (c, d))
    if key in components:
        return sign * components[key]
    return sign * components[((c, d), (a, b))]


def table_from_pair_form(components: dict) -> connection.CurvatureTable:
    """``lift.table_from_pair_components`` with each of the 81 entries looked
    up by ``_pair_form``."""
    R = tuple(
        tuple(
            tuple(
                tuple(_pair_form(components, i + 1, j + 1, k + 1, l + 1) for k in range(3))
                for j in range(3)
            )
            for i in range(3)
        )
        for l in range(3)
    )
    return connection.CurvatureTable(dim=3, R=R)
