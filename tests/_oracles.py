"""Independent numerical oracles shared by the test modules.

The finite-difference oracle evaluates expressions with mpmath at high
precision, so central differences of 3rd/4th derivatives are limited by
truncation only, never by float cancellation.  The jet references are the
plain loops and the recursive AST interpreter that the library's kernels and
tapes replace, and the frame calculus and bracket oracle as they ran on whole
jets before they ran on first partials, the Koszul and curvature index
loops and the frame derivative that the generated frame kernels replace,
``jets.compose`` as it multiplied by the perturbation's zero value slot and
as it ran every Horner step at full order (``compose_full_order``), and
the entry-by-entry expansion of the six curvature components, kept here to
pin those bit for bit.  So are the per-point steps of ``verify_lift`` as they
ran before they were straight-line code: the curvature table's fill loop,
the nested deviation walk and the conformal pipeline that divides by K
twice; and the bracket oracle, the nonholonomity and the closed curvature
table as the loops and the component dict that ``lift`` writes out as one
function each (``bracket_structure_loop``, ``nonholonomity_loop``,
``lifted_curvature_closed_loop``).  The jet bracket oracle re-expands with
that forward substitution, ``_reexpand``, in the same order;
``bracket_structure_lapack`` is the bracket oracle as it solved with LAPACK
before that substitution replaced it, kept as a reference within a bound.
The linear-system connection, the base and constant frame points, the
consistency residuals of the connection and curvature tables and the speeds
of lifted and base states are oracles that only the tests need.
``parse_reference`` is ``expr.parse`` as it ran on a per-character lexer
and one grammar method per precedence level; ``expr.parse`` must give the
same tree, or the same exception at the same position, for every text.
``csv_lines_reference`` is ``geodesic``'s CSV row writer as it formatted
every cell on its own, and ``json_rows_reference`` the JSON rows as they were
parsed back from those lines; the serialisers must give the same bytes.
``lifted_frame_reference`` is the lifted frame as the ``LiftedFrame`` record
built its matrix from the checked order-4 values, and ``base_rhs_reference``
the base flow as it read e^-lambda, c112 and c212 from an order-2 lambda jet;
``lift.lifted_frame`` and ``geodesic.integrate_base`` must keep their bits.
``conformal_pipeline_jets`` is the order-4 conformal pipeline as ``Jet``
arithmetic, the formulas that ``expr._Source`` writes out as
``surface._pipeline_kernel`` less float operations that change no bit; the
kernel must give the same bits in the slots it keeps, or the same exception.
The jet frames take their jets from it, at the orders of its formulas, not
from the library's order-1 record.  ``tangent_derivs_loop`` and
``atan_derivs_loop`` are the derivative sequences of tan, tanh and atan as
they built their polynomials at every call; the library's tables must give
the same bits.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from wagnerlift import connection
from wagnerlift import expr as ex
from wagnerlift import geodesic, jets, lift
from wagnerlift.jets import DomainError
from wagnerlift.surface import ConformalJets, require_finite, surface_jets

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


# -- state speeds -----------------------------------------------------------------


def lift_state_speed(y: tuple) -> float:
    """|Q| of a lifted state (x1, x2, phi, Q1, Q2, Q3)."""
    return math.sqrt(y[3] ** 2 + y[4] ** 2 + y[5] ** 2)


def base_state_speed(y: tuple) -> float:
    """|P| of a base state (x1, x2, P1, P2)."""
    return math.hypot(y[2], y[3])


# -- trajectory serialisation ----------------------------------------------------


def _fmt(value) -> str:
    return "" if value is None else format(value, ".17g")


def csv_lines_reference(trajectory):
    """One CSV line per sample, each cell formatted on its own, 17 significant
    digits.  A value that is not finite stops the output with a ``DomainError``
    naming its sample."""
    rows = zip(trajectory.t, trajectory.states, trajectory.speed, trajectory.q3_over_k)
    for (t, y, speed, ratio), wong in zip(rows, trajectory.wong):
        if trajectory.kind == "lift":
            x1, x2, phi, Q1, Q2, Q3 = y
            phi = math.remainder(phi, 2.0 * math.pi) if phi - phi == 0.0 else phi
            line = f"{t:.17g},{x1:.17g},{x2:.17g},{phi:.17g},{Q1:.17g},{Q2:.17g},{Q3:.17g},"
        else:
            x1, x2, P1, P2 = y
            line = f"{t:.17g},{x1:.17g},{x2:.17g},,{P1:.17g},{P2:.17g},,"
        line += f"{speed:.17g},{_fmt(ratio)},{_fmt(wong)}\n"
        if "n" in line:  # nan or inf
            raise DomainError(f"non-finite value in the sample at t={t!r}, point {(x1, x2)!r}")
        yield line


def json_rows_reference(trajectory) -> list:
    """The JSON rows as ``float`` of each CSV cell's text, None for an empty one."""
    return [[float(c) if c else None for c in line[:-1].split(",")]
            for line in csv_lines_reference(trajectory)]


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


def compose_through_value_slot(jet: jets.Jet, derivs: list[float]) -> tuple:
    """Taylor coefficients of h(f) as ``jets.compose`` formed them before it
    left out the perturbation's zero value slot: the product kernels also
    multiply by that 0.0, which turns an overflowed Taylor term into NaN."""
    n = jet.order
    kernel = jets._MUL_KERNELS[n]
    taylor = [derivs[k] / jets._FACTORIALS[k] for k in range(n + 1)]
    p = (0.0,) + jet._t[1:]
    result = (taylor[n] + 0.0,) + (0.0,) * (len(jets.MONOMIALS[n]) - 1)
    for k in range(n - 1, -1, -1):
        result = kernel(result, p)
        result = (result[0] + taylor[k],) + result[1:]
    return result


def _perturbation_kernel(n: int):
    """Straight-line product of two order-``n`` coefficient tuples, less the
    terms of ``b``'s value slot: the library's perturbation kernel before its
    Horner steps were truncated."""
    size = len(jets.MONOMIALS[n])
    a, b = (", ".join(f"{x}{i}" for i in range(size)) for x in "ab")
    slots = ", ".join(" + ".join(["0.0"] + [f"a{i}*b{j}" for i, j in terms if j >= 1])
                      for terms in jets._PRODUCT_TERMS[:size])
    namespace: dict = {}
    exec(f"def kernel(a, b):\n    {a}, = a\n    {b}, = b\n    return ({slots},)\n", namespace)
    return namespace["kernel"]


_PERTURBATION_KERNELS = [_perturbation_kernel(n) for n in range(jets.MAX_ORDER + 1)]


def compose_full_order(jet: jets.Jet, derivs: list[float]) -> tuple:
    """Taylor coefficients of h(f) as ``jets.compose`` formed them before each
    Horner step kept only the slots that reach the output: every step
    multiplies the whole jet by the perturbation, less its value slot."""
    n = jet.order
    kernel, f = _PERTURBATION_KERNELS[n], jet._t
    taylor = [derivs[k] / jets._FACTORIALS[k] for k in range(n + 1)]
    result = (taylor[n] + 0.0,) + (0.0,) * (len(jets.MONOMIALS[n]) - 1)
    for k in range(n - 1, -1, -1):
        result = kernel(result, f)
        result = (result[0] + taylor[k],) + result[1:]
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


def constant_frame_point(c_values, dim: int) -> connection.FramePoint:
    """Frame with constant structure functions (e.g. a left-invariant frame);
    its chart partials are zero, so with em = 0.0 every e_a gives +0.0."""
    zero = tuple(tuple((0.0,) * dim for _ in range(dim)) for _ in range(dim))
    return connection.FramePoint(dim=dim, c=c_values, dc=(zero, zero), em=0.0)


def base_frame_point(surface, x) -> connection.FramePoint:
    """The conformal orthonormal frame e_a = e^(-lambda) d_a at ``x`` (dim 2)."""
    p = surface_jets(surface, x)
    c1, c2 = p.c1._t, p.c2._t
    c, d1c, d2c = (
        (((0.0, c1[s]), (-c1[s], 0.0)), ((0.0, c2[s]), (-c2[s], 0.0))) for s in range(3)
    )
    return connection.FramePoint(dim=2, c=c, dc=(d1c, d2c), em=p.em.value)


@dataclass(frozen=True)
class JetFramePoint:
    """Structure functions as jets, and em = e^(-lambda) as a jet."""

    dim: int
    c: tuple  # c[k][i][j], jets
    em: jets.Jet

    def d(self, a: int, f: jets.Jet) -> jets.Jet:
        """e_a(f) as a jet; E3 = K d_phi kills phi-independent fields."""
        if a == 2:
            return jets.Jet.constant(0.0, max(f.order - 1, 0))
        return self.em * jets.diff(f, a + 1)


def jet_base_frame(surface, x) -> JetFramePoint:
    """The conformal frame e_a = e^(-lambda) d_a at ``x``, as jets."""
    surface_jets(surface, x)  # the library's errors at x
    p = conformal_pipeline_jets(surface.lambda_jet(x, 4))
    zero = jets.Jet.constant(0.0, p.c1.order)
    c = (
        ((zero, p.c1), (-p.c1, zero)),
        ((zero, p.c2), (-p.c2, zero)),
    )
    return JetFramePoint(dim=2, c=c, em=p.em)


def jet_lift_frame(surface, x) -> JetFramePoint:
    """The lifted frame at ``x``, as jets."""
    lift._checked_jets(surface, x)  # the library's errors at x
    p = conformal_pipeline_jets(surface.lambda_jet(x, 4))
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
    return JetFramePoint(dim=3, c=c, em=p.em)


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


def curvature_jets(point: JetFramePoint) -> connection.CurvatureTable:
    """``connection.curvature`` with e_i Gamma taken from jets of Gamma."""
    n = point.dim
    gamma_jets = koszul_jets(point)
    gamma = [[[gamma_jets[k][i][j].value for j in range(n)] for i in range(n)] for k in range(n)]
    dgamma = [
        [[[point.d(a, gamma_jets[l][j][k]).value for k in range(n)] for j in range(n)] for l in range(n)]
        for a in range(n)
    ]
    return _curvature_sum(n, jet_values(point.c), gamma, dgamma)


def _curvature_sum(n: int, c, gamma, dgamma) -> connection.CurvatureTable:
    """R[l][i][j][k] from c, Gamma and dgamma[a] = e_a Gamma, by the index
    loops, the s terms added in turn."""
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


# -- frame calculus loops --------------------------------------------------------


def frame_derivative(point: connection.FramePoint, a: int, f1: float, f2: float) -> float:
    """e_a(f) from the chart partials d_1 f, d_2 f (0-based frame index).

    E3 = K d_phi kills the phi-independent fields of the lift.
    """
    if a == 2:
        return 0.0
    # 0.0 + em*f is slot 0 of the jet product em * d_a(f): the sum
    # starts at +0.0, so a -0.0 product comes out as +0.0.
    return 0.0 + point.em * (f2 if a else f1)


def koszul_values_loop(c_values, dim: int):
    """``connection.koszul_values`` by the index loops its kernels replace."""
    return tuple([
        tuple([
            tuple([
                0.5 * (c_values[k][i][j] + c_values[j][k][i] + c_values[i][k][j])
                for j in range(dim)
            ])
            for i in range(dim)
        ])
        for k in range(dim)
    ])


def curvature_loop(point: connection.FramePoint) -> connection.CurvatureTable:
    """``connection.curvature`` by the index loops its kernels replace."""
    n, c = point.dim, point.c
    gamma = koszul_values_loop(c, n)
    g1, g2 = (koszul_values_loop(dc, n) for dc in point.dc)
    dgamma = [
        [
            [[frame_derivative(point, a, g1[l][j][k], g2[l][j][k]) for k in range(n)] for j in range(n)]
            for l in range(n)
        ]
        for a in range(n)
    ]
    return _curvature_sum(n, c, gamma, dgamma)


# -- bracket oracle on jets ------------------------------------------------------


def _coefficient_jets(p) -> tuple:
    zero = jets.Jet.constant(0.0, p.em.order)
    return (
        (p.em, zero, -p.c1),
        (zero, p.em, -p.c2),
        (zero, zero, p.K),
    )


def _bracket_components(rows: tuple, i: int, j: int) -> list[float]:
    """Chart components of [E_i, E_j] from the coefficient partials of
    ``lift._coefficient_rows``; the coefficients are phi-independent, so only
    d_1 and d_2 act."""
    ri, rj = rows[i], rows[j]
    p, q, r, s = ri[0][0], rj[0][0], ri[1][0], rj[1][0]
    return [0.0 + p * b1 - q * a1 + r * b2 - s * a2 for (_, a1, a2), (_, b1, b2) in zip(ri, rj)]


def _reexpand(rows: tuple, v) -> tuple[float, float, float]:
    """(a1, a2, N) with the chart vector ``v`` = a1 E1 + a2 E2 + N d_phi, by
    forward substitution: the frame is lower triangular in (d_1, d_2, d_phi)."""
    a1 = v[0] / rows[0][0][0]
    a2 = v[1] / rows[1][1][0]
    return a1, a2, v[2] - (a1 * rows[0][2][0] + a2 * rows[1][2][0])


def bracket_table_loop(rows: tuple) -> tuple:
    """``lift._bracket_kernel(True)``: the loop over the three brackets that
    it writes out, on the rows of ``lift._coefficient_rows``."""
    K = rows[2][2][0]
    pairs = ((0, 1), (0, 2), (1, 2))
    brackets = [_reexpand(rows, _bracket_components(rows, i, j)) for i, j in pairs]
    planes = zip(*[(a1, a2, N / K) for a1, a2, N in brackets])  # per k, the three brackets
    return tuple(((0.0, a, b), (-a, 0.0, c), (-b, -c, 0.0)) for a, b, c in planes)


def bracket_structure_loop(surface, x) -> tuple:
    """``lift.bracket_structure`` on the loop route."""
    return bracket_table_loop(lift._coefficient_rows(lift._checked_jets(surface, x)))


def nonholonomity_loop(surface, x) -> float:
    """``lift.nonholonomity`` on the loop route."""
    rows = lift._coefficient_rows(surface_jets(surface, x))
    if rows[0][0][0] == 0.0:
        raise DomainError(f"e^-lambda underflows to 0.0 at point {x!r}")
    N = _reexpand(rows, _bracket_components(rows, 0, 1))[2]
    require_finite((N,), x)
    return N


def _bracket_components_jets(rows: tuple, i: int, j: int) -> list[float]:
    out = []
    for mu in range(3):
        total = 0.0
        for nu in range(2):
            total += rows[i][nu].value * jets.diff(rows[j][mu], nu + 1).value
            total -= rows[j][nu].value * jets.diff(rows[i][mu], nu + 1).value
        out.append(total)
    return out


def _reexpand_jets(rows: tuple, v: list[float]) -> tuple[float, float, float]:
    """``_reexpand`` on the jets' values, in the same order."""
    a1 = v[0] / rows[0][0].value
    a2 = v[1] / rows[1][1].value
    return a1, a2, v[2] - (a1 * rows[0][2].value + a2 * rows[1][2].value)


def bracket_structure_jets(surface, x) -> tuple:
    """``lift.bracket_structure`` with the frame coefficients differentiated as jets."""
    rows = _coefficient_jets(lift._checked_jets(surface, x))
    K = rows[2][2].value
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a1, a2, N = _reexpand_jets(rows, _bracket_components_jets(rows, i, j))
        for k, coefficient in enumerate((a1, a2, N / K)):
            table[k][i][j] = coefficient
            table[k][j][i] = -coefficient
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def bracket_structure_lapack(surface, x) -> tuple:
    """The bracket oracle as it solved each bracket alone with LAPACK
    (``np.linalg.solve``: LU with partial pivoting) on the full 3x3 matrix of
    the library's frame rows, including the four zero slots that the
    substitution never reads."""
    rows = lift._coefficient_rows(lift._checked_jets(surface, x))
    frame_matrix = np.array([[rows[k][mu][0] for k in range(3)] for mu in range(3)])
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coefficients = np.linalg.solve(frame_matrix, np.array(_bracket_components(rows, i, j)))
        for k in range(3):
            table[k][i][j] = float(coefficients[k])
            table[k][j][i] = -float(coefficients[k])
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def nonholonomity_jets(surface, x) -> float:
    """``lift.nonholonomity`` with the frame coefficients differentiated as jets."""
    rows = _coefficient_jets(surface_jets(surface, x))
    return _reexpand_jets(rows, _bracket_components_jets(rows, 0, 1))[2]


def deviation_nested(a: tuple, b: tuple) -> float:
    """``verify._deviation`` over flattened lists instead of iterators."""
    while isinstance(a[0], tuple):
        a, b = [v for row in a for v in row], [v for row in b for v in row]
    return max(abs(x - y) for x, y in zip(a, b))


def tangent_derivs_loop(u: float, n: int, sign: float) -> list[float]:
    """The derivatives of tan (sign 1.0) or tanh (sign -1.0) at the value
    ``u`` of the function, building each polynomial in the call, as
    ``jets._tan`` and ``jets._tanh`` did before their tables."""
    derivs = [u]
    p = [0.0, 1.0]  # the polynomial y itself
    for _ in range(n):
        p = jets._poly_mul(jets._poly_diff(p), [1.0, 0.0, sign])
        derivs.append(jets._poly_eval(p, u))
    return derivs


def atan_derivs_loop(v: float, n: int) -> list[float]:
    """``jets._atan`` as it built each Q_k in the call, before its table."""
    derivs = [math.atan(v)]
    q = [1.0]
    w = 1.0 + v * v
    for k in range(1, n + 1):
        derivs.append(jets._poly_eval(q, v) / w**k)
        q = jets._poly_sub(
            jets._poly_mul(jets._poly_diff(q) or [0.0], [1.0, 0.0, 1.0]),
            jets._poly_mul([0.0, 2.0 * k], q),
        )
    return derivs


def conformal_pipeline_jets(lam: jets.Jet) -> ConformalJets:
    """``surface.conformal_pipeline`` as ``Jet`` arithmetic, the formulas its
    generated kernel writes out, less float operations that change no bit."""
    if lam.order != 4:
        raise ValueError("conformal pipeline needs a lambda jet of order 4")
    em = jets.exp(-lam)
    c1 = em * jets.diff(lam, 2)
    c2 = -(em * jets.diff(lam, 1))

    def e(axis: int, f: jets.Jet) -> jets.Jet:
        return em * jets.diff(f, axis)

    K = e(1, c2) - e(2, c1) - c1 * c1 - c2 * c2
    e1K = e(1, K)
    e2K = e(2, K)
    if K.value == 0.0:
        return ConformalJets(lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K)
    inverse_K = jets.reciprocal(K)  # what e1K / K and e2K / K would each compute
    u1 = e1K * inverse_K
    u2 = e2K * inverse_K
    # e_i(u_j).value is the order-0 product em * d_i(u_j): 0.0 + em0 * u_j's slot i.
    em0, (_, u11, u12), (_, u21, u22) = em.value, u1._t, u2._t
    ddlogK = ((0.0 + em0 * u11, 0.0 + em0 * u21), (0.0 + em0 * u12, 0.0 + em0 * u22))
    return ConformalJets(
        lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K, u1=u1, u2=u2, ddlogK=ddlogK
    )


def conformal_pipeline_two_reciprocals(lam: jets.Jet) -> ConformalJets:
    """``surface.conformal_pipeline`` of an order-4 lambda jet, with
    u_i = e_i(K) / K as two jet quotients and e_i(u_j) as jet products."""
    em = jets.exp(-lam)
    c1 = em * jets.diff(lam, 2)
    c2 = -(em * jets.diff(lam, 1))

    def e(axis: int, f: jets.Jet) -> jets.Jet:
        return em * jets.diff(f, axis)

    K = e(1, c2) - e(2, c1) - c1 * c1 - c2 * c2
    e1K = e(1, K)
    e2K = e(2, K)
    if K.value == 0.0:
        return ConformalJets(lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K)
    u1 = e1K / K
    u2 = e2K / K
    ddlogK = (
        (e(1, u1).value, e(1, u2).value),
        (e(2, u1).value, e(2, u2).value),
    )
    return ConformalJets(
        lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K, u1=u1, u2=u2, ddlogK=ddlogK
    )


# -- the lifted frame and the base flow as they were built ------------------------


def lifted_frame_reference(surface, x) -> tuple:
    """``lift.lifted_frame``'s rows as ``LiftedFrame.matrix`` held them."""
    p = lift._checked_jets(surface, x)
    em = p.em.value
    return ((em, 0.0, -p.c1.value), (0.0, em, -p.c2.value), (0.0, 0.0, p.K.value))


def base_rhs_reference(surface, b) -> tuple:
    """``geodesic.base_rhs`` on the order-2 jet pipeline's em, c1 and c2 (its
    K, which the flow never read, left out)."""
    x = (b.x1, b.x2)
    lam = surface.lambda_jet(x, 2)
    em = jets.exp(-lam)
    c1, c2 = em * jets.diff(lam, 2), -(em * jets.diff(lam, 1))
    em, c1, c2 = em.value, c1.value, c2.value
    require_finite((em, c1, c2), x, "frame fields")
    dP1, dP2 = geodesic._christoffel_contraction(c1, c2, b.P1, b.P2)
    return (em * b.P1, em * b.P2, -dP1, -dP2)


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


def closed_pair_components_reference(p: ConformalJets) -> dict:
    """``lift.closed_pair_components`` as the dict it wrote out key by key."""
    if p.u1 is None or p.ddlogK is None:
        raise ValueError("curvature ratios unavailable: K vanishes at the point")
    c1, c2, K, u1, u2 = p.c1.value, p.c2.value, p.K.value, p.u1.value, p.u2.value
    dd = p.ddlogK
    return {
        ((1, 2), (1, 2)): 0.75 - K,
        ((1, 2), (1, 3)): -u1,
        ((1, 2), (2, 3)): -u2,
        ((1, 3), (1, 3)): -0.25 - dd[0][0] - c1 * u2 + u1 * u1,
        ((1, 3), (2, 3)): -dd[0][1] + c1 * u1 + u1 * u2,
        ((2, 3), (2, 3)): -0.25 - dd[1][1] + c2 * u1 + u2 * u2,
    }


def lifted_curvature_closed_loop(surface, x) -> connection.CurvatureTable:
    """``lift.lifted_curvature_closed`` as the component dict and the fill loop."""
    return table_from_pair_loop(closed_pair_components_reference(lift._checked_jets(surface, x)))


def table_from_pair_loop(components: dict) -> connection.CurvatureTable:
    """``lift.table_from_pair_components`` as the fill loop over the six
    components that the generated table function replaces."""
    R = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for ((a, b), (c, d)), value in components.items():
        for i, j, k, l in ((a - 1, b - 1, c - 1, d - 1), (c - 1, d - 1, a - 1, b - 1)):
            R[l][i][j][k] = R[k][j][i][l] = value
            R[k][i][j][l] = R[l][j][i][k] = -value
    return connection.CurvatureTable(
        dim=3, R=tuple(tuple(tuple(map(tuple, t)) for t in r) for r in R)
    )


# -- consistency residuals of the connection and curvature tables ----------------


def compatibility_residual(table: connection.ConnectionTable) -> float:
    """max |Gamma^k_ij + Gamma^j_ik| (zero for a metric connection)."""
    n, gamma = table.dim, table.gamma
    return max(
        abs(gamma[k][i][j] + gamma[j][i][k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def torsion_residual(table: connection.ConnectionTable, c_values) -> float:
    """max |Gamma^k_ij - Gamma^k_ji - c^k_ij| (zero when torsion-free)."""
    n, gamma = table.dim, table.gamma
    return max(
        abs(gamma[k][i][j] - gamma[k][j][i] - c_values[k][i][j])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def _curvature_residual(table: connection.CurvatureTable, term) -> float:
    n = table.dim
    return max(
        abs(term(table.R, l, i, j, k))
        for l in range(n)
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def antisymmetry_ij_residual(table: connection.CurvatureTable) -> float:
    """max |R_lijk + R_ljik|."""
    return _curvature_residual(table, lambda R, l, i, j, k: R[l][i][j][k] + R[l][j][i][k])


def antisymmetry_lk_residual(table: connection.CurvatureTable) -> float:
    """max |R_lijk + R_kijl|."""
    return _curvature_residual(table, lambda R, l, i, j, k: R[l][i][j][k] + R[k][i][j][l])


def bianchi_residual(table: connection.CurvatureTable) -> float:
    """max |R_lijk + R_ljki + R_lkij| (first Bianchi identity)."""
    return _curvature_residual(
        table, lambda R, l, i, j, k: R[l][i][j][k] + R[l][j][k][i] + R[l][k][i][j]
    )


def pair_symmetry_residual(table: connection.CurvatureTable) -> float:
    """max |R_lijk - R_jkli|."""
    return _curvature_residual(table, lambda R, l, i, j, k: R[l][i][j][k] - R[j][k][l][i])


# -- the per-character lexer and five-method parser ------------------------------

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
        raise ex.ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


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
            raise ex.ParseError(f"expected {what}, got {got!r}", tok.pos)
        return self.advance()

    def parse_expr(self, depth: int = 0) -> ex.Expr:
        node = self.parse_term(depth + 1)
        while self.peek().kind in ("+", "-"):
            kind, height = self.advance().kind, self.height
            rhs = self.parse_term(depth + height + 1)  # the tree so far is its left sibling
            node = ex.Add(node, rhs) if kind == "+" else ex.Sub(node, rhs)
            self.height = max(height, self.height) + 1  # the height of the node parsed last
        return node

    def parse_term(self, depth: int) -> ex.Expr:
        node = self.parse_factor(depth + 1)
        while self.peek().kind in ("*", "/"):
            kind, height = self.advance().kind, self.height
            rhs = self.parse_factor(depth + height + 1)
            node = ex.Mul(node, rhs) if kind == "*" else ex.Div(node, rhs)
            self.height = max(height, self.height) + 1
        return node

    def parse_factor(self, depth: int) -> ex.Expr:
        if depth > ex._MAX_DEPTH:  # every recursive cycle of the grammar passes here
            raise ex.ParseError("expression too deeply nested", self.peek().pos)
        if self.peek().kind != "-":
            return self.parse_power(depth + 1)
        self.advance()
        node = ex.Neg(self.parse_factor(depth + 1))
        self.height += 1
        return node

    def parse_power(self, depth: int) -> ex.Expr:
        base = self.parse_atom(depth + 1)
        if self.peek().kind != "^":
            return base
        self.advance()
        height, exponent = self.height, self.parse_factor(depth + 1)
        self.height = max(height, self.height) + 1
        return ex.Pow(base, exponent)

    def parse_atom(self, depth: int) -> ex.Expr:
        tok, self.height = self.peek(), 1
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ex.ParseError(f"number {tok.text!r} out of range", tok.pos)
            return ex.Literal(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in ex.VARIABLES:
                return ex.Var(name)
            if name in ex.CONSTANTS:
                return ex.Const(name)
            if name in jets.FUNCTIONS:
                self.expect("(", f"'(' after function {name!r}")
                arg = self.parse_expr(depth + 1)
                self.expect(")", "')'")
                self.height += 1
                return ex.Call(name, arg)
            raise ex.UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect(")", "')'")
            return node
        got = tok.text or "end of input"
        raise ex.ParseError(f"expected a number, identifier, or '(', got {got!r}", tok.pos)


def parse_reference(source: str) -> ex.Expr:
    """``expr.parse`` as it ran on a per-character lexer and five grammar methods."""
    if not isinstance(source, str) or not source.strip():
        raise ex.ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ex.ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node
