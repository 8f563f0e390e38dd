"""The Wagner lift: geometry of the frame bundle over a conformal surface.

In the trivialization chart (x1, x2, phi) the lifted orthonormal frame is

    E1 = e1 - c112 d_phi        E2 = e2 - c212 d_phi        E3 = K d_phi

which requires K != 0; below ``KAPPA_MIN`` the frame matrix is numerically
singular and every operation raises ``SingularCurvature``.  Writing u_i for
e_i(K)/K, the lifted structure functions are

    chat^1_12 = c112    chat^2_12 = c212    chat^3_12 = -1
    chat^3_13 = u1      chat^3_23 = u2      (all others zero)

and the six independent curvature components, in the fixed pairing
M(ab, cd) = <R(E_a, E_b) E_c, E_d>, come out as

    M(12,12) = 3/4 - K
    M(12,13) = -u1
    M(12,23) = -u2
    M(13,13) = -1/4 - e1(u1) - c112 u2 + u1^2
    M(13,23) = -e1(u2) + c112 u1 + u1 u2
    M(23,23) = -1/4 - e2(u2) + c212 u1 + u2^2

The signs of the two mixed M(12, a3) components are pinned by the generic
frame-calculus oracle (``verify.verify_lift`` re-checks them at every sampled
point and records the resolution); sectional curvatures use K(X,Y) = <R(X,Y)Y,X>.
The bracket oracle, the nonholonomity and the closed table are straight-line
functions of one checked record, which a surface tests once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import connection
from .connection import ConnectionTable, CurvatureTable, FramePoint
from .jets import DomainError
from .surface import (
    KAPPA_MIN,
    ConformalJets,
    ConformalSurface,
    Point,
    SingularCurvature,
    require_finite,
    surface_jets,
)


def _checked_jets(surface: ConformalSurface, x: Point) -> ConformalJets:
    """The ``surface_jets`` record at ``x``, its K and finiteness tested once per
    surface: a surface keeps the last record that passed, and one that raised is tested again."""
    p = surface_jets(surface, x)
    if surface._last_checked is not p:
        K = p.K.value
        if abs(K) < KAPPA_MIN or p.u1 is None:
            raise SingularCurvature(x, K)
        # A finite K bounds c1 and c2, and finite u_i bound e_i(K).
        (a, b), (c, d) = p.ddlogK
        require_finite((K, p.u1.value, p.u2.value, a, b, c, d), x)
        object.__setattr__(surface, "_last_checked", p)
    return p


# -- lifted frame ---------------------------------------------------------------


def _coefficient_rows(p: ConformalJets) -> tuple:
    """Frame coefficient fields as (value, d_1, d_2), the Taylor slots of the record's
    order-1 jets (scale 1), rows E1, E2, E3, columns (d1, d2, d_phi)."""
    em, zero = p.em._t, (0.0, 0.0, 0.0)
    (c1, c11, c12), (c2, c21, c22) = p.c1._t, p.c2._t
    return (
        (em, zero, (-c1, -c11, -c12)),
        (zero, em, (-c2, -c21, -c22)),
        (zero, zero, p.K._t),
    )


def lifted_frame(surface: ConformalSurface, x: Point) -> tuple:
    """Rows E1, E2, E3 of the g-hat-orthonormal frame over ``x`` in the basis
    (d_1, d_2, d_phi), the value slots of ``_coefficient_rows``; raises
    ``SingularCurvature`` if K ~ 0."""
    rows = _coefficient_rows(_checked_jets(surface, x))
    return tuple([(d1[0], d2[0], dphi[0]) for d1, d2, dphi in rows])


@cache
def _bracket_kernel(table: bool):
    """``_coefficient_rows`` -> the table chat[k][i][j] (``table``) or the N of [E1, E2].

    Per pair (i, j): the chart components v of [E_i, E_j], where only d_1 and d_2
    act (the coefficients are phi-independent), and v = a E1 + b E2 + N d_phi by
    forward substitution, the frame being lower triangular in (d_1, d_2, d_phi),
    then N / K on E3 = K d_phi.  Each is one expression in the order of the loops
    it writes out, so it rounds as they did."""
    pairs = ((0, 1), (0, 2), (1, 2)) if table else ((0, 1),)
    lines = [f"{connection._nested(lambda *s: 'r%d%d%d' % s, 3, 3)} = rows"]
    for i, j in pairs:
        v = [f"0.0 + r{i}00 * r{j}{m}1 - r{j}00 * r{i}{m}1 + r{i}10 * r{j}{m}2 - r{j}10 * r{i}{m}2"
             for m in range(3)]
        lines += [f"a{i}{j} = ({v[0]}) / r000", f"b{i}{j} = ({v[1]}) / r110",
                  f"n{i}{j} = {v[2]} - (a{i}{j} * r020 + b{i}{j} * r120)"] + [f"k{i}{j} = n{i}{j} / r220"] * table
    planes = "".join(f"((0.0, {x}01, {x}02), (-{x}01, 0.0, {x}12), (-{x}02, -{x}12, 0.0)), " for x in "abk")
    lines.append(f"return ({planes})" if table else "return n01")
    exec("def kernel(rows):\n    " + "\n    ".join(lines) + "\n", namespace := {})
    return namespace["kernel"]


def nonholonomity(surface: ConformalSurface, x: Point) -> float:
    """d_phi-component of the vertical projection of [E1, E2]; equals -K(x).

    Computed by expanding the bracket of the horizontal coefficient fields and
    subtracting their horizontal part (``_bracket_kernel``), not citing the curvature.
    """
    rows = _coefficient_rows(surface_jets(surface, x))
    if rows[0][0][0] == 0.0:  # the frame's e^-lambda, which the substitution divides by
        raise DomainError(f"e^-lambda underflows to 0.0 at point {x!r}")
    N = _bracket_kernel(False)(rows)
    require_finite((N,), x)
    return N


# -- lifted structure functions ----------------------------------------------------


@dataclass(frozen=True)
class LiftedStructure:
    """The five chat^k_ij values that can be nonzero plus the base curvature
    K; c113, c123, c213 and c223 vanish for every lift."""

    c112: float
    c212: float
    c312: float
    c313: float
    c323: float
    K: float

    def table(self) -> tuple:
        """Full antisymmetric table chat[k][i][j] (0-based indices), zeros filled."""
        return _lifted_table(self.c112, self.c212, self.c312, self.c313, self.c323)


def lifted_structure(surface: ConformalSurface, x: Point) -> LiftedStructure:
    """Closed-form structure functions of the lifted frame at ``x``."""
    p = _checked_jets(surface, x)
    return LiftedStructure(
        c112=p.c1.value,
        c212=p.c2.value,
        c312=-1.0,
        c313=p.u1.value,
        c323=p.u2.value,
        K=p.K.value,
    )


def bracket_structure(surface: ConformalSurface, x: Point) -> tuple:
    """Oracle for the structure functions: numerically bracket the frame
    coefficient fields and re-expand each bracket in the lifted frame
    (``_bracket_kernel``).  Returns the full table chat[k][i][j]."""
    return _bracket_kernel(True)(_coefficient_rows(_checked_jets(surface, x)))


# -- lifted connection ----------------------------------------------------------


def _lifted_table(c1: float, c2: float, c312: float, u1: float, u2: float) -> tuple:
    """chat[k][i][j] from one slot (value or a chart partial) of c112, c212,
    chat^3_12, u1 and u2; the other entries are zero."""
    z = 0.0
    return (
        ((z, c1, z), (-c1, z, z), (z, z, z)),
        ((z, c2, z), (-c2, z, z), (z, z, z)),
        ((z, c312, u1), (-c312, z, u2), (-u1, -u2, z)),
    )


# The 55 slots (table, k, i, j) of (c, d_1 c, d_2 c) that are 0.0 at every
# lifted point: the zeros of the table's layout, and chat^3_12's constant partials.
_LIFTED_ZEROS = connection._zero_slots(
    (_lifted_table(1.0, 1.0, 1.0, 1.0, 1.0), *[_lifted_table(1.0, 1.0, 0.0, 1.0, 1.0)] * 2)
)


def lift_frame_point(surface: ConformalSurface, x: Point) -> FramePoint:
    """The lifted orthonormal frame at ``x`` as a generic FramePoint (dim 3),
    one per ``ConformalJets`` record: a surface keeps its last, keyed by the
    identity of the record ``_checked_jets`` returns, so the routes at a point
    share it."""
    p = _checked_jets(surface, x)
    last = surface._last_frame
    if last[0] is not p:
        c1, c2, u1, u2 = p.c1._t, p.c2._t, p.u1._t, p.u2._t
        # chat^3_12 = -1 is constant: its partials are 0.0, negated to -0.0.
        c = _lifted_table(c1[0], c2[0], -1.0, u1[0], u2[0])
        dc = tuple(_lifted_table(c1[s], c2[s], 0.0, u1[s], u2[s]) for s in (1, 2))
        last = (p, FramePoint(dim=3, c=c, dc=dc, em=p.em.value, zeros=_LIFTED_ZEROS))
        object.__setattr__(surface, "_last_frame", last)
    return last[1]


def lifted_connection(surface: ConformalSurface, x: Point) -> ConnectionTable:
    """Levi-Civita coefficients of the lifted metric, via the Koszul formula
    applied to the closed-form structure functions."""
    return connection.koszul(lift_frame_point(surface, x))


# -- lifted curvature ----------------------------------------------------------


_PLANES = ((1, 2), (1, 3), (2, 3))
# The keys of ``closed_pair_components``, in the order of ``_closed_components``.
_PAIR_KEYS = tuple((p, q) for n, p in enumerate(_PLANES) for q in _PLANES[n:])


def _closed_components(p: ConformalJets) -> tuple:
    """The six M(ab, cd) in ``_PAIR_KEYS`` order."""
    if p.u1 is None or p.ddlogK is None:
        raise ValueError("curvature ratios unavailable: K vanishes at the point")
    c1, c2, K, u1, u2 = p.c1.value, p.c2.value, p.K.value, p.u1.value, p.u2.value
    dd = p.ddlogK
    return (0.75 - K, -u1, -u2,
            -0.25 - dd[0][0] - c1 * u2 + u1 * u1,
            -dd[0][1] + c1 * u1 + u1 * u2,
            -0.25 - dd[1][1] + c2 * u1 + u2 * u2)


def closed_pair_components(p: ConformalJets) -> dict:
    """The six independent components M(ab, cd) = <R(E_a,E_b)E_c, E_d>."""
    return dict(zip(_PAIR_KEYS, _closed_components(p)))


@cache
def _closed_table_kernel():
    """(m0, ..., m5) -> R[l][i][j][k] for the components in ``_PAIR_KEYS``
    order: the symmetric fill run once on their names, so every entry is
    ``mN``, ``-mN`` or 0.0 (i = j or k = l) in one nested return."""
    R = {}
    for n, ((a, b), (c, d)) in enumerate(_PAIR_KEYS):
        for i, j, k, l in ((a - 1, b - 1, c - 1, d - 1), (c - 1, d - 1, a - 1, b - 1)):
            R[l, i, j, k] = R[k, j, i, l] = f"m{n}"
            R[k, i, j, l] = R[l, j, i, k] = f"-m{n}"
    body = connection._nested(lambda *index: R.get(index, "0.0"), 3, 4)
    exec(f"def kernel(m0, m1, m2, m3, m4, m5):\n    return {body}\n", namespace := {})
    return namespace["kernel"]


def table_from_pair_components(components: dict) -> CurvatureTable:
    """The full lowered table R[l][i][j][k] = <R(E_i,E_j)E_k, E_l>, filled
    from the six components by the pair symmetry and the antisymmetries in
    (i,j) and (k,l); entries with i = j or k = l are 0.0."""
    m = map(components.__getitem__, _PAIR_KEYS)
    return CurvatureTable(dim=3, R=_closed_table_kernel()(*m))


def lifted_curvature_closed(surface: ConformalSurface, x: Point) -> CurvatureTable:
    """Closed-form curvature of the lifted metric at ``x`` (full lowered table)."""
    return CurvatureTable(dim=3, R=_closed_table_kernel()(*_closed_components(_checked_jets(surface, x))))


def lifted_curvature_oracle(surface: ConformalSurface, x: Point) -> CurvatureTable:
    """Generic frame-calculus route to the same table; the cross-check."""
    return connection.curvature(lift_frame_point(surface, x))


def lifted_sectional(surface: ConformalSurface, x: Point, i: int, j: int) -> float:
    """Sectional curvature of the frame plane (E_i, E_j), 1-based indices."""
    return connection.sectional(lifted_curvature_closed(surface, x), i, j)


# ``verify_lift`` belongs to the verify report; this binding keeps the name
# ``lift.verify_lift`` that callers and ``perfbench`` tracing look up here.
from .verify import verify_lift  # noqa: E402  (verify imports this module)
