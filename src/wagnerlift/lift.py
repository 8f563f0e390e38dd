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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connection
from .connection import (
    ConnectionTable,
    CurvatureTable,
    FramePoint,
    FrameSampler,
    first_partials,
)
from .surface import (
    KAPPA_MIN,
    BaseGeometry,
    ConformalJets,
    ConformalSurface,
    Point,
    SingularCurvature,
    geometry_from_jets,
    require_finite,
    surface_jets,
)


def _checked_jets(surface: ConformalSurface, x: Point, kappa_min: float) -> ConformalJets:
    p = surface_jets(surface, x, 4)
    K = p.K.value
    if abs(K) < kappa_min or p.u1 is None:
        raise SingularCurvature(x, K, kappa_min)
    # A finite K bounds c1 and c2, and finite u_i bound e_i(K).
    (a, b), (c, d) = p.ddlogK
    require_finite((K, p.u1.value, p.u2.value, a, b, c, d), x)
    return p


# -- lifted frame ---------------------------------------------------------------


@dataclass(frozen=True)
class LiftedFrame:
    """Coefficients of {E1, E2, E3} in the chart basis (d_1, d_2, d_phi).

    ``matrix[i]`` is the i-th frame field; the coefficients depend only on the
    base point, never on phi.
    """

    point: Point
    K: float
    matrix: tuple[tuple[float, float, float], ...]

    def determinant(self) -> float:
        m = self.matrix
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )


def lifted_frame(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> LiftedFrame:
    """The g-hat-orthonormal frame over ``x``; raises ``SingularCurvature`` if K ~ 0."""
    p = _checked_jets(surface, x, kappa_min)
    em = p.em.value
    return LiftedFrame(
        point=x,
        K=p.K.value,
        matrix=(
            (em, 0.0, -p.c1.value),
            (0.0, em, -p.c2.value),
            (0.0, 0.0, p.K.value),
        ),
    )


def _coefficient_rows(p: ConformalJets) -> tuple:
    """Frame coefficient fields as (value, d_1, d_2) partials, rows E1, E2, E3,
    columns (d1, d2, d_phi)."""
    em, zero = first_partials(p.em), (0.0, 0.0, 0.0)
    (c1, c11, c12), (c2, c21, c22) = first_partials(p.c1), first_partials(p.c2)
    return (
        (em, zero, (-c1, -c11, -c12)),
        (zero, em, (-c2, -c21, -c22)),
        (zero, zero, first_partials(p.K)),
    )


def _bracket_components(rows: tuple, i: int, j: int) -> list[float]:
    """Chart components of [E_i, E_j] from the coefficient partials.

    The coefficients are phi-independent, so only d_1 and d_2 act.
    """
    out = []
    for mu in range(3):
        total = 0.0
        for nu in range(2):
            total += rows[i][nu][0] * rows[j][mu][nu + 1]
            total -= rows[j][nu][0] * rows[i][mu][nu + 1]
        out.append(total)
    return out


def nonholonomity(surface: ConformalSurface, x: Point) -> float:
    """d_phi-component of the vertical projection of [E1, E2]; equals -K(x).

    Computed by expanding the bracket of the horizontal coefficient fields and
    subtracting their horizontal part, not by citing the curvature.
    """
    p = surface_jets(surface, x, 4)
    rows = _coefficient_rows(p)
    bracket = _bracket_components(rows, 0, 1)
    em = p.em.value
    # dpi[E1, E2] = a1 e1 + a2 e2 fixes the horizontal part of the expansion.
    a1 = bracket[0] / em
    a2 = bracket[1] / em
    return bracket[2] - (a1 * rows[0][2][0] + a2 * rows[1][2][0])


# -- lifted structure functions ----------------------------------------------------


@dataclass(frozen=True)
class LiftedStructure:
    """The nine independent chat^k_ij values plus the base geometry record."""

    c112: float
    c113: float
    c123: float
    c212: float
    c213: float
    c223: float
    c312: float
    c313: float
    c323: float
    base: BaseGeometry

    def table(self) -> tuple:
        """Full antisymmetric table chat[k][i][j] (0-based indices)."""
        independent = {
            (0, 0, 1): self.c112,
            (0, 0, 2): self.c113,
            (0, 1, 2): self.c123,
            (1, 0, 1): self.c212,
            (1, 0, 2): self.c213,
            (1, 1, 2): self.c223,
            (2, 0, 1): self.c312,
            (2, 0, 2): self.c313,
            (2, 1, 2): self.c323,
        }
        table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
        for (k, i, j), value in independent.items():
            table[k][i][j] = value
            table[k][j][i] = -value
        return tuple(tuple(tuple(row) for row in plane) for plane in table)


def lifted_structure(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> LiftedStructure:
    """Closed-form structure functions of the lifted frame at ``x``."""
    p = _checked_jets(surface, x, kappa_min)
    return LiftedStructure(
        c112=p.c1.value,
        c113=0.0,
        c123=0.0,
        c212=p.c2.value,
        c213=0.0,
        c223=0.0,
        c312=-1.0,
        c313=p.u1.value,
        c323=p.u2.value,
        base=geometry_from_jets(p),
    )


def bracket_structure(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> tuple:
    """Oracle for the structure functions: numerically bracket the frame
    coefficient fields and re-expand in the lifted frame (3x3 linear solve).
    Returns the full table chat[k][i][j]."""
    p = _checked_jets(surface, x, kappa_min)
    rows = _coefficient_rows(p)
    frame_matrix = np.array(
        [[rows[k][mu][0] for k in range(3)] for mu in range(3)]
    )
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        coefficients = np.linalg.solve(
            frame_matrix, np.array(_bracket_components(rows, i, j))
        )
        for k in range(3):
            table[k][i][j] = float(coefficients[k])
            table[k][j][i] = -float(coefficients[k])
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


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


def lift_frame_sampler(
    surface: ConformalSurface, kappa_min: float = KAPPA_MIN
) -> FrameSampler:
    """The lifted orthonormal frame as a generic FrameSampler (dim 3).

    Scalar fields on the bundle built from the base geometry are
    phi-independent, so E3 = K d_phi differentiates them to zero.
    """

    def at(x: Point) -> FramePoint:
        p = _checked_jets(surface, x, kappa_min)
        em = p.em.value
        c1, c2 = first_partials(p.c1), first_partials(p.c2)
        u1, u2 = first_partials(p.u1), first_partials(p.u2)
        # chat^3_12 = -1 is constant: its partials are 0.0, negated to -0.0.
        c = _lifted_table(c1[0], c2[0], -1.0, u1[0], u2[0])
        dc = tuple(_lifted_table(c1[s], c2[s], 0.0, u1[s], u2[s]) for s in (1, 2))

        def d(i: int, f1: float, f2: float) -> float:
            if i == 2:
                return 0.0
            # Slot 0 of the jet product em * d_i(f), +0.0 sum start included.
            return 0.0 + em * (f2 if i else f1)

        return FramePoint(dim=3, c=c, dc=dc, d=d)

    return FrameSampler(dim=3, at=at)


def lifted_connection(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> ConnectionTable:
    """Levi-Civita coefficients of the lifted metric, via the Koszul formula
    applied to the closed-form structure functions."""
    return connection.koszul(lift_frame_sampler(surface, kappa_min), x)


# -- lifted curvature ----------------------------------------------------------


def closed_pair_components(geometry: BaseGeometry) -> dict:
    """The six independent components M(ab, cd) = <R(E_a,E_b)E_c, E_d>."""
    if geometry.dlogK is None or geometry.ddlogK is None:
        raise ValueError("curvature ratios unavailable: K vanishes at the point")
    c1, c2, K = geometry.c112, geometry.c212, geometry.K
    u1, u2 = geometry.dlogK
    dd = geometry.ddlogK
    return {
        ((1, 2), (1, 2)): 0.75 - K,
        ((1, 2), (1, 3)): -u1,
        ((1, 2), (2, 3)): -u2,
        ((1, 3), (1, 3)): -0.25 - dd[0][0] - c1 * u2 + u1 * u1,
        ((1, 3), (2, 3)): -dd[0][1] + c1 * u1 + u1 * u2,
        ((2, 3), (2, 3)): -0.25 - dd[1][1] + c2 * u1 + u2 * u2,
    }


def table_from_pair_components(components: dict) -> CurvatureTable:
    """The full lowered table R[l][i][j][k] = <R(E_i,E_j)E_k, E_l>, filled
    from the six components by the pair symmetry and the antisymmetries in
    (i,j) and (k,l); entries with i = j or k = l stay 0.0."""
    R = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for ((a, b), (c, d)), value in components.items():
        for i, j, k, l in ((a - 1, b - 1, c - 1, d - 1), (c - 1, d - 1, a - 1, b - 1)):
            R[l][i][j][k] = R[k][j][i][l] = value
            R[k][i][j][l] = R[l][j][i][k] = -value
    return CurvatureTable(dim=3, R=tuple(tuple(tuple(map(tuple, t)) for t in r) for r in R))


def lifted_curvature_closed(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> CurvatureTable:
    """Closed-form curvature of the lifted metric at ``x`` (full lowered table)."""
    p = _checked_jets(surface, x, kappa_min)
    return table_from_pair_components(closed_pair_components(geometry_from_jets(p)))


def lifted_curvature_oracle(
    surface: ConformalSurface, x: Point, kappa_min: float = KAPPA_MIN
) -> CurvatureTable:
    """Generic frame-calculus route to the same table; the cross-check."""
    return connection.curvature(lift_frame_sampler(surface, kappa_min), x)


def lifted_sectional(
    surface: ConformalSurface, x: Point, i: int, j: int, kappa_min: float = KAPPA_MIN
) -> float:
    """Sectional curvature of the frame plane (E_i, E_j), 1-based indices."""
    return connection.sectional(lifted_curvature_closed(surface, x, kappa_min), i, j)


# ``verify_lift`` belongs to the verify report; this binding keeps the name
# ``lift.verify_lift`` that callers and ``perfbench`` tracing look up here.
from .verify import verify_lift  # noqa: E402  (verify imports this module)
