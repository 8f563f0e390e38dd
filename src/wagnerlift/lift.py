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
frame-calculus oracle (``verify_lift`` re-checks them at every sampled point
and records the resolution); sectional curvatures use K(X,Y) = <R(X,Y)Y,X>.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import connection
from .connection import (
    ConnectionTable,
    CurvatureTable,
    FramePoint,
    FrameSampler,
    first_partials,
)
from .jets import DomainError
from .surface import (
    BaseGeometry,
    ConformalJets,
    ConformalSurface,
    Point,
    geometry_from_jets,
    sample_points,
    surface_jets,
)

KAPPA_MIN = 1e-8


class SingularCurvature(Exception):
    """The Gaussian curvature vanishes (or nearly so) at the queried point,
    so the lifted metric is singular along the fiber above it."""

    def __init__(self, point: Point, curvature_value: float, kappa_min: float = KAPPA_MIN):
        super().__init__(
            f"Gaussian curvature {curvature_value!r} at point "
            f"({point[0]!r}, {point[1]!r}) is below the singularity threshold {kappa_min!r}"
        )
        self.point = point
        self.curvature = curvature_value


def _checked_jets(surface: ConformalSurface, x: Point, kappa_min: float) -> ConformalJets:
    p = surface_jets(surface, x, 4)
    K = p.K.value
    if abs(K) < kappa_min or p.u1 is None:
        raise SingularCurvature(x, K, kappa_min)
    # v - v is 0.0 for a finite v and NaN otherwise.  A finite K bounds c1
    # and c2, and finite u_i bound e_i(K).
    u1, u2, ((a, b), (c, d)) = p.u1.value, p.u2.value, p.ddlogK
    if (K - K) + (u1 - u1) + (u2 - u2) + (a - a) + (b - b) + (c - c) + (d - d) != 0.0:
        raise DomainError(f"non-finite geometry at point {x!r}")
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


def table_from_pair_components(components: dict) -> CurvatureTable:
    """Assemble the full lowered table R[l][i][j][k] = <R(E_i,E_j)E_k, E_l>."""
    R = tuple(
        tuple(
            tuple(
                tuple(
                    _pair_form(components, i + 1, j + 1, k + 1, l + 1)
                    for k in range(3)
                )
                for j in range(3)
            )
            for i in range(3)
        )
        for l in range(3)
    )
    return CurvatureTable(dim=3, R=R)


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


# -- verification harness ----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerifyReport:
    surface: str
    samples: int
    seed: int
    tolerance: float
    checks: list[CheckResult] = field(default_factory=list)
    resolved_signs: dict = field(default_factory=dict)
    curvature_summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [check.to_dict() for check in self.checks],
            "resolved_signs": self.resolved_signs,
            "curvature_summary": self.curvature_summary,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sign(value: float) -> int:
    return 1 if value > 0 else -1


def verify_lift(
    surface: ConformalSurface,
    sample_count: int,
    seed: int,
    tol: float,
    kappa_min: float = KAPPA_MIN,
) -> VerifyReport:
    """Cross-validate the closed-form lift against the generic oracles at
    random chart points: (a) structure functions vs numerical brackets,
    (b) connection vs the Koszul formula on the bracket-derived table,
    (c) closed-form curvature vs the generic curvature formula.

    Also records the nonholonomity identity and the resolved signs of the
    sectional curvatures and of the mixed curvature components.
    """
    rng = random.Random(seed)
    points = sample_points(surface, sample_count, rng)

    dev_structure = 0.0
    dev_connection = 0.0
    dev_curvature = 0.0
    dev_nonholonomity = 0.0
    sectional_signs: dict[str, set] = {"12": set(), "13": set(), "23": set()}
    mixed_signs: dict[str, set] = {"m1213": set(), "m1223": set()}
    component_1212: list[float] = []
    sectional_values: dict[str, list[float]] = {"12": [], "13": [], "23": []}

    for x in points:
        structure = lifted_structure(surface, x, kappa_min)
        closed_table = structure.table()
        bracket_table = bracket_structure(surface, x, kappa_min)
        dev_structure = max(
            dev_structure,
            max(
                abs(closed_table[k][i][j] - bracket_table[k][i][j])
                for k in range(3)
                for i in range(3)
                for j in range(3)
            ),
        )

        gamma_closed = lifted_connection(surface, x, kappa_min)
        gamma_bracket = connection.koszul_values(bracket_table, 3)
        dev_connection = max(
            dev_connection,
            max(
                abs(gamma_closed.gamma[k][i][j] - gamma_bracket[k][i][j])
                for k in range(3)
                for i in range(3)
                for j in range(3)
            ),
        )

        closed_curv = lifted_curvature_closed(surface, x, kappa_min)
        oracle_curv = lifted_curvature_oracle(surface, x, kappa_min)
        dev_curvature = max(
            dev_curvature,
            max(
                abs(closed_curv.R[l][i][j][k] - oracle_curv.R[l][i][j][k])
                for l in range(3)
                for i in range(3)
                for j in range(3)
                for k in range(3)
            ),
        )

        dev_nonholonomity = max(
            dev_nonholonomity, abs(nonholonomity(surface, x) + structure.base.K)
        )

        component_1212.append(closed_curv.pair_component(1, 2, 1, 2))
        for label, (i, j) in (("12", (1, 2)), ("13", (1, 3)), ("23", (2, 3))):
            value = connection.sectional(closed_curv, i, j)
            sectional_signs[label].add(_sign(value))
            sectional_values[label].append(value)
        u1, u2 = structure.base.dlogK
        if abs(u1) > 1e-6:
            # Compare the (12,13) component against the +u1 normalisation.
            mixed_signs["m1213"].add(_sign(closed_curv.pair_component(1, 2, 1, 3) / u1))
        if abs(u2) > 1e-6:
            mixed_signs["m1223"].add(_sign(closed_curv.pair_component(1, 2, 2, 3) / u2))

    report = VerifyReport(
        surface=surface.name, samples=sample_count, seed=seed, tolerance=tol
    )
    report.checks.append(
        CheckResult("structure_functions_vs_brackets", dev_structure, tol, dev_structure <= tol)
    )
    report.checks.append(
        CheckResult("connection_vs_koszul_on_brackets", dev_connection, tol, dev_connection <= tol)
    )
    report.checks.append(
        CheckResult("curvature_closed_vs_oracle", dev_curvature, tol, dev_curvature <= tol)
    )
    report.checks.append(
        CheckResult(
            "nonholonomity_plus_curvature", dev_nonholonomity, 1e-9, dev_nonholonomity <= 1e-9
        )
    )

    def resolve(signs: set) -> int | None:
        return signs.pop() if len(signs) == 1 else None

    report.resolved_signs = {
        "sectional_12": resolve(sectional_signs["12"]),
        "sectional_13": resolve(sectional_signs["13"]),
        "sectional_23": resolve(sectional_signs["23"]),
        "sectional_signs_stable": all(len(s) <= 1 for s in sectional_signs.values()),
        # Mixed curvature components relative to a +u_i normalisation; -1 means
        # the oracle fixes M(12, a3) = -u_a.
        "mixed_1213_vs_plus_u1": resolve(mixed_signs["m1213"]),
        "mixed_1223_vs_plus_u2": resolve(mixed_signs["m1223"]),
    }
    report.curvature_summary = {
        "pair_1212": {"min": min(component_1212), "max": max(component_1212)},
        "sectional_12": {
            "min": min(sectional_values["12"]),
            "max": max(sectional_values["12"]),
        },
        "sectional_13": {
            "min": min(sectional_values["13"]),
            "max": max(sectional_values["13"]),
        },
        "sectional_23": {
            "min": min(sectional_values["23"]),
            "max": max(sectional_values["23"]),
        },
    }
    return report
