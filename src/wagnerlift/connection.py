"""Frame-based Levi-Civita calculus in dimension 2 or 3.

Everything here works for an arbitrary orthonormal frame described only by its
structure functions c^k_ij and a directional-derivative operator.  A
``FramePoint`` carries the values of c and their first chart partials, read
once from the jets of the base geometry, and ``d`` turns the chart partials of
a scalar into its frame derivative e_a; frame derivatives are therefore exact,
and the whole calculus runs on plain floats.  Conventions, used consistently
everywhere:

    Gamma^k_ij = <nabla_{e_i} e_j, e_k> = (c^k_ij + c^j_ki + c^i_kj) / 2
    R(X, Y) Z  = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R[l][i][j][k] = <R(e_i, e_j) e_k, e_l>      (lowering is trivial here)
    sectional(i, j) = <R(e_i, e_j) e_j, e_i>

This module is the generic oracle for the closed-form lift formulas: the
curvature comes from c and e_a alone, never from the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .surface import ConformalSurface, Point, surface_jets

FloatTable3 = tuple  # c[k][i][j]
FloatTable4 = tuple  # R[l][i][j][k]


@dataclass(frozen=True)
class FramePoint:
    """Structure functions, their chart partials and the frame-derivative
    operator at one point."""

    dim: int
    c: FloatTable3  # c[k][i][j] values; antisymmetric in (i, j)
    dc: tuple  # (d_1 c, d_2 c), each laid out like c
    d: Callable[[int, float, float], float]  # frame index (0-based), d_1 f, d_2 f -> e_i(f)


def first_partials(jet) -> tuple[float, float, float]:
    """(value, d_1, d_2) of a jet of order >= 1.  These are slots 0-2 of
    ``coeffs``, whose Taylor scale is 1, so they are the jet's own bits."""
    return jet.coeffs[:3]


@dataclass(frozen=True)
class FrameSampler:
    """An orthonormal frame field, sampled pointwise."""

    dim: int
    at: Callable[[Point], FramePoint]


@dataclass(frozen=True)
class ConnectionTable:
    """Levi-Civita coefficients Gamma^k_ij in an orthonormal frame."""

    dim: int
    gamma: FloatTable3  # gamma[k][i][j]

    def entry(self, k: int, i: int, j: int) -> float:
        """Gamma^k_ij with 1-based frame indices."""
        return self.gamma[k - 1][i - 1][j - 1]

    def compatibility_residual(self) -> float:
        """max |Gamma^k_ij + Gamma^j_ik| (zero for a metric connection)."""
        n = self.dim
        return max(
            abs(self.gamma[k][i][j] + self.gamma[j][i][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def torsion_residual(self, c_values) -> float:
        """max |Gamma^k_ij - Gamma^k_ji - c^k_ij| (zero when torsion-free)."""
        n = self.dim
        return max(
            abs(self.gamma[k][i][j] - self.gamma[k][j][i] - c_values[k][i][j])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


@dataclass(frozen=True)
class CurvatureTable:
    """Lowered curvature components R[l][i][j][k] = <R(e_i,e_j)e_k, e_l>."""

    dim: int
    R: FloatTable4

    def entry(self, l: int, i: int, j: int, k: int) -> float:
        """R_lijk with 1-based frame indices."""
        return self.R[l - 1][i - 1][j - 1][k - 1]

    def pair_component(self, a: int, b: int, c: int, d: int) -> float:
        """<R(e_a, e_b) e_c, e_d> with 1-based indices."""
        return self.R[d - 1][a - 1][b - 1][c - 1]

    def antisymmetry_ij_residual(self) -> float:
        n = self.dim
        return max(
            abs(self.R[l][i][j][k] + self.R[l][j][i][k])
            for l in range(n)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def antisymmetry_lk_residual(self) -> float:
        n = self.dim
        return max(
            abs(self.R[l][i][j][k] + self.R[k][i][j][l])
            for l in range(n)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def bianchi_residual(self) -> float:
        n = self.dim
        return max(
            abs(self.R[l][i][j][k] + self.R[l][j][k][i] + self.R[l][k][i][j])
            for l in range(n)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def pair_symmetry_residual(self) -> float:
        n = self.dim
        return max(
            abs(self.R[l][i][j][k] - self.R[j][k][l][i])
            for l in range(n)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def sectional(table: CurvatureTable, i: int, j: int) -> float:
    """Sectional curvature <R(e_i, e_j) e_j, e_i> of a frame plane (1-based)."""
    n = table.dim
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"frame indices must be in 1..{n}, got ({i}, {j})")
    if i == j:
        raise ValueError("sectional curvature needs two distinct frame directions")
    return table.R[i - 1][i - 1][j - 1][j - 1]


# -- connection -----------------------------------------------------------------


def koszul_values(c_values, dim: int):
    """Koszul coefficients Gamma^k_ij = (c^k_ij + c^j_ki + c^i_kj)/2 of a
    table of numbers; applied to the chart partials of c, it gives the chart
    partials of Gamma."""
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


def koszul(frame: FrameSampler, x: Point) -> ConnectionTable:
    """The unique metric-compatible torsion-free connection of the frame at ``x``."""
    n = frame.dim
    return ConnectionTable(dim=n, gamma=koszul_values(frame.at(x).c, n))


# -- curvature -----------------------------------------------------------------


def curvature(frame: FrameSampler, x: Point) -> CurvatureTable:
    """Full lowered curvature table from the structure functions at ``x``.

    R^l_ijk = e_i Gamma^l_jk - e_j Gamma^l_ik
              + Gamma^l_is Gamma^s_jk - Gamma^l_js Gamma^s_ik
              - c^s_ij Gamma^l_sk

    with e_i Gamma = d(i, d_1 Gamma, d_2 Gamma), from the chart partials of
    Gamma that the Koszul formula gives on the chart partials of c.
    """
    point = frame.at(x)
    n, c, d = frame.dim, point.c, point.d
    gamma = koszul_values(c, n)
    g1, g2 = (koszul_values(dc, n) for dc in point.dc)
    dgamma = [
        [[[d(a, g1[l][j][k], g2[l][j][k]) for k in range(n)] for j in range(n)] for l in range(n)]
        for a in range(n)
    ]

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
    return CurvatureTable(dim=n, R=frozen)


# -- frame samplers --------------------------------------------------------------


def base_frame_sampler(surface: ConformalSurface) -> FrameSampler:
    """The conformal orthonormal frame e_a = e^(-lambda) d_a as a FrameSampler."""

    def at(x: Point) -> FramePoint:
        p = surface_jets(surface, x, 4)
        em = p.em.value
        c1, c2 = first_partials(p.c1), first_partials(p.c2)
        c, d1c, d2c = (
            (((0.0, c1[s]), (-c1[s], 0.0)), ((0.0, c2[s]), (-c2[s], 0.0))) for s in range(3)
        )

        def d(i: int, f1: float, f2: float) -> float:
            # 0.0 + em*f is slot 0 of the jet product em * d_i(f): the sum
            # starts at +0.0, so a -0.0 product comes out as +0.0.
            return 0.0 + em * (f2 if i else f1)

        return FramePoint(dim=2, c=c, dc=(d1c, d2c), d=d)

    return FrameSampler(dim=2, at=at)
