"""Frame-based Levi-Civita calculus in dimension 2 or 3.

Everything here works for an arbitrary orthonormal frame described only by its
structure functions c^k_ij (as jets, so frame derivatives are exact) and a
directional-derivative operator.  Conventions, used consistently everywhere:

    Gamma^k_ij = <nabla_{e_i} e_j, e_k> = (c^k_ij + c^j_ki + c^i_kj) / 2
    R(X, Y) Z  = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R[l][i][j][k] = <R(e_i, e_j) e_k, e_l>      (lowering is trivial here)
    sectional(i, j) = <R(e_i, e_j) e_j, e_i>

This module doubles as the independent oracle for the closed-form lift
formulas: ``solve_connection`` recovers Gamma from the metric-compatibility
and torsion constraints alone, with no index formula involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .jets import Jet
from .surface import ConformalSurface, Point, surface_jets

FloatTable3 = tuple  # c[k][i][j]
FloatTable4 = tuple  # R[l][i][j][k]


@dataclass(frozen=True)
class FramePoint:
    """Structure functions (jets) and frame-derivative operator at one point."""

    dim: int
    c: tuple  # c[k][i][j], jets; antisymmetric in (i, j)
    d: Callable[[int, Jet], Jet]  # frame index (0-based), scalar jet -> e_i(jet)


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


def koszul_jets(point: FramePoint) -> tuple:
    """Connection coefficients as jets: Gamma^k_ij = (c^k_ij + c^j_ki + c^i_kj)/2."""
    n, c = point.dim, point.c
    return tuple(
        tuple(
            tuple(0.5 * (c[k][i][j] + c[j][k][i] + c[i][k][j]) for j in range(n))
            for i in range(n)
        )
        for k in range(n)
    )


def koszul_values(c_values, dim: int):
    """Plain-number version of the Koszul coefficients."""
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


def _c_values(point: FramePoint) -> FloatTable3:
    """The values of the structure-function jets, c[k][i][j]."""
    n = point.dim
    return tuple(
        tuple(tuple(point.c[k][i][j].value for j in range(n)) for i in range(n))
        for k in range(n)
    )


def koszul(frame: FrameSampler, x: Point) -> ConnectionTable:
    """The unique metric-compatible torsion-free connection of the frame at ``x``."""
    n = frame.dim
    return ConnectionTable(dim=n, gamma=koszul_values(_c_values(frame.at(x)), n))


def solve_connection(c_values, dim: int) -> ConnectionTable:
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
    return ConnectionTable(dim=n, gamma=gamma)


# -- curvature -----------------------------------------------------------------


def curvature(frame: FrameSampler, x: Point) -> CurvatureTable:
    """Full lowered curvature table from the structure functions at ``x``.

    R^l_ijk = e_i Gamma^l_jk - e_j Gamma^l_ik
              + Gamma^l_is Gamma^s_jk - Gamma^l_js Gamma^s_ik
              - c^s_ij Gamma^l_sk

    with e_i Gamma supplied exactly by the jet pipeline.
    """
    point = frame.at(x)
    n = frame.dim
    gamma_jets = koszul_jets(point)
    gamma = [[[gamma_jets[k][i][j].value for j in range(n)] for i in range(n)] for k in range(n)]
    dgamma = [
        [[[point.d(a, gamma_jets[l][j][k]).value for k in range(n)] for j in range(n)] for l in range(n)]
        for a in range(n)
    ]
    c = _c_values(point)

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


def base_frame_sampler(surface: ConformalSurface, order: int = 4) -> FrameSampler:
    """The conformal orthonormal frame e_a = e^(-lambda) d_a as a FrameSampler."""

    def at(x: Point) -> FramePoint:
        p = surface_jets(surface, x, order)
        zero = Jet.constant(0.0, p.c1.order)
        c = (
            ((zero, p.c1), (-p.c1, zero)),
            ((zero, p.c2), (-p.c2, zero)),
        )

        def d(i: int, f: Jet) -> Jet:
            return p.em * jets.diff(f, i + 1)

        return FramePoint(dim=2, c=c, d=d)

    return FrameSampler(dim=2, at=at)


def constant_frame_sampler(c_values, dim: int, order: int = 2) -> FrameSampler:
    """Frame with constant structure functions (e.g. a left-invariant frame)."""

    def at(_: Point) -> FramePoint:
        c = tuple(
            tuple(
                tuple(Jet.constant(c_values[k][i][j], order) for j in range(dim))
                for i in range(dim)
            )
            for k in range(dim)
        )

        def d(_i: int, f: Jet) -> Jet:
            return Jet.constant(0.0, max(f.order - 1, 0))

        return FramePoint(dim=dim, c=c, d=d)

    return FrameSampler(dim=dim, at=at)
