"""Frame-based Levi-Civita calculus in dimension 2 or 3.

Everything here works for an arbitrary orthonormal frame described only by its
structure functions c^k_ij and its frame derivatives.  A ``FramePoint``
carries the values of c and their first chart partials, read once from the
jets of the base geometry, and the factor e^(-lambda); its ``d`` turns the
chart partials of a scalar into its frame derivative e_a.  Frame derivatives
are therefore exact, and the whole calculus runs on plain floats.
Conventions, used consistently everywhere:

    Gamma^k_ij = <nabla_{e_i} e_j, e_k> = (c^k_ij + c^j_ki + c^i_kj) / 2
    R(X, Y) Z  = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R[l][i][j][k] = <R(e_i, e_j) e_k, e_l>      (lowering is trivial here)
    sectional(i, j) = <R(e_i, e_j) e_j, e_i>

This module is the generic oracle for the closed-form lift formulas: the
curvature comes from c and e_a alone, never from the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

FloatTable3 = tuple  # c[k][i][j]
FloatTable4 = tuple  # R[l][i][j][k]


@dataclass(frozen=True)
class FramePoint:
    """Structure functions and their chart partials at one point of the
    conformal frame e_a = e^(-lambda) d_a (dim 2) or of its lift (dim 3),
    with em = e^(-lambda) there."""

    dim: int
    c: FloatTable3  # c[k][i][j] values; antisymmetric in (i, j)
    dc: tuple  # (d_1 c, d_2 c), each laid out like c
    em: float

    def d(self, a: int, f1: float, f2: float) -> float:
        """e_a(f) from the chart partials d_1 f, d_2 f (0-based frame index).

        E3 = K d_phi kills the phi-independent fields of the lift.
        """
        if a == 2:
            return 0.0
        # 0.0 + em*f is slot 0 of the jet product em * d_a(f): the sum
        # starts at +0.0, so a -0.0 product comes out as +0.0.
        return 0.0 + self.em * (f2 if a else f1)


@dataclass(frozen=True)
class ConnectionTable:
    """Levi-Civita coefficients Gamma^k_ij in an orthonormal frame."""

    dim: int
    gamma: FloatTable3  # gamma[k][i][j]

    def entry(self, k: int, i: int, j: int) -> float:
        """Gamma^k_ij with 1-based frame indices."""
        return self.gamma[k - 1][i - 1][j - 1]


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


def koszul(point: FramePoint) -> ConnectionTable:
    """The unique metric-compatible torsion-free connection of the frame at the point."""
    return ConnectionTable(dim=point.dim, gamma=koszul_values(point.c, point.dim))


# -- curvature -----------------------------------------------------------------


def curvature(point: FramePoint) -> CurvatureTable:
    """Full lowered curvature table from the structure functions at the point.

    R^l_ijk = e_i Gamma^l_jk - e_j Gamma^l_ik
              + Gamma^l_is Gamma^s_jk - Gamma^l_js Gamma^s_ik
              - c^s_ij Gamma^l_sk

    with e_i Gamma = d(i, d_1 Gamma, d_2 Gamma), from the chart partials of
    Gamma that the Koszul formula gives on the chart partials of c.
    """
    n, c, d = point.dim, point.c, point.d
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
