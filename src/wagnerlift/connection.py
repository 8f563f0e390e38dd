"""Frame-based Levi-Civita calculus in dimension 2 or 3.

Everything here works for an arbitrary orthonormal frame described only by its
structure functions c^k_ij and its frame derivatives.  A ``FramePoint``
carries the values of c and their first chart partials, read once from the
jets of the base geometry, and em = e^(-lambda).  The frame derivative of a
scalar is e_a(f) = 0.0 + em * d_a f for a = 1, 2 (slot 0 of the jet product
em * d_a f) and 0.0 along E3 = K d_phi, which kills phi-independent fields.
Frame derivatives are therefore exact, and the whole calculus runs on floats.
Conventions, used consistently everywhere:

    Gamma^k_ij = <nabla_{e_i} e_j, e_k> = (c^k_ij + c^j_ki + c^i_kj) / 2
    R(X, Y) Z  = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    R[l][i][j][k] = <R(e_i, e_j) e_k, e_l>      (lowering is trivial here)
    sectional(i, j) = <R(e_i, e_j) e_j, e_i>

This module is the generic oracle for the closed-form lift formulas: the
curvature comes from c and e_a alone, never from the closed forms.  The
Koszul and curvature formulas run as straight-line kernels generated on first
use.  Each writes every entry as one left-to-right expression in the order of
the index loops it replaces, less terms on declared zero slots (``curvature``),
so it rounds as they did, signed zeros included; the tests keep the loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product


@dataclass(frozen=True)
class FramePoint:
    """Structure functions and their chart partials at one point of the
    conformal frame e_a = e^(-lambda) d_a (dim 2) or of its lift (dim 3),
    with em = e^(-lambda) there."""

    dim: int
    c: tuple  # c[k][i][j] values; antisymmetric in (i, j)
    dc: tuple  # (d_1 c, d_2 c), each laid out like c
    em: float
    zeros: frozenset = frozenset()  # (table, k, i, j) slots of (c, *dc) that are 0.0 by construction


@dataclass(frozen=True)
class ConnectionTable:
    """Levi-Civita coefficients Gamma^k_ij in an orthonormal frame."""

    dim: int
    gamma: tuple  # gamma[k][i][j]

    def entry(self, k: int, i: int, j: int) -> float:
        """Gamma^k_ij with 1-based frame indices."""
        return self.gamma[k - 1][i - 1][j - 1]


@dataclass(frozen=True)
class CurvatureTable:
    """Lowered curvature components R[l][i][j][k] = <R(e_i,e_j)e_k, e_l>."""

    dim: int
    R: tuple  # R[l][i][j][k]

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


# -- generated kernels ------------------------------------------------------------


def _nested(leaf, n: int, depth: int, index: tuple = ()) -> str:
    """Source of a depth-deep nested tuple over 0..n-1 of ``leaf(*index)``."""
    if len(index) == depth:
        return leaf(*index)
    return "(" + "".join(_nested(leaf, n, depth, index + (i,)) + ", " for i in range(n)) + ")"


def _koszul(c: str, k: int, i: int, j: int, dead=()) -> str:  # "" if every slot is dead
    terms = [t for t in (f"{c}{k}{i}{j}", f"{c}{j}{k}{i}", f"{c}{i}{k}{j}") if t not in dead]
    return f"0.5 * ({' + '.join(terms)})" if terms else ""


def _unpack(c: str, n: int) -> str:
    return f"{_nested(lambda k, i, j: f'{c}{k}{i}{j}', n, 3)} = {c}"


@cache
def _koszul_kernel(n: int):
    body = f"return {_nested(lambda k, i, j: _koszul('c', k, i, j), n, 3)}"
    exec(f"def kernel(c):\n    {_unpack('c', n)}\n    {body}\n", namespace := {})
    return namespace["kernel"]


@cache
def _curvature_kernel(n: int, zeros: frozenset):
    """The kernel of inputs whose (table, k, i, j) slots ``zeros`` of (c, d_1 c, d_2 c) are 0.0."""
    dead = {f"{'cpq'[t]}{k}{i}{j}" for t, k, i, j in zeros}
    lines = [_unpack(c, n) for c in "cpq"]  # c and its chart partials d_1 c, d_2 c
    live = {f"c{k}{i}{j}" for k, i, j in product(range(n), repeat=3)} - dead
    for k, i, j, (name, c) in product(range(n), range(n), range(n), (("G", "c"), ("E0", "p"), ("E1", "q"))):
        if terms := _koszul(c, k, i, j, dead):  # Gamma, e_1 Gamma and e_2 Gamma
            live.add(name := f"{name}{k}{i}{j}")
            lines.append(f"{name} = " + (terms if c == "c" else f"0.0 + em * ({terms})"))

    def entry(l: int, i: int, j: int, k: int) -> str:  # e_a Gamma is 0.0 along E3, a = 2
        ei, ej = (f"E{a}{l}{b}{k}" if f"E{a}{l}{b}{k}" in live else "0.0" for a, b in ((i, j), (j, i)))
        return f"{ei} - {ej}" + "".join(term for s in range(n) for term in (
            f" + G{l}{i}{s}*G{s}{j}{k}", f" - G{l}{j}{s}*G{s}{i}{k}", f" - c{s}{i}{j}*G{l}{s}{k}"
        ) if live.issuperset(term[3:].split("*")))

    if zeros:  # a dead slot that is not 0.0 is truthy, and f - f is NaN unless f is finite
        finite = [f"{f} - {f}" for f in ["em", *sorted(live)] if f[0] != "E"]
        lines.append(f"if {' or '.join(sorted(dead) + finite)}:\n        raise FloatingPointError")
    lines.append(f"return {_nested(entry, n, 4)}")
    exec("def kernel(c, p, q, em):\n    " + "\n    ".join(lines) + "\n", namespace := {})
    return namespace["kernel"]


# -- connection -----------------------------------------------------------------


def koszul_values(c_values, dim: int):
    """Koszul coefficients Gamma^k_ij = (c^k_ij + c^j_ki + c^i_kj)/2 of a
    table of numbers; applied to the chart partials of c, it gives the chart
    partials of Gamma."""
    return _koszul_kernel(dim)(c_values)


def koszul(point: FramePoint) -> ConnectionTable:
    """The unique metric-compatible torsion-free connection of the frame at the point."""
    return ConnectionTable(dim=point.dim, gamma=koszul_values(point.c, point.dim))


# -- curvature -----------------------------------------------------------------


def _zero_slots(tables) -> frozenset:
    return frozenset((t, k, i, j) for t, table in enumerate(tables)
                     for k, i, j in product(range(len(table)), repeat=3) if table[k][i][j] == 0.0)


def curvature(point: FramePoint) -> CurvatureTable:
    """Full lowered curvature table from the structure functions at the point.

    R^l_ijk = e_i Gamma^l_jk - e_j Gamma^l_ik
              + Gamma^l_is Gamma^s_jk - Gamma^l_js Gamma^s_ik
              - c^s_ij Gamma^l_sk

    with e_i Gamma from the chart partials of Gamma that the Koszul formula
    gives on the chart partials of c, and the s terms added in turn.

    The kernel leaves out the Koszul terms and R products that are +-0.0 if
    the slots the point declares in ``zeros`` are 0.0.  Its guard checks that,
    and that em and every live c and Gamma are finite; if not, the call reruns
    on the kernel without known zeros.  No bit changes: a left-out Koszul term
    changes only the sign of a zero sum, which R reads as a product factor or
    in e_a Gamma = 0.0 + em * (...), never -0.0; so no partial sum of an R
    entry is -0.0 either, and adding +-0.0 to it is exact.
    """
    n, tables = point.dim, (point.c, *point.dc)
    try:
        return CurvatureTable(dim=n, R=_curvature_kernel(n, point.zeros)(*tables, point.em))
    except FloatingPointError:  # the kernel without known zeros has no guard
        return CurvatureTable(dim=n, R=_curvature_kernel(n, frozenset())(*tables, point.em))
