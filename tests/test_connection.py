"""Generic frame-calculus tests: Koszul coefficients, curvature, sectional."""

import random
import struct

import pytest

from _oracles import (
    antisymmetry_ij_residual,
    antisymmetry_lk_residual,
    base_frame_point,
    bianchi_residual,
    compatibility_residual,
    constant_frame_point,
    jet_base_frame,
    jet_lift_frame,
    jet_values,
    koszul_jets,
    pair_symmetry_residual,
    solve_connection,
    torsion_residual,
)
from wagnerlift.connection import curvature, koszul, koszul_values, sectional
from wagnerlift.lift import lift_frame_point
from wagnerlift.surface import catalog, gauss_curvature, sample_points

ALL_SURFACES = ("sphere", "halfplane", "bump")


def _antisymmetric_c(rng, dim):
    c = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        for i in range(dim):
            for j in range(i + 1, dim):
                value = rng.uniform(-2.0, 2.0)
                c[k][i][j] = value
                c[k][j][i] = -value
    return c


def _so3_cyclic():
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[0][2][1] = 1.0, -1.0
    c[1][2][0], c[1][0][2] = 1.0, -1.0
    c[2][0][1], c[2][1][0] = 1.0, -1.0
    return c


def _max_gamma_difference(a, b, dim):
    return max(
        abs(a.gamma[k][i][j] - b.gamma[k][i][j])
        for k in range(dim)
        for i in range(dim)
        for j in range(dim)
    )


# -- koszul ---------------------------------------------------------------------


def test_halfplane_koszul_entries():
    hp = catalog("halfplane")
    table = koszul(base_frame_point(hp, (0.3, 1.7)))
    assert table.entry(1, 1, 2) == pytest.approx(-1.0, abs=1e-14)
    assert table.entry(2, 1, 1) == pytest.approx(1.0, abs=1e-14)
    assert table.entry(1, 2, 2) == pytest.approx(0.0, abs=1e-14)


def test_commuting_frame_has_zero_connection_and_curvature():
    frame = constant_frame_point([[[0.0] * 3 for _ in range(3)] for _ in range(3)], 3)
    table = koszul(frame)
    assert all(
        table.gamma[k][i][j] == 0.0 for k in range(3) for i in range(3) for j in range(3)
    )
    curv = curvature(frame)
    assert all(
        curv.R[l][i][j][k] == 0.0
        for l in range(3)
        for i in range(3)
        for j in range(3)
        for k in range(3)
    )


def test_koszul_matches_linear_system_oracle_dim2():
    rng = random.Random(42)
    for name in ALL_SURFACES:
        surface = catalog(name)
        for x in sample_points(surface, 10, rng):
            point = base_frame_point(surface, x)
            assert (
                _max_gamma_difference(koszul(point), solve_connection(point.c, 2), 2)
                < 1e-12
            )


def test_koszul_matches_linear_system_oracle_dim3_random():
    rng = random.Random(43)
    for _ in range(20):
        c = _antisymmetric_c(rng, 3)
        frame = constant_frame_point(c, 3)
        assert (
            _max_gamma_difference(koszul(frame), solve_connection(c, 3), 3)
            < 1e-12
        )


def test_so3_connection_is_half_bracket():
    table = koszul(constant_frame_point(_so3_cyclic(), 3))
    assert table.entry(1, 2, 3) == pytest.approx(0.5)
    assert table.entry(3, 1, 2) == pytest.approx(0.5)
    assert table.entry(2, 1, 3) == pytest.approx(-0.5)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_connection_invariants_dim2(name):
    surface = catalog(name)
    rng = random.Random(name)
    for x in sample_points(surface, 100, rng):
        point = base_frame_point(surface, x)
        table = koszul(point)
        assert compatibility_residual(table) <= 1e-12
        assert torsion_residual(table, point.c) <= 1e-12


# -- curvature ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_dim2_sectional_reproduces_gauss_curvature(name):
    surface = catalog(name)
    rng = random.Random(name + "curv")
    for x in sample_points(surface, 100, rng):
        table = curvature(base_frame_point(surface, x))
        assert sectional(table, 1, 2) == pytest.approx(
            gauss_curvature(surface, x).K.value, rel=1e-9, abs=1e-9
        )


def test_halfplane_lowered_component():
    hp = catalog("halfplane")
    table = curvature(base_frame_point(hp, (0.7, 2.0)))
    # <R(e1,e2)e2, e1> is the Gaussian curvature
    assert table.R[0][0][1][1] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_curvature_symmetries(name):
    surface = catalog(name)
    rng = random.Random(name + "sym")
    for x in sample_points(surface, 50, rng):
        table = curvature(base_frame_point(surface, x))
        assert antisymmetry_ij_residual(table) <= 1e-9
        assert antisymmetry_lk_residual(table) <= 1e-9
        assert bianchi_residual(table) <= 1e-9
        assert pair_symmetry_residual(table) <= 1e-9


def test_so3_sectional_curvatures_quarter():
    # bi-invariant metric: K(X, Y) = |[X, Y]|^2 / 4 = 1/4 on every frame plane
    table = curvature(constant_frame_point(_so3_cyclic(), 3))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert sectional(table, i, j) == pytest.approx(0.25, abs=1e-14)
        assert sectional(table, j, i) == pytest.approx(0.25, abs=1e-14)
    assert antisymmetry_ij_residual(table) == 0.0
    assert bianchi_residual(table) == 0.0


def test_sectional_argument_validation():
    table = curvature(constant_frame_point(_so3_cyclic(), 3))
    with pytest.raises(ValueError):
        sectional(table, 1, 1)
    with pytest.raises(IndexError):
        sectional(table, 0, 2)
    with pytest.raises(IndexError):
        sectional(table, 1, 4)


def test_koszul_values_agrees_with_jet_route():
    hp = catalog("halfplane")
    x = (0.5, 1.2)
    c_values = jet_values(jet_base_frame(hp, x).c)
    values = koszul_values(c_values, 2)
    table = koszul(base_frame_point(hp, x))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert values[k][i][j] == pytest.approx(table.gamma[k][i][j], abs=1e-14)


def _packed(table):
    values = [v for plane in table for row in plane for v in row]
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_koszul_on_values_matches_the_jet_sums_bit_for_bit(name):
    surface = catalog(name)
    frames = ((base_frame_point, jet_base_frame), (lift_frame_point, jet_lift_frame))
    for frame, jet_frame in frames:
        for x in sample_points(surface, 30, random.Random(11)):
            jets = koszul_jets(jet_frame(surface, x))
            expected = tuple(tuple(tuple(g.value for g in row) for row in plane) for plane in jets)
            assert _packed(koszul(frame(surface, x)).gamma) == _packed(expected)


def test_connection_module_needs_no_jets_and_no_numpy():
    # The frame calculus runs on floats: the module imports neither the jet
    # arithmetic nor numpy, and names no Jet.  It takes its frame points from
    # its callers, so it imports nothing from the package at all.
    import ast
    from pathlib import Path

    import wagnerlift.connection

    tree = ast.parse(Path(wagnerlift.connection.__file__).read_text())
    imported, relative = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
            if node.level:
                relative.append(node.module)
    assert not imported & {"numpy", "jets", "Jet"}, imported
    assert not relative, relative
    assert not any(name.split(".")[0] == "wagnerlift" for name in imported), imported
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "Jet" not in names and "np" not in names
