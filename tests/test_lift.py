"""Wagner-lift tests: frame, nonholonomity, structure, connection, curvature."""

import itertools
import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

import pytest

from _oracles import (
    antisymmetry_ij_residual,
    antisymmetry_lk_residual,
    bianchi_residual,
    compatibility_residual,
    frame_derivative,
    pair_symmetry_residual,
    solve_connection,
    structure_functions,
    torsion_residual,
)
from wagnerlift import connection, lift, verify
from wagnerlift import surface as surface_module
from wagnerlift.connection import sectional
from wagnerlift.jets import DomainError
from wagnerlift.lift import (
    SingularCurvature,
    bracket_structure,
    lift_frame_point,
    lifted_connection,
    lifted_curvature_closed,
    lifted_curvature_oracle,
    lifted_frame,
    lifted_sectional,
    lifted_structure,
    nonholonomity,
    verify_lift,
)
from wagnerlift.surface import ConformalSurface, catalog, gauss_curvature, sample_points

ALL_SURFACES = ("sphere", "halfplane", "bump")
FLAT = ConformalSurface.from_config({"name": "flat", "lambda": "0.25", "guard": "all"})


def _table_difference(a, b):
    return max(
        abs(a[k][i][j] - b[k][i][j]) for k in range(3) for i in range(3) for j in range(3)
    )


def _curvature_difference(a, b):
    return max(
        abs(a.R[l][i][j][k] - b.R[l][i][j][k])
        for l in range(3)
        for i in range(3)
        for j in range(3)
        for k in range(3)
    )


# -- lifted frame ------------------------------------------------------------------


def test_halfplane_frame_at_unit_point():
    hp = catalog("halfplane")
    frame = lifted_frame(hp, (0.0, 1.0))
    # E1 = e1 + d_phi, E2 = e2, E3 = -d_phi in this chart
    assert frame[0] == pytest.approx((1.0, 0.0, 1.0))
    assert frame[1] == pytest.approx((0.0, 1.0, 0.0))
    assert frame[2] == pytest.approx((0.0, 0.0, -1.0))


def test_sphere_frame_at_origin():
    sph = catalog("sphere")
    frame = lifted_frame(sph, (0.0, 0.0))
    assert frame[0] == pytest.approx((0.5, 0.0, 0.0))
    assert frame[1] == pytest.approx((0.0, 0.5, 0.0))
    assert frame[2] == pytest.approx((0.0, 0.0, 1.0))


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_frame_projects_to_base_frame_and_is_invertible(name):
    surface = catalog(name)
    rng = random.Random(name + "frame")
    for x in sample_points(surface, 25, rng):
        frame = lifted_frame(surface, x)
        em = math.exp(-surface.lambda_jet(x, 0).value)
        assert frame[0][0] == pytest.approx(em, rel=1e-13)
        assert frame[0][1] == 0.0
        assert frame[1][0] == 0.0
        assert frame[1][1] == pytest.approx(em, rel=1e-13)
        assert frame[2][0] == frame[2][1] == 0.0
        # Upper triangular, so the determinant is the diagonal's product.
        determinant = frame[0][0] * frame[1][1] * frame[2][2]
        assert abs(determinant) > 0.0
        K = gauss_curvature(surface, x).K.value
        assert determinant == pytest.approx(em * em * K, rel=1e-12)


def test_flat_surface_raises_everywhere():
    for operation in (
        lambda: lifted_frame(FLAT, (0.1, 0.2)),
        lambda: lifted_structure(FLAT, (0.1, 0.2)),
        lambda: lifted_connection(FLAT, (0.1, 0.2)),
        lambda: lifted_curvature_closed(FLAT, (0.1, 0.2)),
        lambda: lifted_sectional(FLAT, (0.1, 0.2), 1, 2),
        lambda: bracket_structure(FLAT, (0.1, 0.2)),
    ):
        with pytest.raises(SingularCurvature) as err:
            operation()
        assert err.value.point == (0.1, 0.2)


def test_kappa_threshold_is_configurable():
    # |K| ~ 4e-9 is nonzero but below the fixed threshold KAPPA_MIN = 1e-8.
    faint = ConformalSurface.from_config({"name": "faint", "lambda": "1e-9*(x1^2 + x2^2)"})
    with pytest.raises(SingularCurvature, match="below the singularity threshold 1e-08"):
        lifted_frame(faint, (0.1, 0.2))


# -- nonholonomity ------------------------------------------------------------------


def test_nonholonomity_values():
    assert nonholonomity(catalog("halfplane"), (0.4, 1.3)) == pytest.approx(1.0, abs=1e-12)
    assert nonholonomity(catalog("sphere"), (0.4, -0.3)) == pytest.approx(-1.0, abs=1e-12)
    assert nonholonomity(catalog("bump"), (0.0, 0.0)) == pytest.approx(4.0, abs=1e-12)


def test_nonholonomity_works_on_flat_surfaces():
    # no curvature division involved: the vertical defect is just zero
    assert nonholonomity(FLAT, (0.3, 0.4)) == pytest.approx(0.0, abs=1e-14)


def test_nonholonomity_names_the_point_where_e_minus_lambda_underflows():
    # e^-800 is 0.0, and the re-expansion divides the bracket by it; the
    # bracket oracle stops before that, at the vanishing curvature.
    steep = ConformalSurface.from_config({"name": "steep", "lambda": "800 + 0.1*x1"})
    with pytest.raises(DomainError) as caught:
        nonholonomity(steep, (0.0, 0.0))
    assert type(caught.value) is DomainError
    assert str(caught.value) == "e^-lambda underflows to 0.0 at point (0.0, 0.0)"
    with pytest.raises(SingularCurvature):
        bracket_structure(steep, (0.0, 0.0))


def test_nonholonomity_names_a_point_of_non_finite_geometry():
    # x2^2 overflows to inf and log(inf) raises nothing, so e^-lambda is inf
    # and the bracket NaN: the route raises as lifted_structure does there.
    sphere, x = catalog("sphere"), (0.0, 1e300)
    for route in (nonholonomity, lifted_structure):
        with pytest.raises(DomainError) as caught:
            route(sphere, x)
        assert str(caught.value) == "non-finite geometry at point (0.0, 1e+300)"


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_nonholonomity_equals_minus_curvature(name):
    surface = catalog(name)
    rng = random.Random(name + "nonh")
    for x in sample_points(surface, 100, rng):
        assert nonholonomity(surface, x) + gauss_curvature(surface, x).K.value == pytest.approx(
            0.0, abs=1e-9
        )


# -- lifted structure functions --------------------------------------------------------


def test_halfplane_lifted_structure():
    hp = catalog("halfplane")
    s = lifted_structure(hp, (0.0, 1.0))
    assert s.c112 == pytest.approx(-1.0)
    assert s.c212 == pytest.approx(0.0)
    assert s.c312 == -1.0
    assert s.c313 == pytest.approx(0.0, abs=1e-12)
    assert s.c323 == pytest.approx(0.0, abs=1e-12)
    # [E1, E2] = -E1 - E3, [E2, E3] = [E3, E1] = 0
    table = s.table()
    assert table[0][0][1] == pytest.approx(-1.0)
    assert table[2][0][1] == pytest.approx(-1.0)
    assert all(abs(table[k][1][2]) < 1e-12 for k in range(3))
    assert all(abs(table[k][0][2]) < 1e-12 for k in range(3))


@pytest.mark.parametrize("name", ("sphere", "halfplane"))
def test_constant_curvature_kills_vertical_log_terms(name):
    surface = catalog(name)
    rng = random.Random(name + "struct")
    for x in sample_points(surface, 10, rng):
        s = lifted_structure(surface, x)
        assert s.c313 == pytest.approx(0.0, abs=1e-9)
        assert s.c323 == pytest.approx(0.0, abs=1e-9)


def test_bump_vertical_log_term_frozen_point():
    getter = lifted_structure(catalog("bump"), (0.5, 0.0))
    assert getter.c313 == pytest.approx(-2.0 * math.exp(-0.25), rel=1e-12)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_structure_invariant_zeros(name):
    surface = catalog(name)
    rng = random.Random(name + "zeros")
    for x in sample_points(surface, 20, rng):
        s = lifted_structure(surface, x)
        table = s.table()  # chat^1_13, chat^1_23, chat^2_13, chat^2_23
        assert table[0][0][2] == table[0][1][2] == table[1][0][2] == table[1][1][2] == 0.0
        assert s.c312 == -1.0
        base_c1, base_c2 = structure_functions(surface, x)
        assert s.c112 == pytest.approx(base_c1, rel=1e-12, abs=1e-13)
        assert s.c212 == pytest.approx(base_c2, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_structure_matches_bracket_oracle(name):
    surface = catalog(name)
    rng = random.Random(name + "bracket")
    for x in sample_points(surface, 100, rng):
        closed = lifted_structure(surface, x).table()
        numeric = bracket_structure(surface, x)
        assert _table_difference(closed, numeric) <= 1e-8


# -- lifted connection ------------------------------------------------------------------


def _golden_connection(base):
    values = {
        "c1": base.c1.value,
        "c2": base.c2.value,
        "u1": base.u1.value,
        "u2": base.u2.value,
        "1/2": 0.5,
        "-1/2": -0.5,
        "-c1": -base.c1.value,
        "-c2": -base.c2.value,
        "-u1": -base.u1.value,
        "-u2": -base.u2.value,
    }
    spec_path = Path(__file__).parent / "data" / "lifted_connection_golden.json"
    entries = json.loads(spec_path.read_text())["entries"]
    table = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for key, symbol in entries.items():
        k, i, j = (int(part) - 1 for part in key.split(","))
        table[k][i][j] = values[symbol]
    return table


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_lifted_connection_matches_golden_table(name):
    surface = catalog(name)
    rng = random.Random(name + "golden")
    for x in sample_points(surface, 25, rng):
        table = lifted_connection(surface, x)
        golden = _golden_connection(gauss_curvature(surface, x))
        assert _table_difference(table.gamma, golden) <= 1e-12


def test_constant_curvature_half_entries():
    hp = catalog("halfplane")
    table = lifted_connection(hp, (0.2, 0.9))
    assert table.entry(3, 1, 2) == pytest.approx(-0.5)
    assert table.entry(3, 2, 1) == pytest.approx(0.5)
    assert table.entry(1, 2, 3) == pytest.approx(-0.5)
    assert table.entry(2, 1, 3) == pytest.approx(0.5)
    # entries carrying e_i(K)/K vanish when K is constant
    assert table.entry(1, 3, 3) == pytest.approx(0.0, abs=1e-12)
    assert table.entry(3, 3, 1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_lifted_connection_vs_linear_system_oracle(name):
    surface = catalog(name)
    rng = random.Random(name + "solve")
    for x in sample_points(surface, 10, rng):
        table = lifted_connection(surface, x)
        solved = solve_connection(lifted_structure(surface, x).table(), 3)
        assert _table_difference(table.gamma, solved.gamma) <= 1e-12


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_lifted_connection_invariants(name):
    surface = catalog(name)
    rng = random.Random(name + "inv")
    for x in sample_points(surface, 100, rng):
        table = lifted_connection(surface, x)
        assert compatibility_residual(table) <= 1e-12
        assert torsion_residual(table, lifted_structure(surface, x).table()) <= 1e-12


# -- lifted curvature ------------------------------------------------------------------


def test_halfplane_curvature_components():
    hp = catalog("halfplane")
    table = lifted_curvature_closed(hp, (0.0, 1.0))
    assert table.pair_component(1, 2, 1, 2) == pytest.approx(1.75)
    assert table.pair_component(1, 2, 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert table.pair_component(1, 2, 2, 3) == pytest.approx(0.0, abs=1e-12)
    assert table.pair_component(1, 3, 1, 3) == pytest.approx(-0.25)
    assert table.pair_component(2, 3, 2, 3) == pytest.approx(-0.25)


def test_sphere_curvature_components():
    sph = catalog("sphere")
    table = lifted_curvature_closed(sph, (0.6, -0.1))
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert table.pair_component(*pair, *pair) == pytest.approx(-0.25, abs=1e-11)
    assert table.pair_component(1, 2, 1, 3) == pytest.approx(0.0, abs=1e-10)
    assert table.pair_component(1, 3, 2, 3) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name,tol", [("sphere", 1e-8), ("halfplane", 1e-8), ("bump", 1e-6)])
def test_curvature_closed_vs_oracle(name, tol):
    surface = catalog(name)
    rng = random.Random(name + "cvo")
    for x in sample_points(surface, 100, rng):
        closed = lifted_curvature_closed(surface, x)
        oracle = lifted_curvature_oracle(surface, x)
        assert _curvature_difference(closed, oracle) <= tol


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_closed_table_satisfies_curvature_symmetries(name):
    surface = catalog(name)
    rng = random.Random(name + "symm")
    for x in sample_points(surface, 25, rng):
        table = lifted_curvature_closed(surface, x)
        assert antisymmetry_ij_residual(table) <= 1e-12
        assert antisymmetry_lk_residual(table) <= 1e-12
        assert bianchi_residual(table) <= 1e-12
        assert pair_symmetry_residual(table) <= 1e-12


def test_mixed_component_signs_pinned_by_oracle():
    bump = catalog("bump")
    rng = random.Random("signs")
    for x in sample_points(bump, 25, rng):
        base = gauss_curvature(bump, x)
        u1, u2 = base.u1.value, base.u2.value
        oracle = lifted_curvature_oracle(bump, x)
        if abs(u1) > 1e-6:
            assert oracle.pair_component(1, 2, 1, 3) == pytest.approx(-u1, rel=1e-6)
        if abs(u2) > 1e-6:
            assert oracle.pair_component(1, 2, 2, 3) == pytest.approx(-u2, rel=1e-6)


def test_sphere_sectional_curvatures_quarter():
    sph = catalog("sphere")
    rng = random.Random(2024)
    for x in sample_points(sph, 20, rng):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert lifted_sectional(sph, x, i, j) == pytest.approx(0.25, abs=1e-9)


def test_halfplane_sectional_curvatures():
    hp = catalog("halfplane")
    x = (0.8, 0.5)
    assert lifted_sectional(hp, x, 1, 2) == pytest.approx(-1.75, abs=1e-12)
    assert abs(lifted_sectional(hp, x, 1, 2)) == pytest.approx(1.75, abs=1e-12)
    assert abs(lifted_sectional(hp, x, 1, 3)) == pytest.approx(0.25, abs=1e-12)
    assert abs(lifted_sectional(hp, x, 2, 3)) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("name", ("sphere", "halfplane"))
def test_sectional_point_independence_on_constant_curvature(name):
    surface = catalog(name)
    rng = random.Random(name + "pi")
    values = {"12": [], "13": [], "23": []}
    for x in sample_points(surface, 20, rng):
        values["12"].append(lifted_sectional(surface, x, 1, 2))
        values["13"].append(lifted_sectional(surface, x, 1, 3))
        values["23"].append(lifted_sectional(surface, x, 2, 3))
    for series in values.values():
        assert max(series) - min(series) < 1e-9


def test_lifted_sectional_validates_indices():
    sph = catalog("sphere")
    with pytest.raises(ValueError):
        lifted_sectional(sph, (0.0, 0.0), 2, 2)
    with pytest.raises(IndexError):
        lifted_sectional(sph, (0.0, 0.0), 1, 5)


# -- frame point plumbing -----------------------------------------------------------


def test_lift_frame_point_vertical_derivative_is_zero():
    sph = catalog("sphere")
    point = lift_frame_point(sph, (0.2, 0.1))
    f1, f2 = point.dc[0][0][0][1], point.dc[1][0][0][1]  # chart partials of c^1_12
    assert frame_derivative(point, 2, f1, f2) == 0.0
    # e_i takes first partials to a plain number: nothing of order >= 1 is left.
    assert type(frame_derivative(point, 2, f1, f2)) is float


# -- verify ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,tol", [("sphere", 1e-8), ("halfplane", 1e-8), ("bump", 1e-6)]
)
def test_verify_lift_passes(name, tol):
    report = verify_lift(catalog(name), sample_count=100, seed=9, tol=tol)
    assert report.passed, report.to_json()
    assert {check.name for check in report.checks} == {
        "structure_functions_vs_brackets",
        "connection_vs_koszul_on_brackets",
        "curvature_closed_vs_oracle",
        "nonholonomity_plus_curvature",
    }
    assert report.resolved_signs["sectional_signs_stable"]


def _with(table: tuple, index: tuple, value: float) -> tuple:
    """``table`` with the entry at ``index`` replaced by ``value``."""
    if not index:
        return value
    return tuple(_with(t, index[1:], value) if i == index[0] else t for i, t in enumerate(table))


@pytest.mark.parametrize("depth", (3, 4))
def test_a_nan_difference_anywhere_makes_the_deviation_nan(depth):
    # max keeps a NaN only in first place; every position must give NaN.
    zeros = 0.0
    for _ in range(depth):
        zeros = (zeros,) * 3
    for index in itertools.product(range(3), repeat=depth):
        table = _with(_with(zeros, (0, 0, 1, 2)[:depth], 5.0), index, math.nan)
        assert math.isnan(verify._deviation_kernel(depth)(table, zeros)), index
        assert math.isnan(verify._deviation_kernel(depth)(zeros, table)), index
        assert verify._deviation_kernel(depth)(_with(zeros, index, -2.0), zeros) == 2.0


@pytest.mark.parametrize("index", [(0, 0, 0, 0), (0, 1, 0, 1), (2, 2, 2, 2)], ids=str)
@pytest.mark.parametrize("sample", [0, 2])
def test_verify_fails_the_curvature_check_on_a_nan_oracle_entry(monkeypatch, index, sample):
    # A NaN entry of the oracle's table at one sampled point: at the first one
    # a later finite deviation must not replace it, and at the last it must
    # replace the finite ones before it.  The other checks are unchanged.
    oracle, points = verify.lifted_curvature_oracle, []

    def nan_oracle(surface, x):
        points.append(x)
        table = oracle(surface, x)
        return table if len(points) != sample + 1 else connection.CurvatureTable(3, _with(table.R, index, math.nan))

    expected = verify_lift(catalog("bump"), 3, 5, 1e-6)
    monkeypatch.setattr(verify, "lifted_curvature_oracle", nan_oracle)
    report = verify_lift(catalog("bump"), 3, 5, 1e-6)
    assert not report.passed and len(points) == 3
    for check, before in zip(report.checks, expected.checks):
        if check.name == "curvature_closed_vs_oracle":
            assert math.isnan(check.max_deviation) and not check.passed
        else:
            assert check == before


def test_verify_report_signs_sphere():
    report = verify_lift(catalog("sphere"), sample_count=25, seed=1, tol=1e-8)
    signs = report.resolved_signs
    assert signs["sectional_12"] == 1
    assert signs["sectional_13"] == 1
    assert signs["sectional_23"] == 1
    # constant curvature: the mixed components vanish, no sign to resolve
    assert signs["mixed_1213_vs_plus_u1"] is None


def test_verify_report_signs_halfplane():
    report = verify_lift(catalog("halfplane"), sample_count=25, seed=1, tol=1e-8)
    signs = report.resolved_signs
    assert signs["sectional_12"] == -1
    assert signs["sectional_13"] == 1
    assert signs["sectional_23"] == 1


def test_verify_report_signs_bump():
    report = verify_lift(catalog("bump"), sample_count=50, seed=1, tol=1e-6)
    signs = report.resolved_signs
    # the oracle resolves both mixed components to the -u_i normalisation
    assert signs["mixed_1213_vs_plus_u1"] == -1
    assert signs["mixed_1223_vs_plus_u2"] == -1


def test_verify_report_gives_a_sectional_curvature_within_tol_of_zero_sign_zero():
    # K = 3/4, so K(E1,E2) = 3/4 - K is 0 up to rounding of either sign.
    config = {"name": "sphere34", "lambda": "log(2*1.1547005383792515/(1 + x1^2 + x2^2))"}
    report = verify_lift(ConformalSurface.from_config(config), sample_count=50, seed=1, tol=1e-8)
    summary = report.curvature_summary["sectional_12"]
    assert summary["min"] < 0.0 < summary["max"]
    assert report.passed
    assert report.resolved_signs["sectional_12"] == 0
    assert report.resolved_signs["sectional_signs_stable"] is True


def test_verify_report_json_shape():
    report = verify_lift(catalog("halfplane"), sample_count=5, seed=3, tol=1e-8)
    data = json.loads(report.to_json())
    assert data["surface"] == "halfplane"
    assert data["samples"] == 5
    assert data["seed"] == 3
    assert data["pass"] is True
    for check in data["checks"]:
        assert set(check) == {"name", "max_abs_deviation", "tolerance", "pass"}


def test_verify_report_curvature_summary():
    # constant curvature: the summary pins the component at 3/4 - K over all samples
    report = verify_lift(catalog("halfplane"), sample_count=20, seed=3, tol=1e-8)
    summary = report.curvature_summary["pair_1212"]
    assert summary["min"] == pytest.approx(1.75, abs=1e-12)
    assert summary["max"] == pytest.approx(1.75, abs=1e-12)
    sphere_summary = verify_lift(
        catalog("sphere"), sample_count=20, seed=3, tol=1e-8
    ).curvature_summary
    assert sphere_summary["sectional_12"]["min"] == pytest.approx(0.25, abs=1e-10)
    assert sphere_summary["sectional_12"]["max"] == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize(
    "route",
    [lifted_frame, lifted_structure, bracket_structure, lifted_connection,
     lifted_curvature_closed, lifted_curvature_oracle],
)
@pytest.mark.parametrize("x", [(1e-80, 0.5), (1e-60, 0.5)])
def test_non_finite_geometry_raises_domain_error(route, x):
    # log(x1) near x1 = 0: at 1e-80 a fourth derivative overflows and leaves
    # the fourth partials inf or NaN; at 1e-60 K is finite but u1 and e1(u1)
    # are not.
    surface = ConformalSurface.from_config({"name": "log", "lambda": "log(x1)"})
    with pytest.raises(DomainError, match=r"non-finite geometry at point"):
        route(surface, x)


def test_verify_evaluates_lambda_once_per_sampled_point(monkeypatch):
    surface = catalog("bump")
    runs = []
    evaluate = surface_module.eval_jet

    def counting(expr, point, order):
        if expr is surface._lam_tape:
            runs.append(order)
        return evaluate(expr, point, order)

    monkeypatch.setattr(surface_module, "eval_jet", counting)
    verify_lift(surface, sample_count=7, seed=3, tol=1e-8)
    # One order-4 evaluation is shared by the six routes that check a point.
    assert runs == [4] * 7


@pytest.mark.parametrize("count", [0, -3])
def test_verify_rejects_a_sample_count_below_one_before_sampling(monkeypatch, count):
    drawn = []
    monkeypatch.setattr(verify, "sample_points", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=f"sample count must be at least 1, got {count}"):
        verify_lift(catalog("bump"), count, 1, 1e-8)
    assert drawn == []


# -- one frame point per sampled point ----------------------------------------------


def _counting_frame_points(monkeypatch) -> list:
    built = []

    def counting(**fields):
        built.append(fields)
        return connection.FramePoint(**fields)

    monkeypatch.setattr(lift, "FramePoint", counting)
    return built


def _frame_bits(point: connection.FramePoint) -> bytes:
    def flat(table):
        return [v for entry in table for v in flat(entry)] if type(table) is tuple else [table]

    values = flat((point.c, point.dc, point.em))
    return struct.pack(f"{len(values)}d", *values)


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_builds_one_frame_point_per_sampled_point(monkeypatch, seed):
    built = _counting_frame_points(monkeypatch)
    verify_lift(catalog("bump"), 20, seed, 1e-8)
    # The connection and the curvature oracle at a point share its frame.
    assert len(built) == 20


def test_the_structure_the_connection_and_the_curvature_oracle_share_one_frame_point(monkeypatch):
    # The record's check builds its frame, so the three routes at a point build one.
    built = _counting_frame_points(monkeypatch)
    surface, x = catalog("bump"), (0.1, 0.2)
    lifted_structure(surface, x)
    lifted_connection(surface, x)
    lifted_curvature_oracle(surface, x)
    assert len(built) == 1


def test_each_surface_and_each_point_tuple_gets_its_own_frame(monkeypatch):
    # Each surface keeps its own last frame, keyed by the identity of its
    # record: an equal but distinct tuple and the same point with -0.0 for 0.0
    # are rebuilt.  Each frame keeps the bits of a build on a fresh surface.
    built = _counting_frame_points(monkeypatch)
    sphere, bump, x = catalog("sphere"), catalog("bump"), (0.0, 0.3)
    calls = [
        (sphere, x, 1), (sphere, x, 1), (bump, x, 2), (bump, x, 2), (sphere, x, 2),
        (sphere, tuple(list(x)), 3), (sphere, (-0.0, 0.3), 4), (bump, (-0.0, 0.3), 5),
    ]
    frames = []
    for surface, point, count in calls:
        frames.append(lift_frame_point(surface, point))
        assert len(built) == count, (surface.name, point)
    assert frames[1] is frames[0] is frames[4] and frames[3] is frames[2]
    for (surface, point, _), frame in zip(calls, frames):
        fresh = lift_frame_point(catalog(surface.name), tuple(list(point)))
        assert _frame_bits(frame) == _frame_bits(fresh), (surface.name, point)


# -- one check per record -------------------------------------------------------------

VERIFY_ROUTES = ("lifted_structure", "bracket_structure", "lifted_connection",
                 "lifted_curvature_closed", "lifted_curvature_oracle", "nonholonomity")
CHECKED_ROUTES = (lifted_frame, lifted_structure, bracket_structure, lifted_connection,
                  lifted_curvature_closed, lifted_curvature_oracle)
CUBIC = {"name": "cubic", "lambda": "x1^3"}  # K = -6 x1 e^(-2 x1^3), 0.0 at x1 = 0


def _count_checks(monkeypatch) -> Counter:
    """Calls of the six routes ``verify`` reads, of ``surface_jets`` in ``lift``
    and of ``require_finite`` by its number of values: 7 is the record's
    finiteness test, which follows its K test, and 1 the nonholonomity's."""
    calls = Counter()

    def counting(name, function):
        return lambda *args: calls.update([name]) or function(*args)

    for name in VERIFY_ROUTES:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    monkeypatch.setattr(lift, "surface_jets", counting("surface_jets", lift.surface_jets))
    finite = lift.require_finite
    monkeypatch.setattr(lift, "require_finite",
                        lambda values, x: calls.update([f"require_finite {len(values)}"]) or finite(values, x))
    return calls


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_tests_each_sampled_record_once(monkeypatch, seed):
    # At warm points: each route once per point and surface_jets six times,
    # as before, but the record's K and finiteness tests once.
    surface = catalog("bump")
    verify_lift(surface, 5, seed + 1, 1e-8)
    calls = _count_checks(monkeypatch)
    verify_lift(surface, 20, seed, 1e-8)
    assert calls == Counter({**dict.fromkeys(VERIFY_ROUTES, 20), "surface_jets": 6 * 20,
                             "require_finite 7": 20, "require_finite 1": 20})


@pytest.mark.parametrize("config, x, error", [
    (CUBIC, (0.0, 0.3), SingularCurvature),
    ({"name": "log", "lambda": "log(x1)"}, (1e-60, 0.5), DomainError),  # u1 is not finite
])
def test_a_record_whose_check_raised_raises_again_on_every_route(monkeypatch, config, x, error):
    surface = ConformalSurface.from_config(config)
    calls = _count_checks(monkeypatch)
    for route in CHECKED_ROUTES * 2:
        with pytest.raises(error):
            route(surface, x)
        assert surface._last_frame[0] is None
    assert calls["surface_jets"] == 12
    assert calls["require_finite 7"] == (12 if error is DomainError else 0)


def test_a_passed_record_is_never_served_for_a_record_that_raised(monkeypatch):
    surface, good, bad = ConformalSurface.from_config(CUBIC), (0.5, 0.3), (0.0, 0.3)
    calls = _count_checks(monkeypatch)
    table = bracket_structure(surface, good)
    passed = surface._last_frame[0]
    assert lifted_structure(surface, good).c312 == -1.0 and passed is not None
    for route in (lifted_structure, bracket_structure, lifted_curvature_closed):
        with pytest.raises(SingularCurvature):
            route(surface, bad)
    assert surface._last_frame[0] is passed
    assert bracket_structure(surface, good) == table  # a new record, tested again
    assert surface._last_frame[0] is not passed
    assert calls["require_finite 7"] == 2


def test_two_surfaces_at_one_point_tuple_are_each_checked(monkeypatch):
    x = (0.0, 0.3)
    bump, other_bump, cubic = catalog("bump"), catalog("bump"), ConformalSurface.from_config(CUBIC)
    calls = _count_checks(monkeypatch)
    for surface in (bump, other_bump, bump, other_bump):
        lifted_structure(surface, x)
    assert calls["require_finite 7"] == 2
    assert bump._last_frame[0] is not other_bump._last_frame[0]
    with pytest.raises(SingularCurvature):
        lifted_structure(cubic, x)
