"""Surface geometry tests: structure functions, curvature, catalog, guards."""

import dataclasses
import math
import random
import re
import struct

import pytest

from _oracles import structure_functions
from wagnerlift import surface as surface_module
from wagnerlift.expr import parse
from wagnerlift.jets import DomainError, Jet
from wagnerlift.surface import (
    ChartDomainError,
    ConformalSurface,
    catalog,
    catalog_names,
    conformal_laplacian_curvature,
    conformal_pipeline,
    frame_fields,
    gauss_curvature,
    sample_points,
    surface_jets,
)

ALL_SURFACES = ("sphere", "halfplane", "bump")


def _em(surface, x):
    return math.exp(-surface.lambda_jet(x, 0).value)


def fd_lie_bracket(surface, x, h=1e-5):
    """Finite-difference bracket of the coordinate fields e_a = e^(-lambda) d_a,
    re-expanded in the frame: returns (c^1_12, c^2_12)."""

    def em(p):
        return _em(surface, p)

    x1, x2 = x
    # [X, Y]^mu = X^nu d_nu Y^mu - Y^nu d_nu X^mu with X = (em, 0), Y = (0, em)
    d1_em = (em((x1 + h, x2)) - em((x1 - h, x2))) / (2 * h)
    d2_em = (em((x1, x2 + h)) - em((x1, x2 - h))) / (2 * h)
    bracket = (-em(x) * d2_em, em(x) * d1_em)
    return (bracket[0] / em(x), bracket[1] / em(x))


# -- catalog ---------------------------------------------------------------------


def test_catalog_names():
    assert catalog_names() == ("bump", "halfplane", "sphere")
    with pytest.raises(KeyError):
        catalog("torus")


def test_halfplane_guard():
    hp = catalog("halfplane")
    assert hp.contains((0.0, 1.0))
    assert not hp.contains((0.0, 0.0))
    assert not hp.contains((0.0, -2.0))
    with pytest.raises(ChartDomainError) as err:
        structure_functions(hp, (0.5, -1.0))
    assert err.value.point == (0.5, -1.0)


def test_custom_guard_expression():
    disk = ConformalSurface.from_config(
        {"name": "disk", "lambda": "x1*x2", "guard": "1 - x1^2 - x2^2 > 0"}
    )
    assert disk.contains((0.5, 0.5))
    assert not disk.contains((1.0, 1.0))


def test_bad_guard_rejected():
    with pytest.raises(ValueError):
        ConformalSurface.from_config({"name": "s", "lambda": "x1", "guard": "x2 >= 0"})
    with pytest.raises(ValueError):
        ConformalSurface.from_config({"name": "s", "lambda": "x1", "guard": "x2 > 1"})


def test_config_requires_name_and_lambda():
    with pytest.raises(ValueError):
        ConformalSurface.from_config({"name": "s"})


def test_sampling_respects_guard():
    hp = catalog("halfplane")
    rng = random.Random(5)
    for point in sample_points(hp, 200, rng):
        assert point[1] > 0.0


def test_sampling_caps_rejected_draws_not_total_draws():
    # The sphere's guard holds everywhere: more than 10^4 points are no error.
    points = sample_points(catalog("sphere"), 10001, random.Random(0))
    assert len(points) == 10001
    assert points[:100] == sample_points(catalog("sphere"), 100, random.Random(0))


# -- structure functions -----------------------------------------------------------


def test_halfplane_structure_functions_are_constant():
    hp = catalog("halfplane")
    for x in ((0.0, 1.0), (0.7, 2.0), (-3.0, 0.2)):
        c1, c2 = structure_functions(hp, x)
        assert c1 == pytest.approx(-1.0, abs=1e-14)
        assert c2 == pytest.approx(0.0, abs=1e-14)


def test_sphere_structure_functions_at_origin_vanish():
    sph = catalog("sphere")
    c1, c2 = structure_functions(sph, (0.0, 0.0))
    assert c1 == pytest.approx(0.0, abs=1e-14)
    assert c2 == pytest.approx(0.0, abs=1e-14)


def test_sphere_structure_functions_frozen_point():
    # hand value: e^-lambda = 3/2 and d(lambda) = (-2/3, -2/3) at (1, 1)
    sph = catalog("sphere")
    c1, c2 = structure_functions(sph, (1.0, 1.0))
    assert c1 == pytest.approx(-1.0, rel=1e-12)
    assert c2 == pytest.approx(1.0, rel=1e-12)


def test_constant_factor_frame_commutes():
    flat = ConformalSurface.from_config({"name": "flat", "lambda": "0.7", "guard": "all"})
    assert structure_functions(flat, (0.3, -0.8)) == (0.0, 0.0)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_structure_functions_vs_fd_lie_bracket(name):
    surface = catalog(name)
    rng = random.Random(101)
    for x in sample_points(surface, 100, rng):
        expected = fd_lie_bracket(surface, x)
        got = structure_functions(surface, x)
        assert got[0] == pytest.approx(expected[0], abs=1e-6)
        assert got[1] == pytest.approx(expected[1], abs=1e-6)


# -- curvature --------------------------------------------------------------------


def test_sphere_curvature_is_one():
    sph = catalog("sphere")
    for x in ((0.0, 0.0), (1.0, 1.0)):
        assert gauss_curvature(sph, x).K.value == pytest.approx(1.0, abs=1e-12)
    rng = random.Random(7)
    for x in sample_points(sph, 20, rng):
        assert gauss_curvature(sph, x).K.value == pytest.approx(1.0, abs=1e-10)


def test_halfplane_curvature_is_minus_one():
    hp = catalog("halfplane")
    assert gauss_curvature(hp, (0.7, 2.0)).K.value == pytest.approx(-1.0, abs=1e-12)


def test_bump_curvature():
    bump = catalog("bump")
    assert gauss_curvature(bump, (0.0, 0.0)).K.value == pytest.approx(-4.0, abs=1e-12)
    rng = random.Random(8)
    for x in sample_points(bump, 20, rng):
        K = gauss_curvature(bump, x).K.value
        r2 = x[0] ** 2 + x[1] ** 2
        assert K == pytest.approx(-4.0 * math.exp(-2.0 * r2), rel=1e-12)
        assert K < 0.0


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_curvature_matches_conformal_laplacian(name):
    surface = catalog(name)
    rng = random.Random(name)
    for x in sample_points(surface, 100, rng):
        assert gauss_curvature(surface, x).K.value == pytest.approx(
            conformal_laplacian_curvature(surface, x), rel=1e-9, abs=1e-9
        )


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_curvature_frame_derivatives_vs_fd(name):
    surface = catalog(name)
    rng = random.Random(name + "fd")

    def k_at(p):
        return conformal_laplacian_curvature(surface, p)

    h = 1e-5
    for x in sample_points(surface, 25, rng):
        geometry = gauss_curvature(surface, x)
        em = _em(surface, x)
        d1K = (k_at((x[0] + h, x[1])) - k_at((x[0] - h, x[1]))) / (2 * h)
        d2K = (k_at((x[0], x[1] + h)) - k_at((x[0], x[1] - h))) / (2 * h)
        assert geometry.e1K.value == pytest.approx(em * d1K, rel=1e-5, abs=1e-6)
        assert geometry.e2K.value == pytest.approx(em * d2K, rel=1e-5, abs=1e-6)


def test_bump_log_derivative_frozen_point():
    # e1(K)/K at (1/2, 0) is -2 e^(-1/4) by hand
    bump = catalog("bump")
    geometry = gauss_curvature(bump, (0.5, 0.0))
    assert geometry.u1.value == pytest.approx(-2.0 * math.exp(-0.25), rel=1e-12)
    assert geometry.u2.value == pytest.approx(0.0, abs=1e-13)


def test_constant_curvature_kills_log_derivatives():
    for name in ("sphere", "halfplane"):
        surface = catalog(name)
        rng = random.Random(2)
        for x in sample_points(surface, 10, rng):
            geometry = gauss_curvature(surface, x)
            assert geometry.u1.value == pytest.approx(0.0, abs=1e-9)
            assert geometry.u2.value == pytest.approx(0.0, abs=1e-9)
            for row in geometry.ddlogK:
                for value in row:
                    assert value == pytest.approx(0.0, abs=1e-8)


def test_flat_surface_geometry_has_no_ratios():
    flat = ConformalSurface.from_config({"name": "flat", "lambda": "1", "guard": "all"})
    geometry = gauss_curvature(flat, (0.2, 0.4))
    assert geometry.K.value == 0.0
    assert geometry.u1 is None and geometry.u2 is None
    assert geometry.ddlogK is None


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_fast_fields_match_jet_pipeline(name):
    surface = catalog(name)
    rng = random.Random(name + "fast")
    for x in sample_points(surface, 50, rng):
        p = surface_jets(surface, x)
        em, c1, c2, K, u1, u2 = frame_fields(surface, x)
        assert em == pytest.approx(p.em.value, rel=1e-13)
        assert c1 == pytest.approx(p.c1.value, rel=1e-12, abs=1e-13)
        assert c2 == pytest.approx(p.c2.value, rel=1e-12, abs=1e-13)
        assert K == pytest.approx(p.K.value, rel=1e-12, abs=1e-13)
        assert u1 == pytest.approx(p.u1.value, rel=1e-11, abs=1e-12)
        assert u2 == pytest.approx(p.u2.value, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_pipeline_requires_order_four(order):
    lam = parse("x1*x2")
    from wagnerlift.expr import eval_jet

    with pytest.raises(ValueError, match="needs a lambda jet of order 4"):
        conformal_pipeline(eval_jet(lam, (0.0, 0.0), order))


def test_gauss_curvature_is_the_order_four_jets_record():
    bump = catalog("bump")
    x = (0.3, -0.4)
    assert gauss_curvature(bump, x) is surface_jets(bump, x)


@pytest.mark.parametrize("field", ["c1", "K", "u1", "ddlogK"])
def test_gauss_curvature_rejects_a_non_finite_field(monkeypatch, field):
    bump = catalog("bump")
    x = (0.3, -0.4)
    p = surface_jets(bump, x)
    if field == "ddlogK":
        bad = ((p.ddlogK[0][0], math.inf), p.ddlogK[1])
    else:
        jet = getattr(p, field)
        bad = Jet(jet.order, (math.nan, *jet._t[1:]))
    poisoned = dataclasses.replace(p, **{field: bad})
    monkeypatch.setattr(surface_module, "surface_jets", lambda surface, point: poisoned)
    with pytest.raises(DomainError, match=re.escape(f"non-finite geometry at point {x!r}")):
        gauss_curvature(bump, x)


def test_lambda_domain_error_propagates():
    weird = ConformalSurface.from_config(
        {"name": "weird", "lambda": "log(x1)", "guard": "all"}
    )
    with pytest.raises(DomainError):
        gauss_curvature(weird, (-1.0, 0.0))


# -- the last-point memo of surface_jets ---------------------------------------------


def _bits(p):
    """Every coefficient of a ConformalJets record, packed bit for bit."""
    values = []
    for jet in (p.lam, p.em, p.c1, p.c2, p.K, p.e1K, p.e2K, p.u1, p.u2):
        values += [] if jet is None else jet.coeffs
    values += [] if p.ddlogK is None else [v for row in p.ddlogK for v in row]
    return struct.pack(f"<{len(values)}d", *values)


LINE = {"name": "line", "lambda": "x1"}


def test_memo_keeps_the_sign_of_a_zero_coordinate():
    surface = ConformalSurface.from_config(LINE)
    assert math.copysign(1.0, surface_jets(surface, (-0.0, 0.0)).lam.value) == -1.0
    after = surface_jets(surface, (0.0, 0.0))
    fresh = surface_jets(ConformalSurface.from_config(LINE), (0.0, 0.0))
    assert math.copysign(1.0, after.lam.value) == 1.0
    assert _bits(after) == _bits(fresh)


def test_memo_never_keeps_a_failing_point():
    surface = ConformalSurface.from_config(
        {"name": "log", "lambda": "log(x1)", "guard": "x1 + 2 > 0"}
    )
    good, outside, negative = (1.5, 0.2), (-3.0, 0.0), (-1.0, 0.0)
    expected = _bits(surface_jets(surface, good))
    for _ in range(3):
        with pytest.raises(ChartDomainError):
            surface_jets(surface, outside)
        with pytest.raises(DomainError):
            surface_jets(surface, negative)
    assert _bits(surface_jets(surface, good)) == expected


def test_memo_leaves_equality_hash_repr_and_replace_alone():
    x = (0.3, -0.4)
    queried, fresh = catalog("bump"), catalog("bump")
    surface_jets(queried, x)
    assert queried == fresh
    assert hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    assert dataclasses.replace(queried) == fresh
    steeper = dataclasses.replace(queried, lam=parse("2*x1^2 + x2^2"))
    config = {"name": "bump", "lambda": "2*x1^2 + x2^2", "window": list(fresh.window)}
    assert _bits(surface_jets(steeper, x)) == _bits(
        surface_jets(ConformalSurface.from_config(config), x)
    )


def test_memo_ignores_a_point_that_can_change():
    surface, x = catalog("bump"), [0.3, -0.4]
    surface_jets(surface, x)
    x[0] = 0.5
    assert _bits(surface_jets(surface, x)) == _bits(
        surface_jets(catalog("bump"), (0.5, -0.4))
    )
