"""The frame calculus and the bracket oracle run on first chart partials.

Each test compares a library route with its jet-based reference in
``_oracles`` bit for bit (``struct.pack``), or by the type and message of the
exception both raise.  Points include signed zeros, where a sum that starts
from -0.0 instead of +0.0 would show.
"""

import random
import struct

import pytest

from _oracles import (
    bracket_structure_jets,
    curvature_jets,
    jet_base_frame,
    jet_lift_frame,
    jet_values,
    koszul_jets,
    nonholonomity_jets,
    random_smooth_expr,
    table_from_pair_form,
)
from wagnerlift import connection, lift
from wagnerlift import expr as ex
from wagnerlift.connection import base_frame_sampler, first_partials
from wagnerlift.jets import Jet
from wagnerlift.lift import lift_frame_sampler
from wagnerlift.surface import ConformalSurface, catalog, sample_points

SIGNED_ZERO_POINTS = (
    (0.0, 0.0),
    (-0.0, 0.0),
    (0.0, -0.0),
    (-0.0, -0.0),
    (0.5, -0.0),
    (-0.0, 0.5),
    (-0.0, 1.0),
)


def _custom(seed: int) -> ConformalSurface:
    """A catalog lambda plus a seeded smooth perturbation."""
    rng = random.Random(seed)
    base = catalog(("sphere", "halfplane", "bump")[seed % 3])
    lam = ex.Add(base.lam, ex.Mul(ex.Literal(0.05), random_smooth_expr(rng, 2)))
    return ConformalSurface(name=f"custom{seed}", lam=lam, guard=base.guard, window=base.window)


# The flat surface has K = 0, so its lifted routes raise SingularCurvature.
FLAT = ConformalSurface.from_config({"name": "flat", "lambda": "0.25", "guard": "all"})
SURFACES = [catalog(name) for name in ("sphere", "halfplane", "bump")] + [
    _custom(seed) for seed in range(6)
] + [FLAT]


def _points(surface):
    return sample_points(surface, 15, random.Random(surface.name)) + list(SIGNED_ZERO_POINTS)


def _flat(value) -> list:
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in _flat(item)]
    return [value]


def _outcome(fn, *args):
    """Packed doubles of ``fn(*args)``, or the type and message it raised."""
    try:
        result = fn(*args)
    except Exception as err:  # noqa: BLE001 - both routes must fail alike
        return (type(err), str(err))
    for attr in ("R", "gamma"):
        result = getattr(result, attr, result)
    values = _flat(result)
    return struct.pack(f"<{len(values)}d", *values)


def _koszul_jets_values(jet_frame, x):
    return jet_values(koszul_jets(jet_frame.at(x)))


def _tables(frame, x):
    point = frame.at(x)
    return point.c, point.dc


def _jet_tables(jet_frame, x):
    c = jet_frame.at(x).c
    slot = lambda s: tuple(  # noqa: E731
        tuple(tuple(f.coeffs[s] for f in row) for row in plane) for plane in c
    )
    return slot(0), (slot(1), slot(2))


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
def test_frame_calculus_matches_the_jet_route_bit_for_bit(surface):
    frames = (
        (base_frame_sampler(surface), jet_base_frame(surface)),
        (lift_frame_sampler(surface), jet_lift_frame(surface)),
    )
    raised = 0
    for frame, jet_frame in frames:
        for x in _points(surface):
            expected = _outcome(curvature_jets, jet_frame, x)
            assert _outcome(connection.curvature, frame, x) == expected, x
            raised += isinstance(expected, tuple)
            assert _outcome(_tables, frame, x) == _outcome(_jet_tables, jet_frame, x), x
            assert _outcome(connection.koszul, frame, x) == _outcome(
                _koszul_jets_values, jet_frame, x
            ), x
    assert raised < len(frames) * len(_points(surface))


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
def test_bracket_oracle_matches_the_jet_route_bit_for_bit(surface):
    for x in _points(surface):
        assert _outcome(lift.bracket_structure, surface, x) == _outcome(
            bracket_structure_jets, surface, x
        ), x
        assert _outcome(lift.nonholonomity, surface, x) == _outcome(
            nonholonomity_jets, surface, x
        ), x


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("name", ("sphere", "halfplane", "bump"))
def test_frame_derivative_matches_the_jet_product_on_signed_zeros(name):
    # e_a(f) is slot 0 of the jet product em * d_a(f), a sum that starts at
    # +0.0: a partial of -0.0 must give +0.0, not em * -0.0 = -0.0.
    surface = catalog(name)
    x = (0.2, 0.7)
    pairs = (
        (base_frame_sampler(surface), jet_base_frame(surface)),
        (lift_frame_sampler(surface), jet_lift_frame(surface)),
    )
    for frame, jet_frame in pairs:
        point, jet_point = frame.at(x), jet_frame.at(x)
        for f1 in (0.0, -0.0, 1.5, -2.25):
            for f2 in (0.0, -0.0, 0.75):
                jet = Jet(2, (0.3, f1, f2, 0.1, -0.2, 0.4))
                partials = first_partials(jet)
                for a in range(frame.dim):
                    expected = jet_point.d(a, jet).value
                    assert _bits(point.d(a, partials[1], partials[2])) == _bits(expected)


def test_curvature_table_fill_matches_the_pair_form_expansion():
    # Signed zeros and infinities included: a negated 0.0 must stay -0.0.
    # NaN is left out: -v and the old -1.0 * v differ in a NaN's sign bit,
    # which no output shows (repr, JSON and abs drop it).
    rng = random.Random(11)
    special = (0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), 1e-300, -1e300)
    keys = (((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3)),
            ((1, 3), (1, 3)), ((1, 3), (2, 3)), ((2, 3), (2, 3)))
    for _ in range(2000):
        components = {
            key: rng.choice(special) if rng.random() < 0.3 else rng.uniform(-5.0, 5.0)
            for key in keys
        }
        assert _outcome(lift.table_from_pair_components, components) == _outcome(
            table_from_pair_form, components
        )
