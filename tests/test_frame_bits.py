"""The frame calculus and the bracket oracle run on first chart partials.

Each test compares a library route with its jet-based reference in
``_oracles`` bit for bit (``struct.pack``), or by the type and message of the
exception both raise.  Points include signed zeros, where a sum that starts
from -0.0 instead of +0.0 would show.  The generated Koszul and curvature
kernels are also compared with the index loops they replace on random
tables, where infinities, huge and subnormal entries and NaN results show any
change in the order of the roundings.  The straight-line steps of
``verify_lift`` (the generated curvature table, the flat deviation and the
shared reciprocal of K) are compared with the code they replace on 2000
random inputs each.  On 2000 random frame records the bracket oracle's
forward substitution keeps the jet route's bits and agrees with the LAPACK
solve it replaced within a stated backward-error bound.  The lifted frame's
rows are compared with the matrix its record used to hold.
The generated order-4 pipeline kernel is compared with the ``Jet`` formulas it
writes out on 3000 random jets and at a zero curvature, an overflow of
e^-lambda and a jet of the wrong order, on the slots its record keeps: the
first three of each field, and ddlogK.  Every field of that record is an
order-1 jet whose Taylor slots, which ``lift`` reads, are its raw partials.
The curvature kernel for the zeros a lifted frame point declares keeps the
loops' bits on 2000 lifted frame points, after a dense frame point too, and on
3000 lifted points with special values in live slots, in em and in declared
zero slots, through its guard and its rerun.  The bracket oracle, the
nonholonomity and the closed curvature table, one straight-line function each,
keep the bits of the loops and the component dict they write out at catalog,
custom and flat surface points, on 3000 records and on 3000 coefficient rows
with special values in any slot.
"""

import dataclasses
import dis
import math
import random
import struct
import sys
from collections import Counter
from itertools import product

import pytest

from _oracles import (
    _bracket_components,
    _bracket_components_jets,
    _reexpand,
    _coefficient_jets,
    base_frame_point,
    bracket_structure_jets,
    bracket_structure_lapack,
    bracket_structure_loop,
    bracket_table_loop,
    conformal_pipeline_jets,
    conformal_pipeline_two_reciprocals,
    curvature_jets,
    curvature_loop,
    deviation_nested,
    frame_derivative,
    jet_base_frame,
    jet_lift_frame,
    jet_values,
    koszul_jets,
    koszul_values_loop,
    lifted_curvature_closed_loop,
    lifted_frame_reference,
    nonholonomity_jets,
    nonholonomity_loop,
    random_smooth_expr,
    table_from_pair_form,
    table_from_pair_loop,
)
from wagnerlift import connection, lift, verify
from wagnerlift import expr as ex
from wagnerlift.jets import DomainError, Jet
from wagnerlift.lift import SingularCurvature, lift_frame_point
from wagnerlift.surface import (
    ConformalJets,
    ConformalSurface,
    catalog,
    conformal_pipeline,
    sample_points,
    surface_jets,
)


@pytest.fixture(autouse=True, scope="module")
def _warm_pipelines():
    """Until CPython specializes a float product or sum it returns the second
    of two NaN operands, and after it the first.  So the pipeline kernel and
    the jet routes it is compared with run a few times before any test here."""
    warm = Jet(4, tuple(0.1 * k for k in range(1, 16)))
    for _ in range(16):
        for pipeline in (conformal_pipeline, conformal_pipeline_jets,
                         conformal_pipeline_two_reciprocals):
            pipeline(warm)


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


# Each frame pairs its point with its jet reference, both built from (surface, x).
FRAMES = ((base_frame_point, jet_base_frame), (lift_frame_point, jet_lift_frame))


def _at(route, frame_point):
    """``route`` applied to the frame point built at (surface, x)."""
    return lambda surface, x: route(frame_point(surface, x))


def _tables(point):
    return point.c, point.dc


def _jet_tables(jet_point):
    c = jet_point.c
    slot = lambda s: tuple(  # noqa: E731
        tuple(tuple(f.coeffs[s] for f in row) for row in plane) for plane in c
    )
    return slot(0), (slot(1), slot(2))


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
def test_frame_calculus_matches_the_jet_route_bit_for_bit(surface):
    raised = 0
    for frame, jet_frame in FRAMES:
        for x in _points(surface):
            expected = _outcome(_at(curvature_jets, jet_frame), surface, x)
            assert _outcome(_at(connection.curvature, frame), surface, x) == expected, x
            raised += isinstance(expected, tuple)
            assert _outcome(_at(_tables, frame), surface, x) == _outcome(
                _at(_jet_tables, jet_frame), surface, x
            ), x
            assert _outcome(_at(connection.koszul, frame), surface, x) == _outcome(
                _at(lambda p: jet_values(koszul_jets(p)), jet_frame), surface, x
            ), x
    assert raised < len(FRAMES) * len(_points(surface))


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.name)
def test_bracket_oracle_matches_the_jet_route_bit_for_bit(surface):
    for x in _points(surface):
        assert _outcome(lift.bracket_structure, surface, x) == _outcome(
            bracket_structure_jets, surface, x
        ), x
        assert _outcome(lift.nonholonomity, surface, x) == _outcome(
            nonholonomity_jets, surface, x
        ), x


LOG = ConformalSurface.from_config({"name": "log", "lambda": "log(x1)", "guard": "all"})
INTEGER_POINTS = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 2), (2, -1))


def _frame_cases():
    for name in ("sphere", "halfplane", "bump"):
        surface = catalog(name)
        points = sample_points(surface, 50, random.Random(name + "frame rows"))
        points += list(SIGNED_ZERO_POINTS) + list(INTEGER_POINTS)
        yield pytest.param(surface, points, None, id=name)
    yield pytest.param(FLAT, [(0.1, 0.2), (0.0, 0.0), (-0.0, 0.0), (1, 1)], SingularCurvature, id="flat")
    yield pytest.param(LOG, [(1e-80, 0.5), (1e-80, -0.0), (1e-80, 2)], DomainError, id="log")


@pytest.mark.parametrize("surface, points, error", _frame_cases())
def test_lifted_frame_keeps_the_outcome_of_the_frame_record(surface, points, error):
    for x in points:
        outcome = _outcome(lift.lifted_frame, surface, x)
        assert outcome == _outcome(lifted_frame_reference, surface, x), x
        if error is not None:
            assert outcome[0] is error, outcome


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("name", ("sphere", "halfplane", "bump"))
def test_frame_derivative_matches_the_jet_product_on_signed_zeros(name):
    # e_a(f) is slot 0 of the jet product em * d_a(f), a sum that starts at
    # +0.0: a partial of -0.0 must give +0.0, not em * -0.0 = -0.0.
    surface = catalog(name)
    x = (0.2, 0.7)
    for frame, jet_frame in FRAMES:
        point, jet_point = frame(surface, x), jet_frame(surface, x)
        for f1 in (0.0, -0.0, 1.5, -2.25):
            for f2 in (0.0, -0.0, 0.75):
                jet = Jet(2, (0.3, f1, f2, 0.1, -0.2, 0.4))
                partials = jet.coeffs
                for a in range(point.dim):
                    expected = jet_point.d(a, jet).value
                    assert _bits(frame_derivative(point, a, partials[1], partials[2])) == _bits(expected)


def _closed_table(components: dict) -> tuple:
    """``lift._closed_table_kernel()`` of the six components of a ``_PAIR_KEYS`` dict."""
    return lift._closed_table_kernel()(*map(components.__getitem__, lift._PAIR_KEYS))


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
        assert _outcome(_closed_table, components) == _outcome(table_from_pair_form, components)


KERNEL_ENTRIES = (0.0, -0.0, float("inf"), float("-inf"), 1e300, -1e300, 5e-324, -5e-324)
KERNEL_EMS = (0.0, -0.0, float("inf"))


def _random_table(rng: random.Random, n: int, zeros: float) -> tuple:
    """A c[k][i][j]-shaped table: a share ``zeros`` of signed zeros, then two
    in five of the other entries special values and the rest uniform."""

    def entry() -> float:
        if rng.random() < zeros:
            return rng.choice((0.0, -0.0))
        return rng.choice(KERNEL_ENTRIES) if rng.random() < 0.4 else rng.uniform(-3.0, 3.0)

    return tuple(tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("dim", (2, 3))
def test_frame_kernels_match_the_index_loops_bit_for_bit(dim):
    # 2000 points of three tables each.  Mostly-zero tables, like the lifted
    # frame's, let a sum's signed zero reach the output; NaN results are
    # compared too, as struct.pack keeps a NaN's sign and payload.
    rng = random.Random(1200 + dim)
    for _ in range(2000):
        em = rng.choice(KERNEL_EMS) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
        zeros = rng.choice((0.0, 0.6, 0.9))
        tables = [_random_table(rng, dim, zeros) for _ in range(3)]
        point = connection.FramePoint(dim=dim, c=tables[0], dc=(tables[1], tables[2]), em=em)
        assert _outcome(connection.curvature, point) == _outcome(curvature_loop, point), point
        assert _outcome(connection.koszul, point) == _outcome(
            koszul_values_loop, point.c, dim
        ), point
        for table in tables[1:]:
            assert _outcome(connection.koszul_values, table, dim) == _outcome(
                koszul_values_loop, table, dim
            ), table


# -- the straight-line steps of verify_lift against the code they replace --------

STEP_SPECIAL = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e300, -1e300, 5e-324)


def _special_or_uniform(rng: random.Random, share: float, scale: float = 3.0) -> float:
    return rng.choice(STEP_SPECIAL) if rng.random() < share else rng.uniform(-scale, scale)


def _served(p: ConformalJets):
    """A surface whose last-point memo already holds ``p`` at its point, so
    every lift route at that point reads ``p``."""
    surface, x = ConformalSurface(name="served", lam=ex.Literal(0.0)), (0.25, 0.5)
    object.__setattr__(surface, "_last_jets", (x, p))
    return surface, x


def _frame_jets(rng: random.Random) -> ConformalJets:
    """Frame coefficients with first partials only.  em may exceed |c1| and
    |c2| or fall below them (row pivoting), or have underflowed to 0.0
    (a singular frame matrix); the partials hold signed zeros and specials.
    K, u and ddlogK stay finite, as ``_checked_jets`` requires."""
    em = rng.choice((0.0, 5e-324, 1e-300, rng.uniform(0.01, 0.2), rng.uniform(0.5, 3.0)))
    partial = lambda: _special_or_uniform(rng, 0.3)  # noqa: E731
    jet = lambda value: Jet(1, (value, partial(), partial()))  # noqa: E731
    K = rng.choice((1.0, -1.0)) * rng.choice((1e-8, rng.uniform(0.01, 5.0), 1e6))
    u = Jet(1, (rng.uniform(-2.0, 2.0), 0.0, 0.0))
    return ConformalJets(
        lam=u, em=jet(em), c1=jet(rng.uniform(-8.0, 8.0)), c2=jet(rng.choice((-0.0, 0.3, -6.0))),
        K=jet(K), e1K=u, e2K=u, u1=u, u2=u, ddlogK=((0.5, -0.0), (0.0, 1.5)),
    )


def test_bracket_substitution_matches_the_jet_route_bit_for_bit():
    rng = random.Random(1401)
    for _ in range(2000):
        p = _frame_jets(rng)
        surface, x = _served(p)
        # The jet route sums each bracket's components in a loop and
        # re-expands on the jets' values; on order-1 jets its partials are
        # the same bits.
        assert _outcome(lift.bracket_structure, surface, x) == _outcome(
            bracket_structure_jets, surface, x
        ), p
        rows, jet_rows = lift._coefficient_rows(p), _coefficient_jets(p)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert _outcome(_bracket_components, rows, i, j) == _outcome(
                _bracket_components_jets, jet_rows, i, j
            )


# Both solves are backward stable for the frame matrix M (Higham, "Accuracy
# and Stability of Numerical Algorithms", 2nd ed., ch. 8 and 9), so each lies
# within c * eps * kappa(M) * |s| of the exact solution s (infinity norms),
# c a small multiple of n = 3 times LU's growth factor (at most 4 for n = 3).
# Gradual underflow adds up to half of ulp(0.0) per operation, the same
# multiple of kappa(M) * ulp(0.0).  32 covers both; the worst of these
# records comes to 0.6.
LAPACK_BOUND = 32 * sys.float_info.epsilon


def test_bracket_substitution_matches_the_lapack_solve_within_its_bound():
    # The reference solves on the full matrix of ``_coefficient_rows``, so a
    # nonzero in one of its zero slots, which the substitution never reads,
    # shows.
    rng = random.Random(1401)
    compared = pivoted = 0
    for _ in range(2000):
        p = _frame_jets(rng)
        surface, x = _served(p)
        em, c1, c2, K = p.em.value, p.c1.value, p.c2.value, p.K.value
        outcome = _outcome(lift.bracket_structure, surface, x)
        if em == 0.0:
            # LAPACK raised LinAlgError.  No surface reaches em = 0: every term
            # of K carries em^2, so K underflows first and ``_checked_jets``
            # raises SingularCurvature.
            assert outcome == (ZeroDivisionError, "float division by zero"), p
            continue
        # A subnormal em (5e-324, 416 of these records) gives a table: finite
        # on 160, holding inf or NaN on 256.  LAPACK raised LinAlgError on 345.
        assert isinstance(outcome, bytes), p
        kappa = max(em, abs(c1) + abs(c2) + abs(K)) * max(
            1.0 / em, (abs(c1) + abs(c2)) / em / abs(K) + 1.0 / abs(K)
        )
        if not math.isfinite(kappa):  # every subnormal em, and some em = 1e-300
            continue
        table, reference = lift.bracket_structure(surface, x), bracket_structure_lapack(surface, x)
        solutions = [[(table[k][i][j], reference[k][i][j]) for k in range(3)]
                     for i, j in ((0, 1), (0, 2), (1, 2))]
        # An inf or NaN partial reaches components through LU's elimination
        # (inf - inf, 0 * inf) that the triangular system keeps finite, so only
        # finite tables compare; the jet test above pins the others' bits.
        if not all(map(math.isfinite, _flat(solutions))):
            continue
        for solution in solutions:
            bound = kappa * (LAPACK_BOUND * max(abs(s) for s, _ in solution) + 32 * math.ulp(0.0))
            assert all(abs(s - r) <= bound for s, r in solution), (p, solution)
        compared += 1
        pivoted += max(abs(c1), abs(c2)) > em  # LAPACK swaps the rows
    assert compared > 350 and pivoted > 300


# -- the straight-line lift routes against the loops they write out ---------------

LIFT_ROUTES = (
    (lift.bracket_structure, bracket_structure_loop),
    (lift.nonholonomity, nonholonomity_loop),
    (lift.lifted_curvature_closed, lifted_curvature_closed_loop),
)


def _warm_lift_routes():
    """Past CPython's specialization of each route's float operations (the
    two-NaN quirk of the module's fixture)."""
    bump, x = catalog("bump"), (0.3, 0.2)
    for _ in range(16):
        for route, reference in LIFT_ROUTES:
            route(bump, x), reference(bump, x)
        for table in (True, False):
            lift._bracket_kernel(table)(lift._coefficient_rows(surface_jets(bump, x)))
            bracket_table_loop(lift._coefficient_rows(surface_jets(bump, x)))


def _compare_lift_routes(surface, x) -> list:
    """Each route's outcome at ``x`` on a fresh copy of ``surface``, asserted
    equal to its references' there; the outcomes, in ``LIFT_ROUTES`` order."""
    outcomes = []
    for route, reference in LIFT_ROUTES:
        expected = _outcome(reference, *_copy(surface, x))
        assert _outcome(route, *_copy(surface, x)) == expected, (route.__name__, surface.name, x)
        outcomes.append(expected)
    return outcomes


def _copy(surface, x):
    """A copy of ``surface`` with its memos as they are: the routes read the
    same record at ``x`` but check it afresh."""
    copy = ConformalSurface(name=surface.name, lam=surface.lam, guard=surface.guard,
                            window=surface.window)
    object.__setattr__(copy, "_last_jets", surface._last_jets)
    return copy, x


def test_straight_line_lift_routes_keep_the_loop_bits_at_surface_points():
    # Catalog, seeded custom and flat surfaces at sampled and signed-zero points.
    _warm_lift_routes()
    kinds = Counter()
    for surface in SURFACES + [_custom(seed) for seed in range(100, 106)]:
        points = sample_points(surface, 30, random.Random(surface.name + " routes"))
        for x in points + [x for x in SIGNED_ZERO_POINTS if surface.contains(x)]:
            for outcome in _compare_lift_routes(surface, x):
                kinds["table" if isinstance(outcome, bytes) else outcome[0].__name__] += 1
    assert kinds["table"] > 1500 and kinds["SingularCurvature"] > 50, kinds


def _special_jet(rng: random.Random, share: float) -> Jet:
    return Jet(1, tuple(_special_or_uniform(rng, share) for _ in range(3)))


def _special_record(rng: random.Random) -> ConformalJets:
    """A record with ±0.0, ±inf, NaN, ±1e300 or 5e-324 in any slot of em,
    c^1_12, c^2_12, K, u and ddlogK; about one in three of them passes
    ``_checked_jets``."""
    share = rng.choice((0.02, 0.1, 0.3))
    em, c1, c2, K, u1, u2 = (_special_jet(rng, share) for _ in range(6))
    dd = tuple(tuple(_special_or_uniform(rng, share) for _ in range(2)) for _ in range(2))
    return ConformalJets(lam=em, em=em, c1=c1, c2=c2, K=K, e1K=u1, e2K=u2, u1=u1, u2=u2, ddlogK=dd)


def test_straight_line_lift_routes_keep_the_loop_bits_on_special_records():
    _warm_lift_routes()
    rng = random.Random(1408)
    kinds = Counter()
    for _ in range(3000):
        outcomes = _compare_lift_routes(*_served(_special_record(rng)))
        for name, outcome in zip(("bracket", "nonholonomity", "closed"), outcomes):
            if isinstance(outcome, bytes):
                values = struct.unpack(f"<{len(outcome) // 8}d", outcome)
                kinds[name, "finite" if all(map(math.isfinite, values)) else "not finite"] += 1
            else:
                kinds[name, outcome[0].__name__] += 1
    for name in ("bracket", "nonholonomity", "closed"):
        assert kinds[name, "finite"] > 100 and kinds[name, "DomainError"] > 100, kinds
    assert kinds["bracket", "not finite"] > 100 and kinds["closed", "not finite"] > 100, kinds
    assert kinds["bracket", "SingularCurvature"] > 100, kinds


def test_bracket_functions_keep_the_loop_bits_on_special_rows():
    # Any slot of the rows, the four that are 0.0 in every frame too.
    _warm_lift_routes()
    rng = random.Random(1409)
    for _ in range(3000):
        share = rng.choice((0.05, 0.3))
        rows = tuple(tuple(tuple(_special_or_uniform(rng, share) for _ in range(3))
                           for _ in range(3)) for _ in range(3))
        assert _outcome(lift._bracket_kernel(True), rows) == _outcome(bracket_table_loop, rows), rows
        assert _outcome(lift._bracket_kernel(False), rows) == _outcome(
            lambda rows: _reexpand(rows, _bracket_components(rows, 0, 1))[2], rows
        ), rows


def test_generated_curvature_table_matches_the_fill_loop_bit_for_bit():
    # NaN included: both negate the component itself.
    rng = random.Random(1402)
    for _ in range(2000):
        components = {key: _special_or_uniform(rng, 0.3, 5.0) for key in lift._PAIR_KEYS}
        assert _outcome(_closed_table, components) == _outcome(table_from_pair_loop, components)


def _nested_table(rng: random.Random, depth: int) -> tuple:
    if depth == 0:
        return _special_or_uniform(rng, 0.05)
    return tuple(_nested_table(rng, depth - 1) for _ in range(3))


@pytest.mark.parametrize("depth", (3, 4))
def test_flat_deviation_matches_the_nested_walk_bit_for_bit(depth):
    # A NaN difference does not compare, so a plain max keeps it only in first
    # place: both must give the NaN wherever it falls, and the largest otherwise.
    rng = random.Random(1403 + depth)
    nan = 0
    for _ in range(2000):
        a, b = _nested_table(rng, depth), _nested_table(rng, depth)
        assert _outcome(verify._deviation_kernel(depth), a, b) == _outcome(deviation_nested, a, b)
        nan += math.isnan(deviation_nested(a, b))
    assert nan > 200


def test_conformal_pipeline_matches_the_two_reciprocal_route_bit_for_bit():
    rng = random.Random(1404)
    size = len(Jet.constant(0.0, 4).coeffs)
    non_finite_u = 0
    for _ in range(2000):
        scale = rng.choice((1.0, 1e100, 1e160))
        taylor = tuple(
            rng.choice(STEP_SPECIAL) if rng.random() < 0.04 else rng.uniform(-scale, scale)
            for _ in range(size)
        )
        lam = Jet(4, (rng.uniform(-2.0, 2.0),) + taylor[1:])
        outcomes = []
        for pipeline in (conformal_pipeline, conformal_pipeline_two_reciprocals):
            try:
                p = pipeline(lam)
            except Exception as err:  # noqa: BLE001 - both routes must fail alike
                outcomes.append((type(err), str(err)))
                continue
            values = _kept_slots(p)
            outcomes.append(struct.pack(f"<{len(values)}d", *values))
        assert outcomes[0] == outcomes[1], lam
        if isinstance(outcomes[0], bytes):
            u = p.u1._t + p.u2._t if p.u1 is not None else ()
            non_finite_u += not all(map(math.isfinite, u))
    assert non_finite_u > 200


# -- the generated pipeline kernel against the Jet formulas it writes out --------

RECORD_FIELDS = ("em", "c1", "c2", "K", "e1K", "e2K", "u1", "u2")


def _kept_slots(p: ConformalJets) -> list:
    """The slots of a record that the library keeps: (value, d_1, d_2) of each
    field that is set, then ddlogK."""
    fields = [getattr(p, name) for name in RECORD_FIELDS]
    return [c for f in fields if f is not None for c in f._t[:3]] + _flat(p.ddlogK or ())


def _pipeline_outcome(pipeline, lam: Jet):
    """Which of the record's fields are set and its packed kept slots, or the
    type and message of the exception that ``pipeline`` raises on ``lam``."""
    try:
        p = pipeline(lam)
    except Exception as err:  # noqa: BLE001 - both routes must fail alike
        return (type(err), str(err))
    values, unset = _kept_slots(p), [getattr(p, name) is None for name in RECORD_FIELDS]
    return p.lam is lam, unset, p.ddlogK is None, struct.pack(f"<{len(values)}d", *values)


def _random_lambda_jet(rng: random.Random) -> Jet:
    """Order-4 jets with specials in any slot, huge slots whose products
    overflow, values past exp's overflow, and affine jets (K often 0.0)."""
    scale = rng.choice((3.0, 3.0, 1e100, 1e160, 1e300))
    taylor = [_special_or_uniform(rng, rng.choice((0.0, 0.05)), scale) for _ in range(15)]
    taylor[0] = rng.choice((rng.uniform(-2.0, 2.0),) * 5 + (rng.uniform(-800.0, 800.0), -1e300))
    if rng.random() < 0.15:  # a constant or an affine lambda
        keep = rng.choice((1, 3))
        taylor[keep:] = [0.0] * (15 - keep)
    return Jet(4, tuple(taylor))


def test_pipeline_kernel_matches_the_jet_formulas_bit_for_bit():
    rng = random.Random(1406)
    kinds = Counter()
    for _ in range(3000):
        lam = _random_lambda_jet(rng)
        expected = _pipeline_outcome(conformal_pipeline_jets, lam)
        assert _pipeline_outcome(conformal_pipeline, lam) == expected, lam
        if len(expected) == 2:
            kinds[expected[0].__name__] += 1
        elif expected[2]:
            kinds["K == 0"] += 1
        else:
            values = [v for (v,) in struct.iter_unpack("<d", expected[3])]
            kinds["finite" if all(map(math.isfinite, values)) else "non-finite"] += 1
    assert kinds["DomainError"] > 200 and kinds["K == 0"] > 200, kinds
    assert kinds["finite"] > 500 and kinds["non-finite"] > 1000, kinds


LINE = ConformalSurface.from_config({"name": "line", "lambda": "x1"})


@pytest.mark.parametrize("x", SIGNED_ZERO_POINTS + ((0.3, -0.2),))
def test_pipeline_kernel_keeps_an_exactly_zero_curvature(x):
    p = surface_jets(LINE, x)
    assert p.K.value == 0.0
    assert p.u1 is None and p.u2 is None and p.ddlogK is None
    assert _pipeline_outcome(lambda lam: p, p.lam) == _pipeline_outcome(
        conformal_pipeline_jets, p.lam
    )


def test_pipeline_kernel_names_an_exp_overflow_and_its_point():
    steep = ConformalSurface.from_config({"name": "steep", "lambda": "-1000 + x1"})
    x = (0.0, 0.0)
    with pytest.raises(DomainError) as jet_route:
        conformal_pipeline_jets(steep.lambda_jet(x, 4))
    with pytest.raises(DomainError) as kernel_route:
        surface_jets(steep, x)
    assert str(kernel_route.value) == f"{jet_route.value} at point {x!r}"
    assert str(kernel_route.value) == "exp overflows at value 1000.0 at point (0.0, 0.0)"


@pytest.mark.parametrize("order", (0, 1, 2, 3))
def test_pipeline_kernel_rejects_a_jet_not_of_order_four(order):
    lam = Jet(order, tuple(0.5 for _ in Jet.constant(0.0, order)._t))
    outcome = _pipeline_outcome(conformal_pipeline, lam)
    assert outcome == _pipeline_outcome(conformal_pipeline_jets, lam)
    assert outcome == (ValueError, "conformal pipeline needs a lambda jet of order 4")


def _records():
    """``surface_jets`` records at the catalog's sampled and signed-zero chart
    points, on the K = 0 ``LINE`` and of 2000 random order-4 lambda jets."""
    for name in ("sphere", "halfplane", "bump"):
        surface = catalog(name)
        points = sample_points(surface, 20, random.Random(name)) + list(SIGNED_ZERO_POINTS)
        yield from (surface_jets(surface, x) for x in points if surface.contains(x))
    for x in SIGNED_ZERO_POINTS:
        yield surface_jets(LINE, x)
    rng = random.Random(1405)
    for _ in range(2000):
        try:
            yield conformal_pipeline(_random_lambda_jet(rng))
        except DomainError:
            pass


def test_every_record_field_is_an_order_one_jet_whose_slots_are_its_raw_partials():
    # ``lift`` reads the Taylor slots ``_t`` as (value, d_1, d_2).
    counted = Counter()
    for p in _records():
        fields = [getattr(p, name) for name in RECORD_FIELDS]
        for f in fields:
            if f is not None:
                assert f.order == 1, p
                assert struct.pack("<3d", *f._t) == struct.pack("<3d", *f.coeffs), p
        counted["K == 0" if p.u1 is None else "u set"] += 1
    assert counted["K == 0"] > 200 and counted["u set"] > 1000, counted


# -- the curvature kernel for the known zeros of its input ------------------------

# The lifted frame's live structure functions, 0-based (k, i, j) with i < j:
# c^1_12, c^2_12, c^3_12 = -1, c^3_13 = u1 and c^3_23 = u2.  The constant
# c^3_12 has zero chart partials.
_LIFTED_LIVE = {(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 0, 2), (2, 1, 2)}
LIFTED_ZEROS = frozenset(
    (t, k, i, j) for t, k, i, j in product(range(3), repeat=4)
    if (k, *sorted((i, j))) not in (_LIFTED_LIVE - {(2, 0, 1)} if t else _LIFTED_LIVE)
)
ZERO_PATTERN_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324)


def _binary_ops(function) -> int:
    return sum(ins.opname == "BINARY_OP" for ins in dis.get_instructions(function))


def _with(point, em=None, **slots) -> connection.FramePoint:
    """``point`` with em and the named slots (table letter c, p or q, then
    k, i, j) replaced; it declares the same zeros."""
    tables = [[[list(row) for row in plane] for plane in table] for table in (point.c, *point.dc)]
    for name, value in slots.items():
        t, k, i, j = "cpq".index(name[0]), *map(int, name[1:])
        tables[t][k][i][j] = value
    c, p, q = (tuple(tuple(map(tuple, plane)) for plane in table) for table in tables)
    em = point.em if em is None else em
    return connection.FramePoint(dim=3, c=c, dc=(p, q), em=em, zeros=point.zeros)


def _record_kernels(monkeypatch) -> list:
    """The zero patterns of the curvature kernels run from now on, in order."""
    kernel, built = connection._curvature_kernel, []
    monkeypatch.setattr(connection, "_curvature_kernel", lambda n, zeros: built.append(zeros) or kernel(n, zeros))
    return built


def _warm(points, *patterns):
    """Run each pattern's kernel and the loop past CPython's specialization of
    their float operations (the two-NaN quirk of the module's fixture)."""
    for zeros, point in product(patterns, points):
        for _ in range(16):
            connection._curvature_kernel(3, zeros)(point.c, *point.dc, point.em)
            curvature_loop(point)


BUMP_POINT = lift_frame_point(catalog("bump"), (0.3, 0.2))


def test_the_lifted_pattern_leaves_out_60_percent_of_the_kernels_float_operations():
    assert len(LIFTED_ZEROS) == 17 + 19 + 19
    assert connection._zero_slots((BUMP_POINT.c, *BUMP_POINT.dc)) == LIFTED_ZEROS
    assert _binary_ops(connection._curvature_kernel(3, frozenset())) == 1881
    assert _binary_ops(connection._curvature_kernel(3, LIFTED_ZEROS)) == 741  # guard included


def _lifted_points() -> list:
    """100 sampled lifted frame points of each catalog surface and of 20
    seeded custom ones."""
    surfaces = [catalog(name) for name in ("sphere", "halfplane", "bump")]
    points = []
    for surface in surfaces + [_custom(seed) for seed in range(100, 120)]:
        for x in sample_points(surface, 100, random.Random(surface.name + " zeros")):
            try:
                points.append(lift_frame_point(surface, x))
            except (DomainError, SingularCurvature):
                pass
    return points


def test_lifted_points_declare_the_lifted_zero_pattern_and_keep_the_loop_bits(monkeypatch):
    # The sphere's and the half-plane's points have zeros of their own; every
    # lifted point declares exactly the lift's structural ones, and its guard holds.
    points = _lifted_points()
    assert len(points) > 2000
    assert {point.zeros for point in points} == {LIFTED_ZEROS}
    expected = [_outcome(curvature_loop, point) for point in points]
    _warm(points[:1], LIFTED_ZEROS)
    built = _record_kernels(monkeypatch)
    for point, outcome in zip(points, expected):
        assert _outcome(connection.curvature, point) == outcome, point
    assert built == [LIFTED_ZEROS] * len(points)


def test_a_declared_zero_that_is_not_zero_reruns_without_known_zeros(monkeypatch):
    extra = _with(BUMP_POINT, c001=0.0, c010=-0.0)  # a point with two more zeros
    _warm([BUMP_POINT], LIFTED_ZEROS, frozenset())
    built = _record_kernels(monkeypatch)
    for point, tried in (
        (extra, [LIFTED_ZEROS]),
        (BUMP_POINT, [LIFTED_ZEROS]),
        (_with(BUMP_POINT, c000=-0.0, p000=2.5, q222=math.nan), [LIFTED_ZEROS, frozenset()]),
        (dataclasses.replace(BUMP_POINT, zeros=LIFTED_ZEROS | {(0, 0, 0, 1)}), [LIFTED_ZEROS | {(0, 0, 0, 1)},
                                                                               frozenset()]),
    ):
        built[:] = []
        assert _outcome(connection.curvature, point) == _outcome(curvature_loop, point)
        assert built == tried


@pytest.mark.parametrize("slots", [{"em": math.inf}, {"em": math.nan}, {"c001": math.inf},
                                   {"c201": -math.inf}, {"c001": 1e308}])  # the last: Gamma^1_12 = inf
def test_a_value_that_is_not_finite_reruns_without_known_zeros(monkeypatch, slots):
    # The guard fails, and the call reruns on the kernel without known zeros.
    point = _with(BUMP_POINT, **slots)
    _warm([BUMP_POINT], LIFTED_ZEROS, frozenset())
    built = _record_kernels(monkeypatch)
    assert _outcome(connection.curvature, point) == _outcome(curvature_loop, point)
    assert built == [LIFTED_ZEROS, frozenset()]


def test_the_guard_and_its_reruns_keep_the_loop_bits_on_special_values(monkeypatch):
    # Specials in the live slots, in em and in seven of the known-zero slots.
    fillable = sorted(LIFTED_ZEROS)[::8]
    live = sorted(set(product(range(3), repeat=4)) - LIFTED_ZEROS)
    _warm([BUMP_POINT], LIFTED_ZEROS, frozenset())
    built = _record_kernels(monkeypatch)
    rng = random.Random(1407)
    routes = Counter()
    for _ in range(3000):
        slots = rng.sample(live, rng.choice((0, 1, 2))) + [rng.choice(fillable)] * (rng.random() < 0.4)
        point = _with(
            BUMP_POINT, em=rng.choice(ZERO_PATTERN_SPECIALS) if rng.random() < 0.2 else None,
            **{"cpq"[t] + f"{k}{i}{j}": rng.choice(ZERO_PATTERN_SPECIALS) for t, k, i, j in slots},
        )
        built[:] = []
        assert _outcome(connection.curvature, point) == _outcome(curvature_loop, point), point
        broken = LIFTED_ZEROS - connection._zero_slots((point.c, *point.dc))  # a declared zero is not 0.0
        assert built in ([LIFTED_ZEROS], [LIFTED_ZEROS, frozenset()]), built
        assert not broken or built[-1] == frozenset()
        routes["declared zero broken" if broken else "declared zeros hold",
               "rerun without known zeros" if built[-1] == frozenset() else "guard held"] += 1
    assert min(routes.values()) > 100 and len(routes) == 3, routes


def test_a_dense_frame_point_leaves_the_lifted_points_on_their_pattern(monkeypatch):
    # A dense random dim-3 point first, then the lifted points of a bump
    # ``verify_lift``: each still runs the 55-slot kernel and keeps the loop bits.
    rng = random.Random(1410)
    dense = [tuple(tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(3)) for _ in range(3))
                   for _ in range(3)) for _ in range(3)]
    connection.curvature(connection.FramePoint(dim=3, c=dense[0], dc=tuple(dense[1:]), em=0.7))
    _warm([BUMP_POINT], LIFTED_ZEROS)
    built = _record_kernels(monkeypatch)
    bump = catalog("bump")
    oracle = []
    monkeypatch.setattr(verify, "lifted_curvature_oracle", lambda surface, x: oracle.append(
        (lift_frame_point(surface, x), lift.lifted_curvature_oracle(surface, x))) or oracle[-1][1])
    assert verify.verify_lift(bump, 30, 7, 1e-8).passed
    assert len(oracle) == 30 and built == [LIFTED_ZEROS] * 30
    for point, table in oracle:
        assert _outcome(lambda: table) == _outcome(curvature_loop, point), point
