"""Geodesic-flow tests: right-hand sides, conservation, projection, Wong."""

import io
import json
import math
import random
import struct
from collections import Counter
from dataclasses import replace

import pytest

from _oracles import (
    base_rhs_reference,
    base_state_speed,
    csv_lines_reference,
    json_rows_reference,
    lift_state_speed,
)
from wagnerlift import expr as expr_module
from wagnerlift import geodesic as geo
from wagnerlift.connection import koszul_values
from wagnerlift.expr import COMPILE_AFTER, Tape
from wagnerlift.jets import DomainError
from wagnerlift.lift import SingularCurvature, lifted_connection
from wagnerlift.surface import (
    ChartDomainError,
    ConformalSurface,
    catalog,
    conformal_laplacian_curvature,
    frame_fields,
    frame_fields_from,
    laplacian_curvature_from,
    sample_points,
)
from wagnerlift.verify import coupling_sign_vs_reference

SPHERE = catalog("sphere")
HALFPLANE = catalog("halfplane")
BUMP = catalog("bump")

DISK = ConformalSurface.from_config(
    {"name": "disk", "lambda": "x1^2 + x2^2", "guard": "1 - x1^2 - x2^2 > 0"}
)
# |K| ~ 4e-9 near the origin: nonzero, but below the threshold KAPPA_MIN = 1e-8.
FAINT = ConformalSurface.from_config({"name": "faint", "lambda": "1e-9*(x1^2 + x2^2)"})


# -- right-hand side ---------------------------------------------------------------


def test_fiber_rotation_is_a_geodesic_on_constant_curvature():
    state = geo.LiftState(0.0, 1.0, 0.0, 0.0, 0.0, 0.7)
    dx1, dx2, dphi, dq1, dq2, dq3 = geo.lift_rhs(HALFPLANE, state)
    assert (dx1, dx2) == (0.0, 0.0)
    assert dphi == pytest.approx(0.7 * -1.0)  # Q3 * K
    assert (dq1, dq2, dq3) == (0.0, 0.0, 0.0)


def test_horizontal_rhs_keeps_q3_zero():
    state = geo.LiftState(0.4, 1.2, 0.0, 0.8, -0.3, 0.0)
    assert geo.lift_rhs(HALFPLANE, state)[5] == 0.0
    state = geo.LiftState(0.4, -0.2, 0.0, 0.8, -0.3, 0.0)
    assert geo.lift_rhs(BUMP, state)[5] == 0.0


def test_halfplane_rhs_frozen_values():
    state = geo.LiftState(0.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    dx1, dx2, dphi, dq1, dq2, dq3 = geo.lift_rhs(HALFPLANE, state)
    assert dphi == pytest.approx(1.0)  # -Q1 c^1_12 with c^1_12 = -1
    assert dq2 == pytest.approx(-1.0)  # c^1_12 (Q1)^2
    assert dq1 == pytest.approx(0.0)
    assert (dx1, dx2) == pytest.approx((1.0, 0.0))


@pytest.mark.parametrize("name", ("sphere", "halfplane", "bump"))
def test_rhs_is_minus_connection_contraction(name):
    # dQ^k = -Gamma-hat^k_ij Q^i Q^j, with the connection from the generic
    # Koszul route: pins the coupling-term signs symbolically.
    surface = catalog(name)
    rng = random.Random(name + "rhs")
    from wagnerlift.surface import sample_points

    for x in sample_points(surface, 10, rng):
        q = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        state = geo.LiftState(x[0], x[1], 0.0, *q)
        dq = geo.lift_rhs(surface, state)[3:]
        gamma = lifted_connection(surface, x)
        for k in range(3):
            expected = -sum(
                gamma.gamma[k][i][j] * q[i] * q[j] for i in range(3) for j in range(3)
            )
            assert dq[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_coupling_sign_resolution_is_stable():
    for surface in (SPHERE, HALFPLANE, BUMP):
        x = ((surface.window[0][0] + surface.window[0][1]) / 2,
             (surface.window[1][0] + surface.window[1][1]) / 2)
        state = geo.LiftState(x[0], x[1], 0.0, 0.5, 0.4, 0.6)
        assert coupling_sign_vs_reference(surface, state) == -1


def test_base_rhs_zero_velocity():
    assert geo.base_rhs(BUMP, geo.BaseState(0.3, 0.2, 0.0, 0.0)) == (0.0, 0.0, 0.0, 0.0)


# -- integration ---------------------------------------------------------------


def test_integration_validates_parameters():
    state = geo.LiftState(0.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        geo.integrate_lift(HALFPLANE, state, t_max=1.0, h=-0.1)
    with pytest.raises(ValueError):
        geo.integrate_lift(HALFPLANE, state, t_max=0.0, h=0.1)
    with pytest.raises(ValueError):
        geo.integrate_lift(HALFPLANE, state, t_max=1.0, h=0.1, method="euler")


@pytest.mark.parametrize(
    "t_max,h,times",
    [
        (1.0, 0.3, [0.0, 0.3, 0.6, 0.3 * 3, 1.0]),  # ends with a partial step
        (0.1, 0.3, [0.0, 0.1]),  # one partial step shorter than h
        (0.5, 0.1, [n * 0.1 for n in range(6)]),  # whole steps keep t = n*h
    ],
)
def test_rk4_run_ends_at_t_max(t_max, h, times):
    state = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    trajectory = geo.integrate_lift(SPHERE, state, t_max=t_max, h=h)
    assert trajectory.t == times


@pytest.mark.parametrize(
    "surface,start",
    [
        (SPHERE, geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)),
        (HALFPLANE, geo.LiftState(0.0, 1.0, 0.0, 0.6, 0.0, 0.8)),
        (BUMP, geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)),
    ],
)
def test_conservation_and_speed_over_short_runs(surface, start):
    trajectory = geo.integrate_lift(surface, start, t_max=3.0, h=1e-3)
    assert trajectory.conservation_drift() <= 1e-6
    assert trajectory.speed_drift() <= 1e-8
    times = trajectory.t
    assert all(b > a for a, b in zip(times, times[1:]))


def test_horizontality_persists_exactly():
    start = geo.LiftState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=1.0, h=1e-3)
    assert max(abs(y[5]) for y in trajectory.states) == 0.0
    assert max(abs(v) for v in trajectory.q3_over_k) == 0.0
    assert trajectory.speed_drift() <= 1e-10


def test_conservation_drift_halves_with_fourth_order():
    # measured in the truncation-dominated regime on a nonconstant-curvature
    # surface; Q3 is exactly conserved when K is constant
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    drift_h = geo.integrate_lift(BUMP, start, t_max=2.0, h=0.1).conservation_drift()
    drift_h2 = geo.integrate_lift(BUMP, start, t_max=2.0, h=0.05).conservation_drift()
    assert drift_h2 > 1e-13  # still above roundoff: the ratio is meaningful
    assert drift_h / drift_h2 >= 8.0


def test_halfplane_vertical_ray():
    trajectory = geo.integrate_base(
        HALFPLANE, geo.BaseState(0.0, 1.0, 0.0, 1.0), t_max=2.0, h=1e-3
    )
    rows = list(zip(trajectory.t, trajectory.states))
    for t, (x1, x2, _, P2) in rows[:: len(rows) // 7]:
        assert x1 == 0.0
        assert x2 == pytest.approx(math.exp(t), rel=1e-9)
        assert P2 == pytest.approx(1.0, abs=1e-12)


def test_zero_velocity_stays_put():
    trajectory = geo.integrate_base(BUMP, geo.BaseState(0.4, -0.2, 0.0, 0.0), t_max=1.0, h=1e-2)
    assert trajectory.states[-1][:2] == (0.4, -0.2)


def test_sphere_great_circle_closes_with_period_two_pi():
    # start away from the chart origin with a transverse direction, so the
    # circle's chart image stays bounded (radial starts pass through the
    # deleted point of the stereographic chart)
    h = 2.0 * math.pi / 6000.0
    trajectory = geo.integrate_base(
        SPHERE, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=2.0 * math.pi, h=h
    )
    assert trajectory.t[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
    x1, x2, P1, P2 = trajectory.states[-1]
    assert x1 == pytest.approx(0.5, abs=1e-5)
    assert x2 == pytest.approx(0.0, abs=1e-5)
    assert P1 == pytest.approx(0.0, abs=1e-5)
    assert P2 == pytest.approx(1.0, abs=1e-5)


def test_rk45_matches_rk4_and_records_actual_steps():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 0.8, 0.6)
    adaptive = geo.integrate_lift(SPHERE, start, t_max=2.0, h=0.1, method="rk45")
    fixed = geo.integrate_lift(SPHERE, start, t_max=2.0, h=1e-3, method="rk4")
    a, b = adaptive.states[-1], fixed.states[-1]
    assert a[0] == pytest.approx(b[0], abs=1e-7)
    assert a[1] == pytest.approx(b[1], abs=1e-7)
    assert adaptive.t[-1] == pytest.approx(2.0, abs=1e-12)
    steps = [q - p for p, q in zip(adaptive.t, adaptive.t[1:])]
    assert len(set(round(s, 15) for s in steps)) > 1  # genuinely adaptive
    assert adaptive.conservation_drift() <= 1e-8


def test_rk45_step_underflow_raises(monkeypatch):
    monkeypatch.setattr(geo, "_RK45_ATOL", 0.0)  # no step is accurate enough
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(geo.StepFailure):
        geo.integrate_lift(SPHERE, start, t_max=1.0, h=0.1, method="rk45")


def test_guard_violation_mid_flight_reports_last_valid_time():
    with pytest.raises(ChartDomainError) as err:
        geo.integrate_base(DISK, geo.BaseState(0.5, 0.0, 1.0, 0.0), t_max=3.0, h=1e-2)
    assert 0.0 < err.value.last_valid_t < 3.0
    assert err.value.point[0] > 0.9


def test_singular_curvature_mid_flight_reports_last_valid_time():
    # |K| stays below the threshold over a window much wider than one step
    start = geo.LiftState(0.1, 0.2, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(SingularCurvature) as err:
        geo.integrate_lift(FAINT, start, t_max=1.0, h=1e-2)
    assert err.value.last_valid_t == 0.0


@pytest.mark.parametrize(
    "method, last_valid_t, point",
    [
        ("rk4", 1.06, (0.996291098331003, -0.09863201725815646)),
        ("rk45", 1.050529230613897, (0.9967144810745929, -0.0987560811282271)),
    ],
)
def test_lift_failure_time_and_point_are_pinned(method, last_valid_t, point):
    # last_valid_t is the time of the last accepted sample before the step
    # whose evaluation failed.
    start = geo.LiftState(0.5, 0.0, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(ChartDomainError) as err:
        geo.integrate_lift(DISK, start, t_max=3.0, h=1e-2, method=method)
    assert err.value.last_valid_t == last_valid_t
    assert err.value.point == point


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_non_finite_frame_fields_stop_the_run(method):
    # At x1 = 1e-103 the third derivative of log(x1) overflows, which leaves
    # the order-3 jet's third partials inf or NaN; the run stops before any
    # state goes NaN.
    surface = ConformalSurface.from_config({"name": "log", "lambda": "log(x1)"})
    start = geo.LiftState(1e-103, 0.0, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(DomainError, match=r"non-finite frame fields at point \(1e-103, 0.0\)") as err:
        geo.integrate_lift(surface, start, t_max=0.02, h=1e-2, method=method)
    assert err.value.last_valid_t == 0.0
    with pytest.raises(DomainError):
        geo.lift_rhs(surface, start)


def _count_lambda_runs(monkeypatch, name):
    """A fresh catalog surface and the orders of every evaluation of its lambda
    tape, in call order, on the jets or on a compiled function.  A fresh tape
    gets its compiled functions only through ``expr._compile``."""
    surface = catalog(name)
    tape, runs = surface._lam_tape, []
    compile_, run_jets = expr_module._compile, Tape._run_jets

    def counting_compile(t, order):
        fn = compile_(t, order)
        if t is not tape or fn is None:
            return fn

        def counted(x1, x2):
            value = fn(x1, x2)  # a point that falls back counts on the jets
            runs.append(order)
            return value

        return counted

    def counting_jets(t, x1, x2, order):
        if t is tape:
            runs.append(order)
        return run_jets(t, x1, x2, order)

    monkeypatch.setattr(expr_module, "_compile", counting_compile)
    monkeypatch.setattr(Tape, "_run_jets", counting_jets)
    return surface, runs


@pytest.mark.parametrize("surface", [SPHERE, HALFPLANE, BUMP])
def test_rk4_wong_job_evaluates_lambda_once_per_stage(monkeypatch, surface):
    steps = 50
    start = geo.LiftState(0.3, 1.1, 0.0, 0.6, 0.0, 0.8)
    surface, runs = _count_lambda_runs(monkeypatch, surface.name)
    trajectory = geo.integrate_lift(surface, start, t_max=steps * 1e-2, h=1e-2)
    geo.wong_residual(surface, geo.project(trajectory))
    # Stage 1 at each sample also yields its monitor and Wong fields; the
    # final sample, which starts no step, is that stage 1 alone.
    assert runs == [3] * (4 * steps + 1)


def test_rk45_retries_reuse_the_first_stage(monkeypatch):
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.8)
    surface, runs = _count_lambda_runs(monkeypatch, "sphere")
    trajectory = geo.integrate_lift(surface, start, t_max=1.0, h=1.0, method="rk45")
    accepted = len(trajectory.t) - 1
    # Six runs per attempt besides stage 1, once per accepted sample, and
    # one for the final sample.
    attempts, rest = divmod(len(runs) - accepted - 1, 6)
    assert rest == 0
    assert attempts > accepted  # a step was rejected and retried


def test_base_run_evaluates_its_final_sample_once(monkeypatch):
    surface, runs = _count_lambda_runs(monkeypatch, "sphere")
    geo.integrate_base(surface, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=0.1, h=1e-2)
    assert len(runs) == 4 * 10 + 1


# -- the fused lifted stage ------------------------------------------------------------


def _bits(value):
    """``value`` with every float as its IEEE-754 bytes (-0.0 and NaN compare)."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return struct.pack("<d", value) if isinstance(value, float) else value


def _outcome(call):
    try:
        return "returned", _bits(call())
    except Exception as err:  # the same type and message, or a mismatch
        return type(err), str(err)


def _stage_one_route(surface, y):
    """Stage 1 of an accepted sample on the ``lambda_jet`` route."""
    x = (y[0], y[1])
    l = surface.lambda_jet(x, 3).coeffs
    fields = geo._checked(frame_fields_from(l, x), x)
    return geo._lift_derivative(fields, *y[3:]), (laplacian_curvature_from(l, x), fields)


def _tupled(stage):
    """The stage on state tuples, as rk45 calls it."""
    return lambda y, keep=None: stage(y[0], y[1], *y[3:], keep)


def _assert_stage_matches(surface, states):
    """The stage against ``lift_rhs`` (stages 2-4) and the stage-1 route, by
    bits or by exception type and message, and by what it keeps."""
    stage = _tupled(geo._lift_stage(surface))
    for y in states:
        expected = _outcome(lambda: geo.lift_rhs(surface, geo.LiftState(*y)))
        assert _outcome(lambda: stage(y)) == expected, y
        kept = []
        first = _outcome(lambda: (stage(y, kept.append), *kept))
        assert first == _outcome(lambda: _stage_one_route(surface, y)), y


def _states(surface, count, seed):
    rng = random.Random(seed)
    states = []
    for x1, x2 in sample_points(surface, count, rng):
        q = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        states.append((x1, x2, rng.uniform(-3.0, 3.0), *q))
    return states


_GUARDED = {"name": "ring", "lambda": "0.3*x1^2 + 0.2*x2^2 + 0.1*x1*x2",
            "guard": "1 - x1^2 - x2^2 > 0", "window": ((-0.7, 0.7), (-0.7, 0.7))}


@pytest.mark.parametrize("config", ["sphere", "halfplane", "bump", _GUARDED], ids=str)
def test_fused_stage_keeps_the_bits_before_and_after_compiling(monkeypatch, config):
    surface = catalog(config) if isinstance(config, str) else ConformalSurface.from_config(config)
    assert surface._lam_tape.compiled[3] is None
    outside = [(0.3, -0.5, 0.0, 0.6, 0.1, 0.8), (0.9, 0.9, 1.0, 0.6, 0.1, 0.8)]
    _assert_stage_matches(surface, _states(surface, 3 * COMPILE_AFTER, str(config)) + outside)
    assert surface._lam_tape.compiled[3] is not None
    # The stage passes the compiled branch floats, as eval_jet passes the jets;
    # 2^53 + 1 rounds (on the halfplane, 1/x2 tells).
    integers = [(0, 0, 0, 0.6, 0.1, 0.8), (-0.0, 0.0, 0.0, 0.6, 0.1, 0.8),
                (1, 2**53 + 1, 0, 0.6, 0.1, 0.8)]
    _assert_stage_matches(surface, integers)
    # On the happy path a compiled stage never reaches the jet route.
    run = Tape._run

    def refuse(tape, *args):
        assert tape not in (surface._lam_tape, surface._guard_tape), "a compiled point reran"
        return run(tape, *args)

    states = _states(surface, 5, "again")
    expected = [(_outcome(lambda: geo.lift_rhs(surface, geo.LiftState(*y))),
                 _outcome(lambda: _stage_one_route(surface, y))) for y in states]
    monkeypatch.setattr(Tape, "_run", refuse)
    stage = geo._lift_stage(surface)
    for y, (rhs, first) in zip(states, expected):
        kept = []
        assert _outcome(lambda: stage(y[0], y[1], *y[3:])) == rhs, y
        assert _outcome(lambda: (stage(y[0], y[1], *y[3:], kept.append), *kept)) == first, y
        geo._lift_sample(stage, [].append, y, 1e-6)


@pytest.mark.parametrize(
    "lam, guard, point, scale",  # the surface's lambda is scale*(lam)
    [
        ("x1^2 + x2^2", "1 - x1^2 - x2^2 > 0", (0.8, 0.8), "1e0"),  # guard false
        ("x1^2 + x2^2", "all", (0.1, 0.2), "1e-9"),  # |K| ~ 4e-9 < KAPPA_MIN
        ("x1^2 - x2^2", "all", (0.1, 0.2), "1e0"),  # Lap(lambda) = 0
        ("log(x1)", "x1 > 0", (1e-103, 0.5), "1e0"),  # third partials inf or NaN
        ("-1000*x1^2", "all", (1.0, 0.0), "1e0"),  # exp overflows
        # u1 = e^(-lambda) (d1 Lap / Lap - 2 d1 lambda) overflows; K, c1, c2 are finite.
        ("x1^3 + 1e-290*(x1^2 + x2^2) - 345", "all", (0.0, 0.2), "1e0"),
    ],
)
def test_fused_stage_reruns_each_fallback_on_the_jet_route(lam, guard, point, scale):
    config = {"name": "case", "lambda": f"{scale}*({lam})", "guard": guard}
    surface = ConformalSurface.from_config(config)
    warm = [(0.1 + 0.01 * k, 0.3, 0.0, 0.6, 0.1, 0.8) for k in range(COMPILE_AFTER + 5)]
    _assert_stage_matches(surface, warm)
    assert surface._lam_tape.compiled[3] is not None
    _assert_stage_matches(surface, [(*point, 0.0, 0.6, 0.1, 0.8)])
    with pytest.raises((SingularCurvature, ChartDomainError, DomainError)):
        geo._lift_stage(surface)(*point, 0.6, 0.1, 0.8)


def test_fused_stage_sends_a_field_sum_that_overflows_to_the_jets(monkeypatch):
    # At x1 = 0, c2 = 7e307 e^(-lambda) and u1 = 1.4e308 e^(-lambda) are finite
    # but their sum is not: the compiled branch leaves the point, and the jets
    # return the finite fields.
    surface = ConformalSurface.from_config({"name": "steep", "lambda": "-7e307*x1 + x1^2 + x2^2"})
    warm = [(0.0, 0.5 + 0.01 * k, 0.0, 0.6, 0.1, 0.8) for k in range(COMPILE_AFTER + 5)]
    _assert_stage_matches(surface, warm)
    assert surface._lam_tape.compiled[3] is not None
    y = (0.0, 0.1, 0.0, 0.6, 0.1, 0.8)
    _assert_stage_matches(surface, [y])
    stage, reruns = geo._lift_stage(surface), _count_jet_reruns(monkeypatch, surface)
    assert all(math.isfinite(v) for v in stage(0.0, 0.1, 0.6, 0.1, 0.8))
    assert reruns == [(0.0, 0.1)]


def _count_jet_reruns(monkeypatch, surface):
    """The points at which ``surface`` evaluates lambda at order 3 on the
    ``lambda_jet`` route, which every stage that leaves the compiled branch
    takes once (``lift_rhs`` through ``frame_fields``, or stage 1's route)."""
    points, lambda_jet = [], ConformalSurface.lambda_jet

    def counting(self, x, order):
        if self is surface and order == 3:
            points.append(x)
        return lambda_jet(self, x, order)

    monkeypatch.setattr(ConformalSurface, "lambda_jet", counting)
    return points


# |K| = 4s e^(-2 s r^2) falls below KAPPA_MIN past r = 0.1.
_THRESHOLD = {"name": "threshold", "lambda": "2.500000000125e-9*(x1^2 + x2^2)"}
_GENERATED = [  # catalog lambdas plus 0.005 times generated terms, as in surface-churn
    {"name": "gen-a", "lambda": "log(2) - log(1 + x1^2 + x2^2) + 0.005*(sin(x1)*exp(x2))",
     "window": ((-2.0, 2.0), (-2.0, 2.0))},
    {"name": "gen-b", "lambda": "-log(x2) + 0.005*(atan(x1)*x2^1.5 + tanh(x1 - x2))",
     "guard": "x2 > 0", "window": ((-2.0, 2.0), (0.05, 3.0))},
]


def _step_cases(surface, count, seed):
    """Seeded states with their steps; a third take the largest step."""
    rng = random.Random(seed)
    return [(y, rng.choice([1e-3, 1e-2, 0.1])) for y in _states(surface, count, seed)]


def _stage_points(surface, y, h):
    """The (x1, x2) of the stages of an rk4 sample up to one that raises, from
    ``lift_rhs``."""
    points, k = [], None
    for scale in (0.0, h / 2.0, h / 2.0, h):
        z = y if k is None else tuple([yi + scale * ki for yi, ki in zip(y, k)])
        points.append((z[0], z[1]))
        try:
            k = geo.lift_rhs(surface, geo.LiftState(*z))
        except (SingularCurvature, ChartDomainError, DomainError):
            break
    return points


def _assert_sample_matches(monkeypatch, surface, cases):
    """The fused rk4 sample against stage 1 with ``keep`` and ``_rk4_step`` on
    the same stage, by bits or by exception and by what each keeps; the
    sample never calls ``_rk4_step``.  Returns per case the outcome, the
    entries kept and the points its stages ran on the jets."""
    stage = geo._lift_stage(surface)
    rk4_step, lambda_jet = geo._rk4_step, ConformalSurface.lambda_jet

    def refuse(*args):
        raise AssertionError("the fused sample called _rk4_step")

    outcomes = []
    for y, h in cases:
        kept, expected_kept = [], []
        monkeypatch.setattr(geo, "_rk4_step", refuse)
        reruns = _count_jet_reruns(monkeypatch, surface)
        got = _outcome(lambda: geo._lift_sample(stage, kept.append, y, h))
        monkeypatch.setattr(geo, "_rk4_step", rk4_step)
        monkeypatch.setattr(ConformalSurface, "lambda_jet", lambda_jet)
        tupled = _tupled(stage)
        expected = _outcome(lambda: rk4_step(tupled, y, h, tupled(y, expected_kept.append)))
        assert got == expected, (y, h)
        assert _bits(tuple(kept)) == _bits(tuple(expected_kept)), (y, h)
        outcomes.append((got[0], len(kept), reruns))
    return outcomes


@pytest.mark.parametrize("config", ["sphere", "halfplane", "bump", *_GENERATED], ids=str)
def test_unrolled_rk4_step_keeps_the_bits_of_rk4_step(monkeypatch, config):
    surface = catalog(config) if isinstance(config, str) else ConformalSurface.from_config(config)
    # The first samples run on a tape not yet compiled, so on the jets.
    cases = _step_cases(surface, 3 * COMPILE_AFTER, str(config))
    outcomes = [(kind, len(points)) for kind, _, points in
                _assert_sample_matches(monkeypatch, surface, cases)]
    assert outcomes[:3] == [("returned", 4)] * 3 and ("returned", 0) in outcomes
    # Integer and signed-zero starts, on the compiled tape.
    x1, x2 = (0, 0) if surface.contains((0.0, 0.0)) else (1, 1)
    starts = [(x1, x2, 0, 0.6, 0.1, 0.8), (x1, x2, 0, 1, 0, 0), (-0.0, x2, -0.0, 0.6, -0.0, 0.8),
              (float(x1), float(x2), 0.0, -0.0, 0.0, -0.0)]
    if config == "halfplane":  # 2^53 + 1 rounds (1/x2 tells)
        starts.append((1, 2**53 + 1, 0, 0.6, 0.1, 0.8))
    outcomes = _assert_sample_matches(monkeypatch, surface, [(y, 1e-3) for y in starts])
    assert outcomes == [("returned", 1, [])] * len(starts)


@pytest.mark.parametrize(
    "config, cases",
    [
        # Halfplane near x2 = 0: a later stage leaves the guard.
        ("halfplane", [((0.1, 4e-3, 0.0, 0.0, -1.0, 0.1), 3.0),
                       ((0.1, 4e-3, 0.0, 0.0, -1.0, 0.1), 1.9)]),
        # |K| crosses KAPPA_MIN within the step.
        (_THRESHOLD, [((0.098, 0.0, 0.0, 1.0, 0.0, 0.0), 0.01),
                      ((0.096, 0.0, 0.0, 1.0, 0.0, 0.0), 0.01)]),
        # A later stage's e^(-lambda) overflows, or its K = -e^(-2 lambda) Lap does.
        ({"name": "steep", "lambda": "-1000*x1^2"},
         [((0.59, 0.0, 0.0, 1.0, 0.0, 0.0), 1e-150), ((0.59, 0.0, 0.0, 1.0, 0.0, 0.0), 2e-154)]),
        # k2 lands near x1 = 1e-80, where the partials of log(x1) overflow.
        ({"name": "log", "lambda": "log(x1)", "guard": "x1 > 0"},
         [((1e-70, 0.5, 0.0, -1.0, 0.0, 0.0), 2e-140 * (1.0 - 1e-10))]),
    ],
    ids=["halfplane-edge", "kappa-min", "exp-overflow", "log-partials"],
)
def test_unrolled_rk4_step_reruns_each_fallback_on_rk4_step(monkeypatch, config, cases):
    surface = catalog(config) if isinstance(config, str) else ConformalSurface.from_config(config)
    warm = [((0.1 + 0.01 * k, 0.3, 0.0, 0.6, 0.1, 0.8), 1e-3) for k in range(COMPILE_AFTER)]
    _assert_sample_matches(monkeypatch, surface, warm)
    assert surface._lam_tape.compiled[3] is not None
    outcomes = _assert_sample_matches(monkeypatch, surface, cases)
    # Stage 1 passes and is kept once; the later stage that leaves the
    # compiled branch runs on the jets once, and they raise.
    points = [_stage_points(surface, y, h) for y, h in cases]
    assert outcomes == [(kind, 1, p[-1:]) for (kind, _, _), p in zip(outcomes, points)]
    assert all(kind != "returned" and len(p) > 1 for (kind, _, _), p in zip(outcomes, points))


def test_fused_sample_runs_stage_one_on_the_jets_where_the_fast_branch_leaves_it(monkeypatch):
    # Lambda compiles at order 3 through eval_jet alone, so the guard's tape
    # has not compiled: stage 1 leaves the fast branch on a compiled lambda.
    surface = ConformalSurface.from_config(_GUARDED)
    for k in range(COMPILE_AFTER):
        expr_module.eval_jet(surface._lam_tape, (0.1 + 0.01 * k, 0.3), 3)
    assert surface._lam_tape.compiled[3] is not None and surface._guard_tape.compiled[0] is None
    y = (0.2, 0.1, 0.0, 0.6, 0.1, 0.8)
    outcomes = _assert_sample_matches(monkeypatch, surface, [(y, 1e-3)])
    # Each stage leaves the compiled branch once and runs on the jets once.
    assert outcomes == [("returned", 1, _stage_points(surface, y, 1e-3))]


def test_fused_sample_reruns_only_stage_3_on_the_jets_when_it_raises(monkeypatch):
    surface = catalog("sphere")
    warm = [((0.1 + 0.01 * k, 0.3, 0.0, 0.6, 0.1, 0.8), 1e-3) for k in range(COMPILE_AFTER)]
    _assert_sample_matches(monkeypatch, surface, warm)
    compiled, calls = surface._lam_tape.compiled[3], []

    def third_raises(x1, x2):  # the compiled lambda cannot vouch for stage 3's point
        calls.append((x1, x2))
        if len(calls) == 3:
            raise FloatingPointError
        return compiled(x1, x2)

    y = (0.3, 0.2, 0.0, 0.6, 0.1, 0.8)
    surface._lam_tape.compiled[3] = third_raises
    try:
        outcomes = _assert_sample_matches(monkeypatch, surface, [(y, 1e-2)])
    finally:
        surface._lam_tape.compiled[3] = compiled
    # Four calls on the fused sample, the third raising, one as stage 3 reruns
    # through eval_jet, and four on the reference route; no other stage reruns.
    assert len(calls) == 9
    assert outcomes == [("returned", 1, [_stage_points(surface, y, 1e-2)[2]])]


@pytest.mark.parametrize("t_max, h", [(0.37, 0.1), (0.305, 1e-2)], ids=["jets", "compiled"])
@pytest.mark.parametrize("name", ["sphere", "halfplane", "bump"])
def test_a_partial_last_step_keeps_the_bits_of_rk4_step(monkeypatch, name, t_max, h):
    surface, rk4_step = catalog(name), geo._rk4_step
    start = geo.LiftState(0.3, 1.1, 0.0, 0.6, 0.1, 0.8)
    monkeypatch.setattr(geo, "_rk4_step", None)  # a lifted run never calls it
    trajectory = geo.integrate_lift(surface, start, t_max=t_max, h=h)
    monkeypatch.setattr(geo, "_rk4_step", rk4_step)
    t, y = trajectory.t[-2], trajectory.states[-2]
    assert t == math.floor(t_max / h) * h and trajectory.t[-1] == t_max
    assert (surface._lam_tape.compiled[3] is not None) == (h == 1e-2)
    tupled, kept = _tupled(geo._lift_stage(surface)), []
    expected = rk4_step(tupled, y, t_max - t, tupled(y, kept.append))
    assert _bits(trajectory.states[-1]) == _bits(expected)
    (K, fields), = kept
    assert _bits(trajectory.fields[-2]) == _bits(fields)
    assert _bits(trajectory.q3_over_k[-2]) == _bits(y[5] / K)


@pytest.mark.parametrize("method, h", [("rk4", 1e-2), ("rk45", 0.1)])
@pytest.mark.parametrize("name, start", [("sphere", (0.3, 0.2)), ("halfplane", (0.2, 1.5)),
                                         ("bump", (0.3, -0.1))])
def test_the_final_sample_keeps_the_bits_of_its_pointwise_routes(method, h, name, start):
    surface, oracle = catalog(name), catalog(name)  # fresh tapes; the oracle's stays on the jets
    state = geo.LiftState(*start, 0.0, 0.6, 0.1, 0.8)
    for t_max, compiled in ((1e-3, False), (2.0, True)):  # the last stage on the jets, then not
        trajectory = geo.integrate_lift(surface, state, t_max=t_max, h=h, method=method)
        assert (surface._lam_tape.compiled[3] is not None) == compiled
        y = trajectory.states[-1]
        x = (y[0], y[1])
        K = conformal_laplacian_curvature(oracle, x)
        assert _bits(trajectory.q3_over_k[-1]) == _bits(y[5] / K)
        assert _bits(trajectory.fields[-1]) == _bits(frame_fields(oracle, x))


@pytest.mark.parametrize("name", ["sphere", "halfplane", "bump"])
def test_the_kept_k_keeps_the_bits_of_laplacian_curvature_from(name):
    surface = catalog(name)
    stage, kept, routes = geo._lift_stage(surface), [], set()
    for y in _states(surface, 2 * COMPILE_AFTER, name + "-K"):
        routes.add(surface._lam_tape.compiled[3] is not None)  # the compiled branch or the jets
        stage(y[0], y[1], *y[3:], kept.append)
        x = (y[0], y[1])
        assert _bits(kept[-1][0]) == _bits(laplacian_curvature_from(surface.lambda_jet(x, 3).coeffs, x))
    assert routes == {False, True}


@pytest.mark.parametrize("kind", ["lift", "base"])
def test_rk45_stops_past_max_steps(monkeypatch, kind):
    def run():
        if kind == "lift":
            start = geo.LiftState(0.1, 0.2, 0.0, 0.6, 0.3, 0.8)
            return geo.integrate_lift(SPHERE, start, t_max=2.0, h=0.1, method="rk45")
        return geo.integrate_base(SPHERE, geo.BaseState(0.1, 0.2, 0.6, 0.3), 2.0, 0.1, "rk45")

    steps = len(run().t) - 1
    assert steps > 10
    monkeypatch.setattr(geo, "MAX_STEPS", steps)  # MAX_STEPS + 1 samples, as rk4 keeps
    assert len(run().t) == steps + 1
    monkeypatch.setattr(geo, "MAX_STEPS", steps - 1)
    with pytest.raises(geo.StepFailure, match=rf"^more than {steps - 1} adaptive steps at t=") as err:
        run()
    assert 0.0 < float(str(err.value).rsplit("=", 1)[1]) < 2.0


def test_rk4_sphere_run_leaves_the_jet_path_after_the_threshold(monkeypatch):
    surface = catalog("sphere")  # a fresh tape, not yet compiled at any order
    runs = []
    run_jets = Tape._run_jets

    def counting(tape, x1, x2, order):
        if tape is surface._lam_tape:
            runs.append(order)
        return run_jets(tape, x1, x2, order)

    monkeypatch.setattr(Tape, "_run_jets", counting)
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.8)
    trajectory = geo.integrate_lift(surface, start, t_max=1.0, h=1e-3)
    assert len(trajectory.t) == 1001
    # 4001 order-3 runs, the final sample's too, of which the first
    # COMPILE_AFTER run on jets.
    assert Counter(runs) == {3: COMPILE_AFTER}


@pytest.mark.parametrize("method, h", [("rk4", 1e-2), ("rk45", 0.1)])
@pytest.mark.parametrize("name, start", [("sphere", (0.3, 0.2)), ("halfplane", (0.2, 1.5)),
                                         ("bump", (0.3, -0.1))])
def test_a_compiled_run_keeps_the_bits_of_a_run_on_the_jets(monkeypatch, method, h, name, start):
    def run():
        surface = catalog(name)  # a fresh tape
        state = geo.LiftState(*start, 0.0, 0.6, 0.1, 0.8)
        trajectory = geo.integrate_lift(surface, state, t_max=2.0, h=h, method=method)
        return surface._lam_tape.compiled[3], {
            key: _bits(tuple(value) if isinstance(value, list) else value)
            for key, value in vars(trajectory).items()  # every field, ``fields`` too
        }

    compiled, columns = run()
    monkeypatch.setattr(expr_module, "COMPILE_AFTER", 10**9)  # every stage on the jets
    on_jets, jet_columns = run()
    assert compiled is not None and on_jets is None
    assert len(columns["t"]) > 20
    assert columns == jet_columns


# -- projection ---------------------------------------------------------------


@pytest.mark.parametrize(
    "surface,start",
    [
        (SPHERE, geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)),
        (HALFPLANE, geo.LiftState(0.0, 1.0, 0.0, 0.6, 0.8, 0.0)),
        (BUMP, geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.8, 0.0)),
    ],
)
def test_horizontal_lift_projects_onto_base_geodesic(surface, start):
    lifted = geo.integrate_lift(surface, start, t_max=5.0, h=1e-3)
    projected = geo.project(lifted)
    base = geo.integrate_base(
        surface, geo.BaseState(start.x1, start.x2, start.Q1, start.Q2), t_max=5.0, h=1e-3
    )
    sup = max(
        abs(a - b) for p, q in zip(projected.states, base.states) for a, b in zip(p, q)
    )
    assert sup <= 1e-6


def test_fiber_geodesic_projects_to_constant_point():
    start = geo.LiftState(0.2, 1.5, 0.0, 0.0, 0.0, 0.9)
    projected = geo.project(geo.integrate_lift(HALFPLANE, start, t_max=2.0, h=1e-2))
    for x1, x2, P1, P2 in projected.states:
        assert (x1, x2) == (0.2, 1.5)
        assert P1 == P2 == 0.0


def test_projection_with_vertical_momentum_is_not_a_base_geodesic():
    start = geo.LiftState(0.0, 1.0, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(HALFPLANE, start, t_max=5.0, h=1e-3))
    # pure geodesic residual (magnetic term suppressed): bounded away from zero
    residuals = [r for r in geo.wong_residual(HALFPLANE, projected, C=0.0) if r is not None]
    assert min(residuals) > 0.4


def test_project_requires_lift_trajectory():
    base = geo.integrate_base(BUMP, geo.BaseState(0.0, 0.0, 1.0, 0.0), t_max=0.1, h=1e-2)
    with pytest.raises(ValueError):
        geo.project(base)


def test_project_carries_conserved_ratio():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.5, h=1e-2)
    projected = geo.project(trajectory)
    assert projected.q3_over_k[0] == pytest.approx(0.5, abs=1e-12)
    # The projection shares the times and frame fields and keeps (x1, x2, Q1, Q2).
    assert projected.t is trajectory.t and projected.fields is trajectory.fields
    assert projected.states == [(y[0], y[1], y[3], y[4]) for y in trajectory.states]
    assert trajectory.speed == [lift_state_speed(y) for y in trajectory.states]
    assert projected.speed == [base_state_speed(y) for y in projected.states]


# -- Wong equation ---------------------------------------------------------------


def test_wong_residual_horizontal_reduces_to_geodesic_residual():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=5.0, h=1e-3))
    residuals = geo.wong_residual(SPHERE, projected)
    assert residuals[0] is None and residuals[-1] is None
    assert max(r for r in residuals if r is not None) <= 1e-5


def test_wong_residual_sphere_with_charge_half():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)  # C = Q3/K = 0.5
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=6.0, h=1e-3))
    assert projected.q3_over_k[0] == pytest.approx(0.5, abs=1e-12)
    residuals = geo.wong_residual(SPHERE, projected)
    assert max(r for r in residuals if r is not None) <= 1e-5


def test_wong_residual_bump_full_equation():
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=6.0, h=1e-3))
    residuals = geo.wong_residual(BUMP, projected)
    assert max(r for r in residuals if r is not None) <= 1e-4


def test_wong_opposite_rotation_sign_is_rejected_by_the_data(monkeypatch):
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=2.0, h=1e-3))
    monkeypatch.setattr(geo, "WONG_ROTATION_SIGN", +1.0)
    wrong = geo.wong_residual(SPHERE, projected)
    # flipping the magnetic orientation leaves 2|C K| |P| of residual
    assert max(r for r in wrong if r is not None) > 0.5


def test_christoffel_contraction_keeps_the_bits_of_the_summed_form():
    # The sum form base_rhs and wong_residual used before they shared the
    # unrolled contraction; signed zeros in the inputs test its +0.0 start.
    def summed(c1, c2, P1, P2):
        gamma = koszul_values((((0.0, c1), (-c1, 0.0)), ((0.0, c2), (-c2, 0.0))), 2)
        P = (P1, P2)
        return [sum(gamma[k][i][j] * P[i] * P[j] for i in range(2) for j in range(2))
                for k in range(2)]

    rng = random.Random(5)
    special = (0.0, -0.0, 1.0, -1.0, 1e300, -1e-300)
    for _ in range(5000):
        args = [rng.choice(special) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
                for _ in range(4)]
        assert _bits(tuple(geo._christoffel_contraction(*args))) == _bits(tuple(summed(*args)))


_BASE_STARTS = {
    "sphere": [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.5, -0.3)],
    "halfplane": [(0.0, 1.0), (-0.0, 0.5), (0.3, 1.2), (-0.4, 0.05)],
    "bump": [(0.0, 0.0), (-0.0, -0.0), (0.3, -0.0), (-0.6, 0.4)],
    # e^-lambda c112 = e^700 * 1e10 overflows: every run stops at its start.
    "-700 + 1e10*x2": [(0.0, 0.0), (-0.0, 0.0)],
}
_BASE_VELOCITIES = [
    (1.0, 0.0), (0.0, 1.0), (-0.0, 0.7), (0.6, -0.0), (0.0, 0.0), (-0.0, -0.0), (0.3, -0.8)
]


def _run_outcome(run):
    """Bits of the times and states ``run()`` returns, or the type, message
    and last valid time of what it raised."""
    try:
        times, states = run()
    except Exception as err:  # the same type, message and time, or a mismatch
        return type(err), str(err), getattr(err, "last_valid_t", None)
    return _bits((tuple(times), tuple(states)))


@pytest.mark.parametrize("method, h", [("rk4", 0.05), ("rk45", 0.1)])
@pytest.mark.parametrize("config", list(_BASE_STARTS), ids=str)
def test_base_run_keeps_the_bits_of_the_order_two_flow(config, method, h):
    # One surface for every run, so most of them run lambda compiled.
    on_catalog = config in ("sphere", "halfplane", "bump")
    surface = catalog(config) if on_catalog else ConformalSurface.from_config(
        {"name": "steep", "lambda": config}
    )
    reference = lambda y: base_rhs_reference(surface, geo.BaseState(*y))  # noqa: E731
    raised = 0
    for x in _BASE_STARTS[config]:
        for P in _BASE_VELOCITIES:
            def run():
                trajectory = geo.integrate_base(surface, geo.BaseState(*x, *P), 0.6, h, method)
                return trajectory.t, trajectory.states

            expected = _run_outcome(
                lambda: geo._integrate(reference, (*x, *P), 0.6, h, method, reference)
            )
            assert _run_outcome(run) == expected, (x, P)
            raised += len(expected) == 3
    assert raised == (0 if on_catalog else len(_BASE_STARTS[config]) * len(_BASE_VELOCITIES))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_wong_residual_from_carried_fields_matches_fresh_evaluation(method):
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=0.5, h=1e-2, method=method))
    assert all(fields is not None for fields in projected.fields)
    bare = replace(projected, fields=[None] * len(projected.t))
    assert bare == projected  # the carried fields are outside ==
    assert geo.wong_residual(BUMP, projected) == geo.wong_residual(BUMP, bare)
    # Another surface never uses them.
    assert geo.wong_residual(SPHERE, projected) == geo.wong_residual(SPHERE, bare)


def test_wong_residual_evaluates_a_same_named_surface_afresh():
    # Another metric under the sphere's name must not reuse the sphere's
    # carried fields: its residual is the one it gets from its own fields.
    impostor = ConformalSurface.from_config({"name": "sphere", "lambda": "x1^2 + x2^2"})
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=1.0, h=1e-2))
    bare = replace(projected, fields=[None] * len(projected.t))
    own = geo.wong_residual(impostor, bare)
    assert geo.wong_residual(impostor, projected) == own
    assert max(r for r in own if r is not None) > 1.0


def test_wong_residual_applies_its_own_kappa_min():
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=0.1, h=1e-2))
    # Another surface, so the fields are evaluated afresh, where |K| < KAPPA_MIN.
    with pytest.raises(SingularCurvature):
        geo.wong_residual(FAINT, projected)


def test_wong_residual_needs_three_samples():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=0.01, h=0.01))
    assert len(projected.t) == 2
    with pytest.raises(ValueError):
        geo.wong_residual(SPHERE, projected)


def test_wong_residual_needs_charge_or_monitor():
    base = geo.integrate_base(SPHERE, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=0.1, h=1e-2)
    with pytest.raises(ValueError):
        geo.wong_residual(SPHERE, base)
    residuals = geo.wong_residual(SPHERE, base, C=0.0)
    assert max(r for r in residuals if r is not None) <= 1e-5


# -- serialization ---------------------------------------------------------------


def test_csv_layout():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.01, h=1e-3)
    buffer = io.StringIO()
    geo.write_csv(trajectory, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,phi,Q1,Q2,Q3,speed,Q3_over_K,wong_residual"
    assert len(lines) == len(trajectory.t) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[9] == ""  # wong column empty unless requested
    # 17 significant digits on a non-trivial float
    assert len(lines[2].split(",")[1].replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_csv_base_rows_leave_lift_columns_empty():
    trajectory = geo.integrate_base(
        HALFPLANE, geo.BaseState(0.0, 1.0, 0.0, 1.0), t_max=0.01, h=1e-3
    )
    buffer = io.StringIO()
    geo.write_csv(trajectory, buffer)
    row = buffer.getvalue().splitlines()[1].split(",")
    assert row[3] == "" and row[6] == "" and row[8] == ""


def test_csv_phi_reduced_modulo_two_pi():
    start = geo.LiftState(0.2, 1.0, 0.0, 0.0, 0.0, 1.0)  # fast fiber rotation
    trajectory = geo.integrate_lift(HALFPLANE, start, t_max=30.0, h=1e-2)
    assert abs(trajectory.states[-1][2]) > 2.0 * math.pi  # unreduced inside
    buffer = io.StringIO()
    geo.write_csv(trajectory, buffer)
    last = buffer.getvalue().splitlines()[-1].split(",")
    assert abs(float(last[3])) <= math.pi + 1e-12


def test_with_wong_attaches_series():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.1, h=1e-2)
    residuals = geo.wong_residual(SPHERE, geo.project(trajectory))
    tagged = geo.with_wong(trajectory, residuals)
    buffer = io.StringIO()
    geo.write_csv(tagged, buffer)
    rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
    assert rows[0][9] == "" and rows[-1][9] == ""
    assert all(row[9] != "" for row in rows[1:-1])


def test_json_round_trip():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.01, h=1e-3)
    data = json.loads(json.dumps(geo.to_json_dict(trajectory)))
    assert data["columns"][0] == "t"
    assert data["kind"] == "lift"
    assert len(data["rows"]) == len(trajectory.t)
    assert data["rows"][0][9] is None


def _serialised(trajectory):
    """``write_csv``'s text and the CLI's ``--format json`` text, or for each
    the exception's type and message."""
    def csv():
        buffer = io.StringIO()
        geo.write_csv(trajectory, buffer)
        return buffer.getvalue()

    def as_json():
        return json.dumps(geo.to_json_dict(trajectory), indent=2)

    return _outcome(csv), _outcome(as_json)


def _serialised_reference(trajectory):
    def csv():
        return ",".join(geo.CSV_COLUMNS) + "\n" + "".join(csv_lines_reference(trajectory))

    def as_json():
        data = {"kind": trajectory.kind, "surface": trajectory.surface.name,
                "method": trajectory.method, "step": trajectory.step,
                "columns": list(geo.CSV_COLUMNS), "rows": json_rows_reference(trajectory)}
        return json.dumps(data, indent=2)

    return _outcome(csv), _outcome(as_json)


_LIFT_COLUMNS = {0: "t", 7: "speed", 8: "q3_over_k", 9: "wong"}


def _with_cell(trajectory, row, column, value):
    """A copy with the value behind one CSV cell replaced."""
    if column in _LIFT_COLUMNS:
        values = list(getattr(trajectory, _LIFT_COLUMNS[column]))
        values[row] = value
        return replace(trajectory, **{_LIFT_COLUMNS[column]: values})
    index = column - 1 if trajectory.kind == "lift" else {1: 0, 2: 1, 4: 2, 5: 3}[column]
    states = list(trajectory.states)
    states[row] = tuple(value if i == index else v for i, v in enumerate(states[row]))
    return replace(trajectory, states=states)


def _wong(trajectory, surface, C=None):
    base = geo.project(trajectory) if trajectory.kind == "lift" else trajectory
    return geo.with_wong(trajectory, geo.wong_residual(surface, base, C))


def _serialisation_cases():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.1, 0.8)
    lift = geo.integrate_lift(SPHERE, start, t_max=0.1, h=1e-2)
    base = geo.integrate_base(HALFPLANE, geo.BaseState(0.0, 1.0, 0.6, 0.8), t_max=0.1, h=1e-2)
    rk45 = geo.integrate_lift(BUMP, replace(start, x2=-0.1), t_max=1.0, h=0.1, method="rk45")
    partial = geo.integrate_lift(HALFPLANE, replace(start, x2=1.5), t_max=0.0255, h=1e-2)
    integer = geo.integrate_lift(SPHERE, geo.LiftState(0, 0, 0, 0.6, 0.1, 0.8), t_max=0.05, h=1e-2)
    special = _wong(lift, SPHERE)  # each value in each column, end rows included
    for column in range(10):
        for k, value in enumerate((-0.0, 5e-324, 1e300, -1e300)):
            special = _with_cell(special, (3 * k + column) % len(lift.t), column, value)
    return {
        "lift": lift, "lift-wong": _wong(lift, SPHERE), "base": base,
        "base-wong": _wong(base, HALFPLANE, 0.0), "rk45-wong": _wong(rk45, BUMP),
        "partial-last-step-wong": _wong(partial, HALFPLANE), "integer-start": integer,
        # Every row is full, so the integer row 0 takes the one-format path too.
        "integer-start-full": geo.with_wong(integer, [0.5] * len(integer.t)),
        "special-values": special,
    }


def test_csv_and_json_keep_the_bytes_of_the_cell_by_cell_writer():
    cases = _serialisation_cases()
    assert len(cases["rk45-wong"].t) > 3 and cases["partial-last-step-wong"].t[-1] == 0.0255
    for name, trajectory in cases.items():
        got = _serialised(trajectory)
        assert got[0][0] == got[1][0] == "returned", name
        assert got == _serialised_reference(trajectory), name
    integer_json = _serialised(cases["integer-start"])[1][1]
    assert '"rows": [\n    [\n      0.0,\n      0.0,\n      0.0,' in integer_json


def test_csv_and_json_stop_at_the_first_non_finite_value_as_the_cell_by_cell_writer():
    cases = _serialisation_cases()
    for name in ("lift-wong", "base-wong", "integer-start"):
        trajectory = cases[name]
        for column in range(10):
            if trajectory.kind == "base" and column in (3, 6):
                continue  # no lifted state behind the cell
            for row, value in ((0, math.nan), (2, math.inf), (len(trajectory.t) - 1, -math.inf)):
                # The last row's speed is not finite either; the error names the first.
                broken = _with_cell(_with_cell(trajectory, -1, 7, math.inf), row, column, value)
                got = _serialised(broken)
                assert got[0][0] is DomainError and got[1] == got[0], (name, column, row)
                assert got == _serialised_reference(broken), (name, column, row)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_integrate_rejects_a_step_count_that_is_not_finite(method):
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(ValueError, match="t_max / step must be finite"):
        geo.integrate_lift(SPHERE, start, t_max=1e308, h=1e-308, method=method)
    with pytest.raises(ValueError, match="t_max / step must be finite"):
        geo.integrate_base(SPHERE, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=1e308, h=1e-308)

