"""Geodesic-flow tests: right-hand sides, conservation, projection, Wong."""

import io
import math
import random
import struct
from collections import Counter
from dataclasses import replace

import pytest

from wagnerlift import expr as expr_module
from wagnerlift import geodesic as geo
from wagnerlift.expr import COMPILE_AFTER, Tape
from wagnerlift.jets import DomainError
from wagnerlift.lift import KAPPA_MIN, SingularCurvature, lifted_connection
from wagnerlift.surface import (
    ChartDomainError,
    ConformalSurface,
    catalog,
    frame_fields_from,
    sample_points,
)
from wagnerlift.verify import coupling_sign_vs_reference

SPHERE = catalog("sphere")
HALFPLANE = catalog("halfplane")
BUMP = catalog("bump")

DISK = ConformalSurface.from_config(
    {"name": "disk", "lambda": "x1^2 + x2^2", "guard": "1 - x1^2 - x2^2 > 0"}
)


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
    assert trajectory.times == times


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
    times = trajectory.times
    assert all(b > a for a, b in zip(times, times[1:]))


def test_horizontality_persists_exactly():
    start = geo.LiftState(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=1.0, h=1e-3)
    assert max(abs(s.state.Q3) for s in trajectory.samples) == 0.0
    assert max(abs(s.q3_over_k) for s in trajectory.samples) == 0.0
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
    for sample in trajectory.samples[:: len(trajectory.samples) // 7]:
        assert sample.state.x1 == 0.0
        assert sample.state.x2 == pytest.approx(math.exp(sample.t), rel=1e-9)
        assert sample.state.P2 == pytest.approx(1.0, abs=1e-12)


def test_zero_velocity_stays_put():
    trajectory = geo.integrate_base(BUMP, geo.BaseState(0.4, -0.2, 0.0, 0.0), t_max=1.0, h=1e-2)
    last = trajectory.samples[-1].state
    assert (last.x1, last.x2) == (0.4, -0.2)


def test_sphere_great_circle_closes_with_period_two_pi():
    # start away from the chart origin with a transverse direction, so the
    # circle's chart image stays bounded (radial starts pass through the
    # deleted point of the stereographic chart)
    h = 2.0 * math.pi / 6000.0
    trajectory = geo.integrate_base(
        SPHERE, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=2.0 * math.pi, h=h
    )
    last = trajectory.samples[-1]
    assert last.t == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert last.state.x1 == pytest.approx(0.5, abs=1e-5)
    assert last.state.x2 == pytest.approx(0.0, abs=1e-5)
    assert last.state.P1 == pytest.approx(0.0, abs=1e-5)
    assert last.state.P2 == pytest.approx(1.0, abs=1e-5)


def test_rk45_matches_rk4_and_records_actual_steps():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 0.8, 0.6)
    adaptive = geo.integrate_lift(SPHERE, start, t_max=2.0, h=0.1, method="rk45")
    fixed = geo.integrate_lift(SPHERE, start, t_max=2.0, h=1e-3, method="rk4")
    a, b = adaptive.samples[-1].state, fixed.samples[-1].state
    assert a.x1 == pytest.approx(b.x1, abs=1e-7)
    assert a.x2 == pytest.approx(b.x2, abs=1e-7)
    assert adaptive.samples[-1].t == pytest.approx(2.0, abs=1e-12)
    steps = [q.t - p.t for p, q in zip(adaptive.samples, adaptive.samples[1:])]
    assert len(set(round(s, 15) for s in steps)) > 1  # genuinely adaptive
    assert adaptive.conservation_drift() <= 1e-8


def test_rk45_step_underflow_raises():
    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(geo.StepFailure):
        geo.integrate_lift(SPHERE, start, t_max=1.0, h=0.1, method="rk45", atol=0.0)


def test_guard_violation_mid_flight_reports_last_valid_time():
    with pytest.raises(ChartDomainError) as err:
        geo.integrate_base(DISK, geo.BaseState(0.5, 0.0, 1.0, 0.0), t_max=3.0, h=1e-2)
    assert 0.0 < err.value.last_valid_t < 3.0
    assert err.value.point[0] > 0.9


def test_singular_curvature_mid_flight_reports_last_valid_time():
    # raise the threshold so the K-window is wider than one step
    start = geo.LiftState(0.0, 1.0, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(SingularCurvature) as err:
        geo.integrate_lift(HALFPLANE, start, t_max=1.0, h=1e-2, kappa_min=2.0)
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
    # the whole order-3 jet NaN; the run stops before any state goes NaN.
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
    # Stage 1 at each accepted sample also yields its monitor and Wong
    # fields; the final sample is evaluated once, at order 2, for its monitor.
    assert runs == [3] * (4 * steps) + [2]


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


def test_base_run_evaluates_no_final_sample(monkeypatch):
    surface, runs = _count_lambda_runs(monkeypatch, "sphere")
    geo.integrate_base(surface, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=0.1, h=1e-2)
    assert len(runs) == 4 * 10


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


def _stage_one_route(surface, y, kappa_min):
    """Stage 1 of an accepted sample on the ``lambda_jet`` route."""
    x = (y[0], y[1])
    l = surface.lambda_jet(x, 3).coeffs
    fields = geo._checked(frame_fields_from(l, x), x, kappa_min)
    return geo._lift_derivative(fields, *y[3:]), (l, fields)


def _assert_stage_matches(surface, states, kappa_min=KAPPA_MIN):
    """The fused stage against ``lift_rhs`` (stages 2-4) and the stage-1 route."""
    stage = geo._lift_stage(surface, kappa_min)
    for y in states:
        expected = _outcome(lambda: geo.lift_rhs(surface, geo.LiftState(*y), kappa_min))
        assert _outcome(lambda: stage(y)) == expected, y
        kept = []
        first = _outcome(lambda: (stage(y, kept.append), *kept))
        assert first == _outcome(lambda: _stage_one_route(surface, y, kappa_min)), y


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
    # On the happy path a compiled stage never reaches the jet route.
    run = Tape._run

    def refuse(tape, *args):
        assert tape not in (surface._lam_tape, surface._guard_tape), "a compiled point reran"
        return run(tape, *args)

    states = _states(surface, 5, "again")
    monkeypatch.setattr(Tape, "_run", refuse)
    stage = geo._lift_stage(surface, KAPPA_MIN)
    for y in states:
        stage(y)
        stage(y, [].append)


@pytest.mark.parametrize(
    "lam, guard, point, kappa_min",
    [
        ("x1^2 + x2^2", "1 - x1^2 - x2^2 > 0", (0.8, 0.8), KAPPA_MIN),  # guard false
        ("x1^2 + x2^2", "all", (0.1, 0.2), 10.0),  # |K| < kappa_min
        ("x1^2 - x2^2", "all", (0.1, 0.2), KAPPA_MIN),  # Lap(lambda) = 0
        ("log(x1)", "x1 > 0", (1e-103, 0.5), KAPPA_MIN),  # a NaN order-3 jet
        ("-1000*x1^2", "all", (1.0, 0.0), KAPPA_MIN),  # exp overflows
    ],
)
def test_fused_stage_reruns_each_fallback_on_the_jet_route(lam, guard, point, kappa_min):
    surface = ConformalSurface.from_config({"name": "case", "lambda": lam, "guard": guard})
    warm = [(0.1 + 0.01 * k, 0.3, 0.0, 0.6, 0.1, 0.8) for k in range(COMPILE_AFTER + 5)]
    _assert_stage_matches(surface, warm, kappa_min)
    assert surface._lam_tape.compiled[3] is not None
    _assert_stage_matches(surface, [(*point, 0.0, 0.6, 0.1, 0.8)], kappa_min)
    with pytest.raises((SingularCurvature, ChartDomainError, DomainError)):
        geo._lift_stage(surface, kappa_min)((*point, 0.0, 0.6, 0.1, 0.8))


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
    assert len(trajectory.samples) == 1001
    # 4000 order-3 runs, of which the first COMPILE_AFTER run on jets, and
    # the final sample's single order-2 run.
    assert Counter(runs) == {3: COMPILE_AFTER, 2: 1}


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
        max(
            abs(p.state.x1 - q.state.x1),
            abs(p.state.x2 - q.state.x2),
            abs(p.state.P1 - q.state.P1),
            abs(p.state.P2 - q.state.P2),
        )
        for p, q in zip(projected.samples, base.samples)
    )
    assert sup <= 1e-6


def test_fiber_geodesic_projects_to_constant_point():
    start = geo.LiftState(0.2, 1.5, 0.0, 0.0, 0.0, 0.9)
    projected = geo.project(geo.integrate_lift(HALFPLANE, start, t_max=2.0, h=1e-2))
    for sample in projected.samples:
        assert (sample.state.x1, sample.state.x2) == (0.2, 1.5)
        assert sample.state.P1 == sample.state.P2 == 0.0


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
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=0.5, h=1e-2))
    assert projected.samples[0].q3_over_k == pytest.approx(0.5, abs=1e-12)


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
    assert projected.samples[0].q3_over_k == pytest.approx(0.5, abs=1e-12)
    residuals = geo.wong_residual(SPHERE, projected)
    assert max(r for r in residuals if r is not None) <= 1e-5


def test_wong_residual_bump_full_equation():
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=6.0, h=1e-3))
    residuals = geo.wong_residual(BUMP, projected)
    assert max(r for r in residuals if r is not None) <= 1e-4


def test_wong_opposite_rotation_sign_is_rejected_by_the_data():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=2.0, h=1e-3))
    wrong = geo.wong_residual(SPHERE, projected, rotation_sign=+1.0)
    # flipping the magnetic orientation leaves 2|C K| |P| of residual
    assert max(r for r in wrong if r is not None) > 0.5


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_wong_residual_from_carried_fields_matches_fresh_evaluation(method):
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=0.5, h=1e-2, method=method))
    assert all(fields is not None for fields in projected.fields[:-1])
    bare = replace(projected, fields=[None] * len(projected.t))
    assert bare == projected  # the carried fields are outside ==
    assert geo.wong_residual(BUMP, projected) == geo.wong_residual(BUMP, bare)
    # A surface of another name never uses them.
    assert geo.wong_residual(SPHERE, projected) == geo.wong_residual(SPHERE, bare)


def test_wong_residual_applies_its_own_kappa_min():
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(BUMP, start, t_max=0.1, h=1e-2))
    with pytest.raises(SingularCurvature):
        geo.wong_residual(BUMP, projected, kappa_min=10.0)


def test_wong_residual_needs_three_samples():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    projected = geo.project(geo.integrate_lift(SPHERE, start, t_max=0.01, h=0.01))
    assert len(projected.samples) == 2
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
    assert len(lines) == len(trajectory.samples) + 1
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
    assert abs(trajectory.samples[-1].state.phi) > 2.0 * math.pi  # unreduced inside
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
    import json

    start = geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.01, h=1e-3)
    data = json.loads(json.dumps(geo.to_json_dict(trajectory)))
    assert data["columns"][0] == "t"
    assert data["kind"] == "lift"
    assert len(data["rows"]) == len(trajectory.samples)
    assert data["rows"][0][9] is None


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_integrate_rejects_a_step_count_that_is_not_finite(method):
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.8)
    with pytest.raises(ValueError, match="t_max / step must be finite"):
        geo.integrate_lift(SPHERE, start, t_max=1e308, h=1e-308, method=method)
    with pytest.raises(ValueError, match="t_max / step must be finite"):
        geo.integrate_base(SPHERE, geo.BaseState(0.5, 0.0, 0.0, 1.0), t_max=1e308, h=1e-308)


def test_samples_materialise_the_columns():
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)
    trajectory = geo.integrate_lift(SPHERE, start, t_max=0.05, h=1e-2)
    samples = trajectory.samples
    assert [s.t for s in samples] == trajectory.t
    assert [s.state for s in samples] == [geo.LiftState(*y) for y in trajectory.states]
    assert [s.speed for s in samples] == [s.state.speed for s in samples]
    assert [s.q3_over_k for s in samples] == trajectory.q3_over_k
    assert [s.fields for s in samples] == trajectory.fields
    with pytest.raises(AttributeError):
        trajectory.samples = samples  # read-only
    projected = geo.project(trajectory)
    assert projected.t is trajectory.t and projected.fields is trajectory.fields
    assert [s.state for s in projected.samples] == [
        geo.BaseState(s.state.x1, s.state.x2, s.state.Q1, s.state.Q2) for s in samples
    ]
    assert [s.speed for s in projected.samples] == [s.state.speed for s in projected.samples]
