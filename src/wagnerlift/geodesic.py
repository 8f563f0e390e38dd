"""Geodesics of the lifted metric on the frame bundle and of the base metric.

Writing u_i = e_i(K)/K, the lifted geodesic system in frame components is

    dx1/dt = e^(-lambda) Q1          dx2/dt = e^(-lambda) Q2
    dphi/dt = -c112 Q1 - c212 Q2 + K Q3
    dQ1/dt = -c112 Q1 Q2 - c212 Q2^2 + Q2 Q3 - u1 Q3^2
    dQ2/dt =  c112 Q1^2 + c212 Q1 Q2 - Q1 Q3 - u2 Q3^2
    dQ3/dt =  u1 Q1 Q3 + u2 Q2 Q3

obtained by contracting the derived connection coefficients (the signs of the
Q^a Q3 couplings follow from chat^3_12 = -1 and are re-checked against the
connection table at test time; ``verify.coupling_sign_vs_reference`` records
how they compare with the +Q2Q3/-Q1Q3-free variant).  Along any solution
Q3/K(gamma(t)) is constant, horizontality (Q3 = 0) persists exactly, and the
projected curve satisfies

    nabla_{gamma'} gamma' = s * C K J(gamma') - C^2 K grad K,
    J(Q1, Q2) = (-Q2, Q1),   s = WONG_ROTATION_SIGN = -1,

with C the conserved ratio.  ``wong_residual`` evaluates that equation from
sampled data only: centered differences for the acceleration and the generic
Koszul coefficients for the connection, independent of the integrator's
right-hand side.

Lambda is evaluated once per RK stage (``_lift_stage``).  At every sample,
the final one too, stage 1 (which every rk45 retry reuses) also gives the
frame fields kept for ``wong_residual`` and the Q3/K monitor's K = -e^(-2
lambda) Lap(lambda), which keeps the bits of an order-2 evaluation because
the order-2 coefficients are a prefix of the order-3 ones.  Each stage runs
on a compiled branch and reruns on the jets where that branch cannot vouch for
its point (lambda not compiled, a guard that fails, a fallback, fields
``_checked`` rejects), so a fresh surface starts on the jets; an rk4 sample
is the four stages and ``_rk4_step``'s sums written out.  The base flow
reads e^(-lambda), c112 and c212 from the order-3 ``frame_fields``.  The
Wong and base contractions write the dim-2 Koszul kernel out, and a CSV row
with no empty column is one ``%``; no bit changes.  Frame fields that are
not finite (a third derivative that overflowed leaves the third partials
inf or NaN) stop the run with a ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .expr import _FALLBACK
from .jets import DomainError
from .surface import (
    KAPPA_MIN,
    ChartDomainError,
    ConformalSurface,
    Point,
    SingularCurvature,
    frame_fields,
    frame_fields_from,
    laplacian_curvature_from,
    require_finite,
)

WONG_ROTATION_SIGN = -1.0

_RK4_WHOLE_STEPS_TOL = 1e-9
_RK45_ATOL = 1e-9
_RK45_MIN_STEP = 1e-12
_RK45_SAFETY = 0.9
# A run keeps about 1.7 KB per sample, so 10^6 steps take about 1.7 GB: the
# CLI bounds an rk4 run's t_max / h by this, and rk45 stops past it.
MAX_STEPS = 10**6


class StepFailure(RuntimeError):
    """The adaptive integrator's step size underflowed, or it needed more than
    ``MAX_STEPS`` steps."""


@dataclass(frozen=True)
class LiftState:
    """A point of the bundle with tangent components in the lifted frame."""

    x1: float
    x2: float
    phi: float
    Q1: float
    Q2: float
    Q3: float


@dataclass(frozen=True)
class BaseState:
    """A point of the base with tangent components in the base frame."""

    x1: float
    x2: float
    P1: float
    P2: float


@dataclass
class Trajectory:
    """Samples as parallel columns.  ``states`` holds the integrator's tuples,
    (x1, x2, phi, Q1, Q2, Q3) or (x1, x2, P1, P2) by ``kind``.  The Q3/K
    monitor and the Wong residual are None where absent; ``fields`` holds
    ``frame_fields`` at every lifted sample and at their projections."""

    kind: str  # "lift" or "base"
    surface: ConformalSurface
    method: str
    step: float
    t: list[float] = field(default_factory=list)
    states: list[tuple] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    q3_over_k: list[float | None] = field(default_factory=list)
    wong: list[float | None] = field(default_factory=list)
    fields: list[tuple | None] = field(default_factory=list, compare=False, repr=False)

    def conservation_drift(self) -> float:
        """max_t |Q3/K(t) - Q3/K(0)| over the recorded samples."""
        values = [v for v in self.q3_over_k if v is not None]
        if not values:
            raise ValueError("trajectory carries no Q3/K monitor")
        return max(abs(v - values[0]) for v in values)

    def speed_drift(self) -> float:
        return max(abs(v - self.speed[0]) for v in self.speed)


# -- right-hand sides ---------------------------------------------------------------


def _checked(fields: tuple, x: Point) -> tuple:
    em, c1, c2, K, u1, u2 = fields
    if abs(K) < KAPPA_MIN or u1 is None:
        raise SingularCurvature(x, K)
    # v - v is 0.0 for every finite v and NaN for an infinite or NaN one.
    if (em - em) + (c1 - c1) + (c2 - c2) + (K - K) + (u1 - u1) + (u2 - u2) != 0.0:
        raise DomainError(f"non-finite frame fields at point {x!r}")
    return fields


def lift_rhs(
    surface: ConformalSurface, s: LiftState
) -> tuple[float, float, float, float, float, float]:
    """Time derivative of a lifted state under the geodesic flow of g-hat."""
    x = (s.x1, s.x2)
    fields = _checked(frame_fields(surface, x), x)
    return _lift_derivative(fields, s.Q1, s.Q2, s.Q3)


def _lift_derivative(fields: tuple, Q1: float, Q2: float, Q3: float) -> tuple:
    em, c1, c2, K, u1, u2 = fields
    return (
        em * Q1,
        em * Q2,
        -Q1 * c1 - Q2 * c2 + Q3 * K,
        -c1 * Q1 * Q2 - c2 * Q2 * Q2 + Q2 * Q3 - u1 * Q3 * Q3,
        c1 * Q1 * Q1 + c2 * Q1 * Q2 - Q1 * Q3 - u2 * Q3 * Q3,
        u1 * Q1 * Q3 + u2 * Q2 * Q3,
    )


def _lift_stage(surface: ConformalSurface) -> Callable:
    """``lift_rhs`` as ``stage(x1, x2, Q1, Q2, Q3, keep=None)``; ``keep``, at
    stage 1 of an accepted sample, receives ``(K, fields)``, K with the bits of
    ``laplacian_curvature_from``.  The compiled branch runs the guard and the
    order-3 lambda with ``Jet.coeffs``, ``frame_fields_from``, ``_checked`` and
    ``_lift_derivative`` inline in their order, the finiteness test as one sum
    (whose overflow only sends the point to the jets).  Where it raises a
    ``_FALLBACK`` error, the point reruns on the ``lambda_jet`` route, which
    gives the same bits or the same exception."""
    lam = surface._lam_tape.compiled
    guard = surface._guard_tape and surface._guard_tape.compiled

    def stage(x1: float, x2: float, Q1: float, Q2: float, Q3: float, keep=None) -> tuple:
        try:
            u, v = float(x1), float(x2)  # as eval_jet passes them
            if not (lam[3] and (not guard or guard[0] and guard[0](u, v)[0] > 0.0)):
                raise FloatingPointError
            t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = lam[3](u, v)
            lap, em = 2.0 * t3 + 2.0 * t5, math.exp(-t0)
            c1, c2, K = em * t2, -em * t1, -em * em * lap
            if lap == 0.0 or abs(K) < KAPPA_MIN:
                raise FloatingPointError
            u1 = em * ((6.0 * t6 + 2.0 * t8) / lap - 2.0 * t1)
            u2 = em * ((2.0 * t7 + 6.0 * t9) / lap - 2.0 * t2)
            if (c1 + c2 + K + u1 + u2) * 0.0 != 0.0:  # em is finite: exp raises, not inf
                raise FloatingPointError
            if keep is not None:  # l20 + l02 is lap (a scale of 2.0 is exact)
                keep((-math.exp(-2.0 * t0) * lap, (em, c1, c2, K, u1, u2)))
            return (em * Q1, em * Q2, -Q1 * c1 - Q2 * c2 + Q3 * K,
                    -c1 * Q1 * Q2 - c2 * Q2 * Q2 + Q2 * Q3 - u1 * Q3 * Q3,
                    c1 * Q1 * Q1 + c2 * Q1 * Q2 - Q1 * Q3 - u2 * Q3 * Q3, u1 * Q1 * Q3 + u2 * Q2 * Q3)
        except _FALLBACK:
            pass
        if keep is None:
            return lift_rhs(surface, LiftState(x1, x2, 0.0, Q1, Q2, Q3))  # phi is not read
        x = (x1, x2)
        l = surface.lambda_jet(x, 3).coeffs
        fields = _checked(frame_fields_from(l, x), x)
        keep((laplacian_curvature_from(l, x), fields))
        return _lift_derivative(fields, Q1, Q2, Q3)

    return stage


def _lift_sample(stage: Callable, keep: Callable, y: tuple, h: float) -> tuple:
    """An rk4 sample of length ``h`` on ``stage``: stage 1 with ``keep``, k2-k4
    and ``_rk4_step``'s terms unrolled in its order, so the bits match it."""
    y0, y1, y2, y3, y4, y5 = y
    h2, h3, h6 = h / 2.0, h / 3.0, h / 6.0
    a0, a1, a2, a3, a4, a5 = stage(y0, y1, y3, y4, y5, keep)
    b0, b1, b2, b3, b4, b5 = stage(y0 + h2*a0, y1 + h2*a1, y3 + h2*a3, y4 + h2*a4, y5 + h2*a5)
    c0, c1, c2, c3, c4, c5 = stage(y0 + h2*b0, y1 + h2*b1, y3 + h2*b3, y4 + h2*b4, y5 + h2*b5)
    d0, d1, d2, d3, d4, d5 = stage(y0 + h*c0, y1 + h*c1, y3 + h*c3, y4 + h*c4, y5 + h*c5)
    return (y0 + h6*a0 + h3*b0 + h3*c0 + h6*d0, y1 + h6*a1 + h3*b1 + h3*c1 + h6*d1,
            y2 + h6*a2 + h3*b2 + h3*c2 + h6*d2, y3 + h6*a3 + h3*b3 + h3*c3 + h6*d3,
            y4 + h6*a4 + h3*b4 + h3*c4 + h6*d4, y5 + h6*a5 + h3*b5 + h3*c5 + h6*d5)


def base_rhs(
    surface: ConformalSurface, b: BaseState
) -> tuple[float, float, float, float]:
    """Base geodesic flow on the order-3 ``frame_fields``, via the generic
    Koszul coefficients (independent of the closed-form lifted system)."""
    x = (b.x1, b.x2)
    em, c1, c2 = frame_fields(surface, x)[:3]
    require_finite((em, c1, c2), x, "frame fields")
    dP1, dP2 = _christoffel_contraction(c1, c2, b.P1, b.P2)
    return (em * b.P1, em * b.P2, -dP1, -dP2)


def _christoffel_contraction(c1: float, c2: float, P1: float, P2: float) -> tuple:
    """Gamma^k_ij P^i P^j (k = 1, 2) from the generic Koszul coefficients of the
    base frame with c112 = c1, c212 = c2: the dim-2 Koszul kernel's eight
    entries (Gamma^k_kk = 0.0 among them) and its (i, j) sums written out."""
    g001, g010, g011 = 0.5 * (c1 + 0.0 + c1), 0.5 * (-c1 + c1 + 0.0), 0.5 * (0.0 + c2 + c2)
    g100, g101, g110 = 0.5 * (0.0 + -c1 + -c1), 0.5 * (c2 + -c2 + 0.0), 0.5 * (-c2 + 0.0 + -c2)
    return (0.0 * P1 * P1 + g001 * P1 * P2 + g010 * P2 * P1 + g011 * P2 * P2,
            g100 * P1 * P1 + g101 * P1 * P2 + g110 * P2 * P1 + 0.0 * P2 * P2)


# -- integrators ---------------------------------------------------------------


def _add_scaled(y: tuple, *terms: tuple[float, tuple]) -> tuple:
    out = list(y)
    for factor, vec in terms:
        for i, v in enumerate(vec):
            out[i] += factor * v
    return tuple(out)


def _rk4_step(f: Callable, y: tuple, h: float, k1: tuple) -> tuple:
    # Each stage adds its terms in _add_scaled's order, so the bits match it.
    h2, h3, h6 = h / 2.0, h / 3.0, h / 6.0
    k2 = f(tuple([yi + h2 * a for yi, a in zip(y, k1)]))
    k3 = f(tuple([yi + h2 * b for yi, b in zip(y, k2)]))
    k4 = f(tuple([yi + h * c for yi, c in zip(y, k3)]))
    stages = zip(y, k1, k2, k3, k4)
    return tuple([yi + h6 * a + h3 * b + h3 * c + h6 * d for yi, a, b, c, d in stages])


# Dormand-Prince 5(4) tableau.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _integrate(
    f: Callable, y0: tuple, t_max: float, h: float, method: str, first: Callable,
    sample: Callable | None = None,
) -> tuple[list[float], list[tuple]]:
    """Times and states of the samples from (0, y0) to t_max.

    ``first(y)`` gives ``f(y)`` at each accepted rk45 sample and at the final
    sample, once (retries reuse it).  An rk4 step of length h, the partial last
    step too, is ``sample(y, h)``, by default ``_rk4_step(f, y, h, first(y))``.
    Evaluation and step failures carry the last accepted time as ``last_valid_t``,
    a failure at the final sample the time of the sample before it.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if not math.isfinite(t_max / h):
        raise ValueError("t_max / step must be finite")
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown integration method {method!r}")
    samples: list[tuple] = []
    t, y = 0.0, y0
    try:
        if method == "rk4":
            # When t_max is a whole number of steps up to rounding in t_max/h,
            # the run keeps exactly those steps and the times n*h; otherwise it
            # ends with one partial step that lands on t_max.
            ratio = t_max / h
            steps = round(ratio)
            exact = steps >= 1 and abs(ratio - steps) <= _RK4_WHOLE_STEPS_TOL
            if not exact:
                steps = math.floor(ratio)
            sample = sample or (lambda y, h: _rk4_step(f, y, h, first(y)))
            for n in range(1, steps + 1):
                samples.append((t, y))
                y, t = sample(y, h), n * h
            if not exact:
                samples.append((t, y))
                y, t = sample(y, t_max - t), t_max
        else:
            # The floor is at most the first trial step min(h, t_max), so that
            # step always runs: a t_max below the end slack is honoured, and a
            # t_max or an h below 1e-12 is not an underflow.
            k1, atol = None, _RK45_ATOL
            h_try = min(h, t_max)
            while t == 0.0 or t < t_max - 1e-14:
                if h_try < min(_RK45_MIN_STEP, t_max, h):
                    raise StepFailure(f"adaptive step underflow at t={t!r}")
                if k1 is None:
                    if len(samples) == MAX_STEPS:
                        raise StepFailure(f"more than {MAX_STEPS} adaptive steps at t={t!r}")
                    k1 = first(y)
                    samples.append((t, y))
                h_step = min(h_try, t_max - t)
                k = [k1]
                for row in _DP_A[1:]:
                    k.append(f(_add_scaled(y, *[(h_step * a, ki) for a, ki in zip(row, k)])))
                y5 = _add_scaled(y, *[(h_step * b, ki) for b, ki in zip(_DP_B5, k)])
                y4 = _add_scaled(y, *[(h_step * b, ki) for b, ki in zip(_DP_B4, k)])
                error = max(abs(a - b) for a, b in zip(y5, y4))
                if error <= atol:
                    t += h_step
                    y, k1 = y5, None
                    growth = 5.0 if error == 0.0 else min(5.0, _RK45_SAFETY * (atol / error) ** 0.2)
                    h_try = h_step * max(growth, 0.2)
                else:
                    h_try = h_step * max(0.2, _RK45_SAFETY * (atol / error) ** 0.2)
        samples.append((t, y))
        t = samples[-2][0]  # a failure at the final sample carries the time before it
        first(y)
    except (SingularCurvature, ChartDomainError, DomainError, StepFailure) as failure:
        failure.last_valid_t = t
        raise
    return tuple(map(list, zip(*samples)))  # times, states


def integrate_lift(
    surface: ConformalSurface, s0: LiftState, t_max: float, h: float, method: str = "rk4"
) -> Trajectory:
    """Integrate the lifted geodesic flow from ``s0`` over [0, t_max].

    Every sample, the last included, carries the speed, the conserved-ratio
    monitor Q3/K and its frame fields, all from its stage 1.  Evaluation
    failures along the path (chart guard, |K| below ``KAPPA_MIN``) abort the
    run with the last valid time attached to the exception.
    """
    kept: list[tuple] = []  # stage 1's (K, fields) per sample
    stage, keep = _lift_stage(surface), kept.append
    y0 = (s0.x1, s0.x2, s0.phi, s0.Q1, s0.Q2, s0.Q3)
    times, states = _integrate(lambda y: stage(y[0], y[1], *y[3:]), y0, t_max, h, method,
                               lambda y: stage(y[0], y[1], *y[3:], keep),
                               partial(_lift_sample, stage, keep))
    speed, monitor = [], []
    for y, (K, _) in zip(states, kept):
        try:
            speed.append(math.sqrt(y[3] ** 2 + y[4] ** 2 + y[5] ** 2))
        except OverflowError:
            speed.append(math.inf)
        monitor.append(y[5] / K)
    fields = [info[1] for info in kept]
    wong = [None] * len(states)
    return Trajectory("lift", surface, method, h, times, states, speed, monitor, wong, fields)


def integrate_base(
    surface: ConformalSurface, b0: BaseState, t_max: float, h: float, method: str = "rk4"
) -> Trajectory:
    """Integrate the base geodesic flow from ``b0`` over [0, t_max]."""

    def f(y: tuple) -> tuple:
        return base_rhs(surface, BaseState(*y))

    y0 = (b0.x1, b0.x2, b0.P1, b0.P2)
    times, states = _integrate(f, y0, t_max, h, method, f)
    speed = [math.hypot(y[2], y[3]) for y in states]
    n = len(states)
    return Trajectory(
        "base", surface, method, h, times, states, speed, [None] * n, [None] * n, [None] * n
    )


# -- projection and the Wong equation ------------------------------------------------


def project(trajectory: Trajectory) -> Trajectory:
    """Project a lifted trajectory to the base: drop (phi, Q3), keep P^a = Q^a.

    The conserved-ratio monitor is carried along; it is the constant C of the
    projected equation of motion.  So are the times and the frame fields,
    whose lists the projection shares.
    """
    if trajectory.kind != "lift":
        raise ValueError("only lifted trajectories can be projected")
    states = [(x1, x2, Q1, Q2) for x1, x2, _, Q1, Q2, _ in trajectory.states]
    speed = [math.hypot(P1, P2) for _, _, P1, P2 in states]
    return replace(trajectory, kind="base", states=states, speed=speed, wong=[None] * len(states))


def wong_residual(
    surface: ConformalSurface, trajectory: Trajectory, C: float | None = None
) -> list[float | None]:
    """Residual norm of the projected equation of motion, per sample.

    r = nabla_{gamma'} gamma' - s C K J(gamma') + C^2 K grad K, with the
    acceleration from centered differences of the sampled P^a and the
    connection from the generic Koszul coefficients.  Endpoint entries are
    None (no centered difference there).  C defaults to the trajectory's
    conserved Q3/K monitor.  Frame fields carried by the samples are used
    when the trajectory was integrated on an equal surface.
    """
    t, states = trajectory.t, trajectory.states
    if len(t) < 3:
        raise ValueError("trajectory too short for differencing (need >= 3 samples)")
    if C is None:
        C = trajectory.q3_over_k[0]
        if C is None:
            raise ValueError("no Q3/K monitor on the trajectory; pass C explicitly")

    carried = trajectory.fields if trajectory.surface == surface else [None] * len(t)
    residuals: list[float | None] = [None]
    sC, CC = WONG_ROTATION_SIGN * C, C * C  # the leading products of s C K and C^2 K
    samples = zip(zip(t, t[1:], t[2:]), states, states[1:], states[2:], carried[1:])
    for (t0, t1, t2), (_, _, P1a, P2a), (x1, x2, P1, P2), (_, _, P1b, P2b), fields in samples:
        x = (x1, x2)  # carried fields passed _checked when they were kept
        em, c1, c2, K, u1, u2 = fields or _checked(frame_fields(surface, x), x)
        g1, g2 = _christoffel_contraction(c1, c2, P1, P2)
        w0, w1, w2 = t1 - t2, 2 * t1 - t0 - t2, t1 - t0  # three-point, any spacing
        d0, d1, d2 = (t0 - t1) * (t0 - t2), (t1 - t0) * (t1 - t2), (t2 - t0) * (t2 - t1)
        dP1 = P1a * w0 / d0 + P1 * w1 / d1 + P1b * w2 / d2
        dP2 = P2a * w0 / d0 + P2 * w1 / d1 + P2b * w2 / d2
        # dP + Gamma PP - s C K J(P) + C^2 K grad K, with J(P) = (-P2, P1)
        sCK, CCK = sC * K, CC * K
        r1 = dP1 + g1 - sCK * -P2 + CCK * (u1 * K)
        r2 = dP2 + g2 - sCK * P1 + CCK * (u2 * K)
        residuals.append(math.hypot(r1, r2))
    return residuals + [None]


def with_wong(trajectory: Trajectory, residuals: list[float | None]) -> Trajectory:
    """Copy of the trajectory with the residual series as its ``wong`` column."""
    if len(residuals) != len(trajectory.t):
        raise ValueError("residual series does not match the trajectory")
    return replace(trajectory, wong=list(residuals))


# -- serialization ---------------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "x1",
    "x2",
    "phi",
    "Q1",
    "Q2",
    "Q3",
    "speed",
    "Q3_over_K",
    "wong_residual",
)


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


def _cells(trajectory: Trajectory):
    """The ten column values per sample, phi reduced modulo 2 pi and None
    where a column is empty."""
    lift = trajectory.kind == "lift"
    columns = (trajectory.t, trajectory.states, trajectory.speed, trajectory.q3_over_k)
    for t, y, speed, ratio, wong in zip(*columns, trajectory.wong):
        if lift:
            x1, x2, phi, Q1, Q2, Q3 = y
            phi = math.remainder(phi, 2.0 * math.pi) if phi - phi == 0.0 else phi
            yield t, x1, x2, phi, Q1, Q2, Q3, speed, ratio, wong
        else:  # (x1, x2, P1, P2)
            yield t, y[0], y[1], None, y[2], y[3], None, speed, ratio, wong


def _non_finite(cells: tuple) -> DomainError:
    return DomainError(f"non-finite value in the sample at t={cells[0]!r}, point {cells[1:3]!r}")


def write_csv(trajectory: Trajectory, stream) -> None:
    """Write the trajectory with the fixed column layout, 17 significant digits,
    in one write; a row with no empty column is one ``%`` on ``_ROW``.  A value
    that is not finite stops the output with a ``DomainError`` naming its
    sample, before anything is written."""
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for cells in _cells(trajectory):
        if cells[9] is None or cells[8] is None or cells[3] is None:
            line = ",".join(map(_fmt, cells)) + "\n"
        else:
            line = _ROW % cells
        if "n" in line:  # nan or inf
            raise _non_finite(cells)
        lines.append(line)
    stream.write("".join(lines))


def to_json_dict(trajectory: Trajectory) -> dict:
    rows = []
    for cells in _cells(trajectory):
        rows.append([None if v is None else float(v) for v in cells])
        if any(v - v != 0.0 for v in rows[-1] if v is not None):  # nan or inf
            raise _non_finite(cells)
    return {
        "kind": trajectory.kind,
        "surface": trajectory.surface.name,
        "method": trajectory.method,
        "step": trajectory.step,
        "columns": list(CSV_COLUMNS),
        "rows": rows,
    }
