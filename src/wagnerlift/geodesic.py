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

Lambda is evaluated once per RK stage (``_lift_stage``).  At an accepted
sample, stage 1 (which every rk45 retry reuses) also gives the frame fields
kept for ``wong_residual`` and the Q3/K monitor -e^(-2 lambda) Lap(lambda),
which keeps the bits of an order-2 evaluation because the order-2
coefficients are a prefix of the order-3 ones; the final sample, which has no
next step, is evaluated at order 2.  Frame fields that are not finite (a
third derivative that overflowed leaves the whole order-3 jet NaN) stop the
run with a ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import connection
from .expr import _FALLBACK
from .jets import DomainError
from .surface import (
    KAPPA_MIN,
    ChartDomainError,
    ConformalSurface,
    Point,
    SingularCurvature,
    conformal_laplacian_curvature,
    frame_fields,
    frame_fields_from,
    laplacian_curvature_from,
    require_finite,
    surface_jets,
)

WONG_ROTATION_SIGN = -1.0

_RK4_WHOLE_STEPS_TOL = 1e-9
_RK45_MIN_STEP = 1e-12
_RK45_SAFETY = 0.9


class StepFailure(RuntimeError):
    """The adaptive integrator's step size underflowed."""


@dataclass(frozen=True)
class LiftState:
    """A point of the bundle with tangent components in the lifted frame."""

    x1: float
    x2: float
    phi: float
    Q1: float
    Q2: float
    Q3: float

    @property
    def speed(self) -> float:
        return math.sqrt(self.Q1**2 + self.Q2**2 + self.Q3**2)


@dataclass(frozen=True)
class BaseState:
    """A point of the base with tangent components in the base frame."""

    x1: float
    x2: float
    P1: float
    P2: float

    @property
    def speed(self) -> float:
        return math.hypot(self.P1, self.P2)


@dataclass(frozen=True)
class Sample:
    # ``fields``: ``frame_fields`` at the point, on every lifted sample but
    # the last and on their projections.
    t: float
    state: LiftState | BaseState
    speed: float
    q3_over_k: float | None = None
    wong: float | None = None
    fields: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class Trajectory:
    """Samples as parallel columns.  ``states`` holds the integrator's tuples,
    (x1, x2, phi, Q1, Q2, Q3) or (x1, x2, P1, P2) by ``kind``; the other
    columns are ``Sample``'s fields, None where absent."""

    kind: str  # "lift" or "base"
    surface: str
    method: str
    step: float
    t: list[float] = field(default_factory=list)
    states: list[tuple] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    q3_over_k: list[float | None] = field(default_factory=list)
    wong: list[float | None] = field(default_factory=list)
    fields: list[tuple | None] = field(default_factory=list, compare=False, repr=False)

    @property
    def samples(self) -> list[Sample]:
        """The columns as ``Sample`` objects, built afresh on every access."""
        state = LiftState if self.kind == "lift" else BaseState
        rows = zip(self.t, self.states, self.speed, self.q3_over_k, self.wong, self.fields)
        return [Sample(t, state(*y), *rest) for t, y, *rest in rows]

    @property
    def times(self) -> list[float]:
        return self.t

    def conservation_drift(self) -> float:
        """max_t |Q3/K(t) - Q3/K(0)| over the recorded samples."""
        values = [v for v in self.q3_over_k if v is not None]
        if not values:
            raise ValueError("trajectory carries no Q3/K monitor")
        return max(abs(v - values[0]) for v in values)

    def speed_drift(self) -> float:
        return max(abs(v - self.speed[0]) for v in self.speed)


# -- right-hand sides ---------------------------------------------------------------


def _checked(fields: tuple, x: Point, kappa_min: float) -> tuple:
    em, c1, c2, K, u1, u2 = fields
    if abs(K) < kappa_min or u1 is None:
        raise SingularCurvature(x, K, kappa_min)
    # v - v is 0.0 for every finite v and NaN for an infinite or NaN one.
    if (em - em) + (c1 - c1) + (c2 - c2) + (K - K) + (u1 - u1) + (u2 - u2) != 0.0:
        raise DomainError(f"non-finite frame fields at point {x!r}")
    return fields


def lift_rhs(
    surface: ConformalSurface, s: LiftState, kappa_min: float = KAPPA_MIN
) -> tuple[float, float, float, float, float, float]:
    """Time derivative of a lifted state under the geodesic flow of g-hat."""
    x = (s.x1, s.x2)
    fields = _checked(frame_fields(surface, x), x, kappa_min)
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


def _lift_stage(surface: ConformalSurface, kappa_min: float) -> Callable:
    """``lift_rhs`` on raw state tuples as ``stage(y, keep=None)``; ``keep``, at
    stage 1 of an accepted sample, receives ``(partials, fields)``.  It calls
    the compiled guard (order 0) and lambda (order 3) functions directly; a
    point they do not vouch for (not compiled yet, guard <= 0.0, a fallback,
    fields ``_checked`` rejects) reruns on the ``lambda_jet`` route, which
    gives the same bits or the same exception."""
    lam = surface._lam_tape.compiled
    guard = surface._guard_tape and surface._guard_tape.compiled

    def stage(y: tuple, keep: Callable | None = None) -> tuple:
        x1, x2, _, Q1, Q2, Q3 = y
        x = (x1, x2)
        fields = None
        p1, p2 = float(x1), float(x2)  # as eval_jet passes them
        try:
            if lam[3] and (not guard or guard[0] and guard[0](p1, p2)[0] > 0.0):
                t0, t1, t2, t3, t4, t5, t6, t7, t8, t9 = lam[3](p1, p2)
                # Jet.coeffs's products at order 3 (a scale of 1.0 is exact).
                l = (t0, t1, t2, 2.0 * t3, t4, 2.0 * t5, 6.0 * t6, 2.0 * t7, 2.0 * t8, 6.0 * t9)
                fields = _checked(frame_fields_from(l, x), x, kappa_min)
        except (*_FALLBACK, SingularCurvature):
            pass  # fields stays None
        if fields is None:
            if keep is None:
                return lift_rhs(surface, LiftState(*y), kappa_min)
            l = surface.lambda_jet(x, 3).coeffs
            fields = _checked(frame_fields_from(l, x), x, kappa_min)
        if keep is not None:
            keep((l, fields))
        return _lift_derivative(fields, Q1, Q2, Q3)

    return stage


def base_rhs(
    surface: ConformalSurface, b: BaseState
) -> tuple[float, float, float, float]:
    """Base geodesic flow, via the generic Koszul coefficients (independent of
    the closed-form lifted system)."""
    x = (b.x1, b.x2)
    p = surface_jets(surface, x, 2)
    em, c1, c2 = p.em.value, p.c1.value, p.c2.value
    require_finite((em, c1, c2), x, "frame fields")
    c_values = (((0.0, c1), (-c1, 0.0)), ((0.0, c2), (-c2, 0.0)))
    gamma = connection.koszul_values(c_values, 2)
    P = (b.P1, b.P2)
    dP = [
        -sum(gamma[k][i][j] * P[i] * P[j] for i in range(2) for j in range(2))
        for k in range(2)
    ]
    return (em * b.P1, em * b.P2, dP[0], dP[1])


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
    f: Callable,
    y0: tuple,
    t_max: float,
    h: float,
    method: str,
    atol: float,
    first: Callable,
) -> tuple[list[float], list[tuple]]:
    """Times and states of the samples from (0, y0) to t_max.

    ``first(y)`` gives ``f(y)`` at each accepted sample but the last, once
    (rk45 retries reuse it).  Evaluation failures carry the last accepted
    time as ``last_valid_t``.
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
            for n in range(1, steps + 1 + (not exact)):
                k1 = first(y)
                samples.append((t, y))
                whole = n <= steps
                y = _rk4_step(f, y, h if whole else t_max - t, k1)
                t = n * h if whole else t_max
        else:
            # The floor is at most the first trial step min(h, t_max), so that
            # step always runs: a t_max below the end slack is honoured, and a
            # t_max or an h below 1e-12 is not an underflow.
            k1 = None
            h_try = min(h, t_max)
            while t == 0.0 or t < t_max - 1e-14:
                if h_try < min(_RK45_MIN_STEP, t_max, h):
                    raise StepFailure(f"adaptive step underflow at t={t!r}")
                if k1 is None:
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
    except (SingularCurvature, ChartDomainError, DomainError) as failure:
        failure.last_valid_t = t
        raise
    samples.append((t, y))
    return tuple(map(list, zip(*samples)))  # times, states


def integrate_lift(
    surface: ConformalSurface,
    s0: LiftState,
    t_max: float,
    h: float,
    method: str = "rk4",
    kappa_min: float = KAPPA_MIN,
    atol: float = 1e-9,
) -> Trajectory:
    """Integrate the lifted geodesic flow from ``s0`` over [0, t_max].

    Every sample carries the speed and the conserved-ratio monitor Q3/K, and
    all but the last their frame fields.  Evaluation failures along the path
    (chart guard, |K| below ``kappa_min``) abort the run with the last valid
    time attached to the exception.
    """
    stage = _lift_stage(surface, kappa_min)
    kept: list[tuple] = []  # stage 1's (partials, fields) per sample but the last
    y0 = (s0.x1, s0.x2, s0.phi, s0.Q1, s0.Q2, s0.Q3)
    times, states = _integrate(stage, y0, t_max, h, method, atol, lambda y: stage(y, kept.append))
    speed, monitor = [], []
    for y, info in zip(states, kept + [None]):
        x = (y[0], y[1])
        if info:
            K = laplacian_curvature_from(info[0], x)
        else:  # the final sample has no order-3 evaluation, nor its K test
            K = conformal_laplacian_curvature(surface, x)
            if abs(K) < kappa_min:
                raise SingularCurvature(x, K, kappa_min)
        try:
            speed.append(math.sqrt(y[3] ** 2 + y[4] ** 2 + y[5] ** 2))
        except OverflowError:
            speed.append(math.inf)
        monitor.append(y[5] / K)
    fields = [info[1] for info in kept] + [None]
    wong = [None] * len(states)
    return Trajectory("lift", surface.name, method, h, times, states, speed, monitor, wong, fields)


def integrate_base(
    surface: ConformalSurface,
    b0: BaseState,
    t_max: float,
    h: float,
    method: str = "rk4",
    atol: float = 1e-9,
) -> Trajectory:
    """Integrate the base geodesic flow from ``b0`` over [0, t_max]."""

    def f(y: tuple) -> tuple:
        return base_rhs(surface, BaseState(*y))

    y0 = (b0.x1, b0.x2, b0.P1, b0.P2)
    times, states = _integrate(f, y0, t_max, h, method, atol, f)
    speed = [math.hypot(y[2], y[3]) for y in states]
    n = len(states)
    return Trajectory(
        "base", surface.name, method, h, times, states, speed, [None] * n, [None] * n, [None] * n
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


def _three_point_derivative(t0, f0, t1, f1, t2, f2) -> float:
    """Derivative at t1 through three (possibly non-uniform) samples."""
    return (
        f0 * (t1 - t2) / ((t0 - t1) * (t0 - t2))
        + f1 * (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
        + f2 * (t1 - t0) / ((t2 - t0) * (t2 - t1))
    )


def wong_residual(
    surface: ConformalSurface,
    trajectory: Trajectory,
    C: float | None = None,
    rotation_sign: float = WONG_ROTATION_SIGN,
    kappa_min: float = KAPPA_MIN,
) -> list[float | None]:
    """Residual norm of the projected equation of motion, per sample.

    r = nabla_{gamma'} gamma' - s C K J(gamma') + C^2 K grad K, with the
    acceleration from centered differences of the sampled P^a and the
    connection from the generic Koszul coefficients.  Endpoint entries are
    None (no centered difference there).  C defaults to the trajectory's
    conserved Q3/K monitor.  Frame fields carried by the samples are used
    when the trajectory's surface has this surface's name.
    """
    t, states = trajectory.t, trajectory.states
    if len(t) < 3:
        raise ValueError("trajectory too short for differencing (need >= 3 samples)")
    if C is None:
        C = trajectory.q3_over_k[0]
        if C is None:
            raise ValueError("no Q3/K monitor on the trajectory; pass C explicitly")

    carried = trajectory.fields if trajectory.surface == surface.name else [None] * len(t)
    residuals: list[float | None] = [None] * len(t)
    for m in range(1, len(t) - 1):
        (_, _, P1a, P2a), (x1, x2, P1, P2), (_, _, P1b, P2b) = states[m - 1 : m + 2]
        x = (x1, x2)
        em, c1, c2, K, u1, u2 = _checked(carried[m] or frame_fields(surface, x), x, kappa_min)
        c_values = (((0.0, c1), (-c1, 0.0)), ((0.0, c2), (-c2, 0.0)))
        gamma = connection.koszul_values(c_values, 2)
        P, J = (P1, P2), (-P2, P1)
        dP = (
            _three_point_derivative(t[m - 1], P1a, t[m], P1, t[m + 1], P1b),
            _three_point_derivative(t[m - 1], P2a, t[m], P2, t[m + 1], P2b),
        )
        grad = (u1 * K, u2 * K)  # (e1 K, e2 K)
        r = [
            dP[a]
            + sum(gamma[a][b][c] * P[b] * P[c] for b in range(2) for c in range(2))
            - rotation_sign * C * K * J[a]
            + C * C * K * grad[a]
            for a in range(2)
        ]
        residuals[m] = math.hypot(r[0], r[1])
    return residuals


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


def _lines(trajectory: Trajectory):
    """One CSV line per sample, 17 significant digits.  A value that is not
    finite stops the output with a ``DomainError`` naming its sample."""
    rows = zip(trajectory.t, trajectory.states, trajectory.speed, trajectory.q3_over_k)
    for (t, y, speed, ratio), wong in zip(rows, trajectory.wong):
        if trajectory.kind == "lift":
            x1, x2, phi, Q1, Q2, Q3 = y
            phi = math.remainder(phi, 2.0 * math.pi) if phi - phi == 0.0 else phi
            line = f"{t:.17g},{x1:.17g},{x2:.17g},{phi:.17g},{Q1:.17g},{Q2:.17g},{Q3:.17g},"
        else:
            x1, x2, P1, P2 = y
            line = f"{t:.17g},{x1:.17g},{x2:.17g},,{P1:.17g},{P2:.17g},,"
        line += f"{speed:.17g},{_fmt(ratio)},{_fmt(wong)}\n"
        if "n" in line:  # nan or inf
            raise DomainError(f"non-finite value in the sample at t={t!r}, point {(x1, x2)!r}")
        yield line


def write_csv(trajectory: Trajectory, stream) -> None:
    """Write the trajectory with the fixed column layout, 17 significant digits."""
    stream.write(",".join(CSV_COLUMNS) + "\n" + "".join(_lines(trajectory)))


def to_json_dict(trajectory: Trajectory) -> dict:
    rows = [[float(c) if c else None for c in line[:-1].split(",")] for line in _lines(trajectory)]
    return {
        "kind": trajectory.kind,
        "surface": trajectory.surface,
        "method": trajectory.method,
        "step": trajectory.step,
        "columns": list(CSV_COLUMNS),
        "rows": rows,
    }
