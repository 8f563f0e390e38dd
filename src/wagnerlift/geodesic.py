"""Geodesics of the lifted metric on the frame bundle and of the base metric.

Writing u_i = e_i(K)/K, the lifted geodesic system in frame components is

    dx1/dt = e^(-lambda) Q1          dx2/dt = e^(-lambda) Q2
    dphi/dt = -c112 Q1 - c212 Q2 + K Q3
    dQ1/dt = -c112 Q1 Q2 - c212 Q2^2 + Q2 Q3 - u1 Q3^2
    dQ2/dt =  c112 Q1^2 + c212 Q1 Q2 - Q1 Q3 - u2 Q3^2
    dQ3/dt =  u1 Q1 Q3 + u2 Q2 Q3

obtained by contracting the derived connection coefficients (the signs of the
Q^a Q3 couplings follow from chat^3_12 = -1 and are re-checked against the
connection table at test time; ``coupling_sign_vs_reference`` records how they
compare with the +Q2Q3/-Q1Q3-free variant).  Along any solution Q3/K(gamma(t))
is constant, horizontality (Q3 = 0) persists exactly, and the projected curve
satisfies

    nabla_{gamma'} gamma' = s * C K J(gamma') - C^2 K grad K,
    J(Q1, Q2) = (-Q2, Q1),   s = WONG_ROTATION_SIGN = -1,

with C the conserved ratio.  ``wong_residual`` evaluates that equation from
sampled data only: centered differences for the acceleration and the generic
Koszul coefficients for the connection, independent of the integrator's
right-hand side.

Lambda is evaluated once per accepted lifted sample: its order-3 jet is stage
1 of the next step (every rk45 retry reuses it) and gives the sample's frame
fields, which the sample carries for ``wong_residual``, and its Q3/K monitor
-e^(-2 lambda) Lap(lambda).  The monitor keeps the bits of an order-2
evaluation because the order-2 coefficients are a prefix of the order-3 ones;
at the final sample, which has no next step, it is evaluated at order 2.
Frame fields that are not finite (a third derivative that overflowed leaves
the whole order-3 jet NaN) stop the run with a ``DomainError``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import connection
from .jets import DomainError
from .lift import KAPPA_MIN, SingularCurvature
from .surface import (
    ChartDomainError,
    ConformalSurface,
    Point,
    conformal_laplacian_curvature,
    frame_fields,
    frame_fields_from,
    laplacian_curvature_from,
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
    def point(self) -> Point:
        return (self.x1, self.x2)

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
    def point(self) -> Point:
        return (self.x1, self.x2)

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
    kind: str  # "lift" or "base"
    surface: str
    method: str
    step: float
    samples: list[Sample] = field(default_factory=list)

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.samples]

    def conservation_drift(self) -> float:
        """max_t |Q3/K(t) - Q3/K(0)| over the recorded samples."""
        values = [s.q3_over_k for s in self.samples if s.q3_over_k is not None]
        if not values:
            raise ValueError("trajectory carries no Q3/K monitor")
        return max(abs(v - values[0]) for v in values)

    def speed_drift(self) -> float:
        return max(abs(s.speed - self.samples[0].speed) for s in self.samples)


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
    return _lift_derivative(_checked(frame_fields(surface, x), x, kappa_min), s)


def _lift_derivative(fields: tuple, s: LiftState) -> tuple:
    em, c1, c2, K, u1, u2 = fields
    Q1, Q2, Q3 = s.Q1, s.Q2, s.Q3
    return (
        em * Q1,
        em * Q2,
        -Q1 * c1 - Q2 * c2 + Q3 * K,
        -c1 * Q1 * Q2 - c2 * Q2 * Q2 + Q2 * Q3 - u1 * Q3 * Q3,
        c1 * Q1 * Q1 + c2 * Q1 * Q2 - Q1 * Q3 - u2 * Q3 * Q3,
        u1 * Q1 * Q3 + u2 * Q2 * Q3,
    )


def base_rhs(
    surface: ConformalSurface, b: BaseState
) -> tuple[float, float, float, float]:
    """Base geodesic flow, via the generic Koszul coefficients (independent of
    the closed-form lifted system)."""
    x = (b.x1, b.x2)
    p = surface_jets(surface, x, 2)
    em, c1, c2 = p.em.value, p.c1.value, p.c2.value
    if (em - em) + (c1 - c1) + (c2 - c2) != 0.0:  # _checked's finiteness rule
        raise DomainError(f"non-finite frame fields at point {x!r}")
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
    k2 = f(tuple(yi + h2 * a for yi, a in zip(y, k1)))
    k3 = f(tuple(yi + h2 * b for yi, b in zip(y, k2)))
    k4 = f(tuple(yi + h * c for yi, c in zip(y, k3)))
    stages = zip(y, k1, k2, k3, k4)
    return tuple(yi + h6 * a + h3 * b + h3 * c + h6 * d for yi, a, b, c, d in stages)


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
) -> list[tuple]:
    """Samples (t, y, info) from (0, y0) to t_max.

    ``first(y)`` gives ``(f(y), info)`` at each accepted sample but the last,
    once (rk45 retries reuse it); the last sample's info is None.  Evaluation
    failures carry the last accepted time as ``last_valid_t``.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
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
                k1, info = first(y)
                samples.append((t, y, info))
                whole = n <= steps
                y = _rk4_step(f, y, h if whole else t_max - t, k1)
                t = n * h if whole else t_max
        else:
            k1 = None
            h_try = min(h, t_max)
            while t < t_max - 1e-14:
                if h_try < _RK45_MIN_STEP:
                    raise StepFailure(f"adaptive step underflow at t={t!r}")
                if k1 is None:
                    k1, info = first(y)
                    samples.append((t, y, info))
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
    samples.append((t, y, None))
    return samples


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

    def first(y: tuple) -> tuple:
        s = LiftState(*y)
        x = s.point
        l = surface.lambda_jet(x, 3).coeffs
        fields = _checked(frame_fields_from(l, x), x, kappa_min)
        return _lift_derivative(fields, s), (l, fields)

    def f(y: tuple) -> tuple:
        return lift_rhs(surface, LiftState(*y), kappa_min)

    y0 = (s0.x1, s0.x2, s0.phi, s0.Q1, s0.Q2, s0.Q3)
    raw = _integrate(f, y0, t_max, h, method, atol, first)
    trajectory = Trajectory(kind="lift", surface=surface.name, method=method, step=h)
    for t, y, info in raw:
        state = LiftState(*y)
        if info:
            K = laplacian_curvature_from(info[0], state.point)
        else:  # the final sample has no order-3 evaluation
            K = conformal_laplacian_curvature(surface, state.point)
        trajectory.samples.append(
            Sample(t, state, state.speed, state.Q3 / K, fields=info and info[1])
        )
    return trajectory


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
    raw = _integrate(f, y0, t_max, h, method, atol, lambda y: (f(y), None))
    trajectory = Trajectory(kind="base", surface=surface.name, method=method, step=h)
    for t, y, _ in raw:
        state = BaseState(*y)
        trajectory.samples.append(Sample(t=t, state=state, speed=state.speed))
    return trajectory


# -- projection and the Wong equation ------------------------------------------------


def project(trajectory: Trajectory) -> Trajectory:
    """Project a lifted trajectory to the base: drop (phi, Q3), keep P^a = Q^a.

    The conserved-ratio monitor is carried along; it is the constant C of the
    projected equation of motion.  So are the frame fields.
    """
    if trajectory.kind != "lift":
        raise ValueError("only lifted trajectories can be projected")
    samples = []
    for s in trajectory.samples:
        state = BaseState(x1=s.state.x1, x2=s.state.x2, P1=s.state.Q1, P2=s.state.Q2)
        samples.append(Sample(s.t, state, state.speed, s.q3_over_k, fields=s.fields))
    return replace(trajectory, kind="base", samples=samples)


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
    samples = trajectory.samples
    if len(samples) < 3:
        raise ValueError("trajectory too short for differencing (need >= 3 samples)")
    if C is None:
        C = samples[0].q3_over_k
        if C is None:
            raise ValueError("no Q3/K monitor on the trajectory; pass C explicitly")

    carried = trajectory.surface == surface.name
    residuals: list[float | None] = [None] * len(samples)
    for m in range(1, len(samples) - 1):
        before, here, after = samples[m - 1], samples[m], samples[m + 1]
        x = (here.state.x1, here.state.x2)
        fields = here.fields if carried and here.fields else frame_fields(surface, x)
        em, c1, c2, K, u1, u2 = _checked(fields, x, kappa_min)
        c_values = (((0.0, c1), (-c1, 0.0)), ((0.0, c2), (-c2, 0.0)))
        gamma = connection.koszul_values(c_values, 2)
        P = (here.state.P1, here.state.P2)
        dP = (
            _three_point_derivative(
                before.t, before.state.P1, here.t, here.state.P1, after.t, after.state.P1
            ),
            _three_point_derivative(
                before.t, before.state.P2, here.t, here.state.P2, after.t, after.state.P2
            ),
        )
        J = (-P[1], P[0])
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
    """Copy of the trajectory with the residual series attached to its samples."""
    if len(residuals) != len(trajectory.samples):
        raise ValueError("residual series does not match the trajectory")
    samples = [replace(s, wong=r) for s, r in zip(trajectory.samples, residuals)]
    return replace(trajectory, samples=samples)


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


def _row(sample: Sample) -> list[str]:
    s = sample.state
    if isinstance(s, LiftState):
        phi = math.remainder(s.phi, 2.0 * math.pi)  # reduced only on output
        values = [sample.t, s.x1, s.x2, phi, s.Q1, s.Q2, s.Q3]
    else:
        values = [sample.t, s.x1, s.x2, None, s.P1, s.P2, None]
    values += [sample.speed, sample.q3_over_k, sample.wong]
    return [_fmt(v) for v in values]


def write_csv(trajectory: Trajectory, stream) -> None:
    """Write the trajectory with the fixed column layout, 17 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for sample in trajectory.samples:
        writer.writerow(_row(sample))


def to_json_dict(trajectory: Trajectory) -> dict:
    rows = []
    for sample in trajectory.samples:
        rows.append([None if cell == "" else float(cell) for cell in _row(sample)])
    return {
        "kind": trajectory.kind,
        "surface": trajectory.surface,
        "method": trajectory.method,
        "step": trajectory.step,
        "columns": list(CSV_COLUMNS),
        "rows": rows,
    }


# -- invariant suite (used by the CLI verify command) ----------------------------------


def coupling_sign_vs_reference(surface: ConformalSurface, s: LiftState) -> int:
    """+1 if the implemented Q^a Q3 coupling matches -Q2Q3/+Q1Q3, -1 if it is
    the opposite orientation.  The comparison needs Q2*Q3 != 0."""
    x = (s.x1, s.x2)
    em, c1, c2, K, u1, u2 = _checked(frame_fields(surface, x), x, KAPPA_MIN)
    dQ1 = lift_rhs(surface, s)[3]
    base_part = -c1 * s.Q1 * s.Q2 - c2 * s.Q2 * s.Q2 - u1 * s.Q3 * s.Q3
    coupling = dQ1 - base_part
    reference = -s.Q2 * s.Q3
    if abs(reference) < 1e-12:
        raise ValueError("state does not expose the coupling term")
    return 1 if abs(coupling - reference) < 1e-9 * max(1.0, abs(reference)) else -1
