"""Base Riemannian surface in a conformal chart.

A surface is the metric g = e^(2*lambda) (dx1^2 + dx2^2) on a chart domain,
with the canonical positively oriented orthonormal frame e_a = e^(-lambda) d_a.
Everything downstream (structure functions, Gaussian curvature and its frame
derivatives) is computed from jets of the conformal factor, so derivatives are
exact up to roundoff:

    c112 = e^(-lambda) d2(lambda)        c212 = -e^(-lambda) d1(lambda)
    K    = e1(c212) - e2(c112) - c112^2 - c212^2   ( = -e^(-2 lambda) Lap(lambda) )
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import jets
from .expr import Expr, Tape, eval_jet, format_expr, parse
from .jets import DomainError, Jet

Point = tuple[float, float]

DEFAULT_WINDOW = ((-1.0, 1.0), (-1.0, 1.0))


class SamplingError(RuntimeError):
    """The chart guard held at too few points of the sampling window."""


class ChartDomainError(ValueError):
    """A queried point violates the chart guard."""

    def __init__(self, point: Point, reason: str):
        super().__init__(f"point ({point[0]!r}, {point[1]!r}) outside chart domain: {reason}")
        self.point = point


@dataclass(frozen=True)
class ConformalSurface:
    """A 2-D metric e^(2*lambda) (dx1^2 + dx2^2) on a guarded chart.

    ``guard`` is either None (whole plane) or an expression meaning
    "guard > 0".  ``window`` bounds the region used when sampling random
    chart points for verification.
    """

    name: str
    lam: Expr
    guard: Expr | None = None
    window: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_WINDOW
    _lam_tape: Tape = field(init=False, repr=False, compare=False)
    _guard_tape: Tape | None = field(init=False, repr=False, compare=False)
    _last_jets: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lam_tape", Tape(self.lam))
        guard = None if self.guard is None else Tape(self.guard)
        object.__setattr__(self, "_guard_tape", guard)

    def contains(self, x: Point) -> bool:
        if self._guard_tape is None:
            return True
        try:
            return eval_jet(self._guard_tape, x, 0).value > 0.0
        except DomainError:
            return False

    def require(self, x: Point) -> None:
        if not self.contains(x):
            guard_text = "all" if self.guard is None else f"{format_expr(self.guard)} > 0"
            raise ChartDomainError(x, f"guard {guard_text} fails")

    def lambda_jet(self, x: Point, order: int) -> Jet:
        self.require(x)
        return eval_jet(self._lam_tape, x, order)

    @classmethod
    def from_config(cls, config: dict) -> "ConformalSurface":
        """Build a surface from a config mapping with keys name, lambda, guard."""
        try:
            name = str(config["name"])
            lam = parse(str(config["lambda"]))
        except KeyError as missing:
            raise ValueError(f"surface config missing key {missing}") from None
        guard = _parse_guard(str(config.get("guard", "all")))
        window = config.get("window")
        if window is not None:
            (a, b), (c, d) = window
            window = ((float(a), float(b)), (float(c), float(d)))
        else:
            window = DEFAULT_WINDOW
        return cls(name=name, lam=lam, guard=guard, window=window)


def _parse_guard(text: str) -> Expr | None:
    text = text.strip()
    if text == "all":
        return None
    if ">" not in text:
        raise ValueError(f"guard must be 'all' or '<expr> > 0', got {text!r}")
    lhs, rhs = text.rsplit(">", 1)
    if rhs.strip() != "0":
        raise ValueError(f"guard inequality must compare against 0, got {text!r}")
    return parse(lhs)


# -- derived geometry ----------------------------------------------------------

KAPPA_MIN = 1e-8


class SingularCurvature(Exception):
    """The Gaussian curvature vanishes (or nearly so) at the queried point,
    so the lifted metric is singular along the fiber above it."""

    def __init__(self, point: Point, curvature_value: float, kappa_min: float = KAPPA_MIN):
        super().__init__(
            f"Gaussian curvature {curvature_value!r} at point "
            f"({point[0]!r}, {point[1]!r}) is below the singularity threshold {kappa_min!r}"
        )
        self.point = point
        self.curvature = curvature_value


@dataclass(frozen=True)
class ConformalJets:
    """Jets of the frame geometry at a point; deeper fields need higher input order.

    ``u1``/``u2`` are the logarithmic frame derivatives e_i(K)/K; ``ddlogK``
    holds e_i(e_j(K)/K) values indexed [i][j].  They are None when K vanishes
    at the point or the input jet is too shallow.
    """

    lam: Jet
    em: Jet  # e^(-lambda)
    c1: Jet  # c^1_12
    c2: Jet  # c^2_12
    K: Jet
    e1K: Jet | None = None
    e2K: Jet | None = None
    u1: Jet | None = None
    u2: Jet | None = None
    ddlogK: tuple[tuple[float, float], tuple[float, float]] | None = None


def conformal_pipeline(lam: Jet) -> ConformalJets:
    """Structure functions, curvature, and curvature derivatives from a lambda jet.

    With input order n: c's have order n-1, K order n-2, e_i(K) and u_i order
    n-3, and ddlogK needs n = 4.  Jet operations auto-truncate, so the formulas
    below read like the underlying math.
    """
    if lam.order < 2:
        raise ValueError("conformal pipeline needs a lambda jet of order >= 2")
    em = jets.exp(-lam)
    c1 = em * jets.diff(lam, 2)
    c2 = -(em * jets.diff(lam, 1))

    def e(axis: int, f: Jet) -> Jet:
        return em * jets.diff(f, axis)

    K = e(1, c2) - e(2, c1) - c1 * c1 - c2 * c2
    if lam.order < 3:
        return ConformalJets(lam=lam, em=em, c1=c1, c2=c2, K=K)

    e1K = e(1, K)
    e2K = e(2, K)
    if K.value == 0.0:
        return ConformalJets(lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K)
    u1 = e1K / K
    u2 = e2K / K
    ddlogK = None
    if lam.order >= 4:
        ddlogK = (
            (e(1, u1).value, e(1, u2).value),
            (e(2, u1).value, e(2, u2).value),
        )
    return ConformalJets(
        lam=lam, em=em, c1=c1, c2=c2, K=K, e1K=e1K, e2K=e2K, u1=u1, u2=u2, ddlogK=ddlogK
    )


@dataclass(frozen=True)
class BaseGeometry:
    """Pointwise frame geometry of the base surface.

    ``dlogK`` is (e1(K)/K, e2(K)/K) and ``ddlogK[i][j]`` is e_i(e_j(K)/K);
    both are None where K vanishes.
    """

    c112: float
    c212: float
    K: float
    e1K: float
    e2K: float
    dlogK: tuple[float, float] | None
    ddlogK: tuple[tuple[float, float], tuple[float, float]] | None


def surface_jets(surface: ConformalSurface, x: Point, order: int = 4) -> ConformalJets:
    """``conformal_pipeline`` of the lambda jet at ``x``.  A surface keeps its
    last successful result, keyed by the point tuple itself (``is``: ``==``
    takes -0.0 for 0.0), so routes that query one point share one evaluation."""
    last = surface._last_jets
    if last is not None and last[0] is x and last[1] == order:
        return last[2]
    p = conformal_pipeline(surface.lambda_jet(x, order))
    if type(x) is tuple:  # a list or an array could change under the key
        object.__setattr__(surface, "_last_jets", (x, order, p))
    return p


def geometry_from_jets(p: ConformalJets) -> BaseGeometry:
    return BaseGeometry(
        c112=p.c1.value,
        c212=p.c2.value,
        K=p.K.value,
        e1K=p.e1K.value,
        e2K=p.e2K.value,
        dlogK=None if p.u1 is None else (p.u1.value, p.u2.value),
        ddlogK=p.ddlogK,
    )


def gauss_curvature(surface: ConformalSurface, x: Point) -> BaseGeometry:
    """Gaussian curvature and its frame derivatives at ``x``."""
    geometry = geometry_from_jets(surface_jets(surface, x, 4))
    values = [geometry.c112, geometry.c212, geometry.K, geometry.e1K, geometry.e2K]
    if geometry.dlogK is not None:
        values += list(geometry.dlogK)
    if geometry.ddlogK is not None:
        values += [v for row in geometry.ddlogK for v in row]
    require_finite(values, x)
    return geometry


def require_finite(values, x: Point, what: str = "geometry") -> None:
    """Raise ``DomainError`` naming ``what`` at ``x`` unless every value is finite."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"non-finite {what} at point {x!r}")


def conformal_laplacian_curvature(surface: ConformalSurface, x: Point) -> float:
    """Independent curvature route K = -e^(-2 lambda) (d11 + d22)(lambda)."""
    return laplacian_curvature_from(surface.lambda_jet(x, 2).coeffs, x)


def laplacian_curvature_from(l: tuple[float, ...], x: Point) -> float:
    """K = -e^(-2 l00) (l20 + l02) from the raw partials ``l`` of a lambda
    jet of order >= 2 at ``x``."""
    return -_exp(-2.0 * l[0], x) * (l[3] + l[5])


def _exp(v: float, x: Point) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp overflows at value {v!r} at point {x!r}") from None


def frame_fields(
    surface: ConformalSurface, x: Point
) -> tuple[float, float, float, float, float | None, float | None]:
    """(e^-lambda, c112, c212, K, u1, u2) at ``x``, on the fast scalar path."""
    return frame_fields_from(surface.lambda_jet(x, 3).coeffs, x)


def frame_fields_from(l: tuple[float, ...], x: Point) -> tuple:
    """``frame_fields`` from the raw partials of an order-3 lambda jet at ``x``.

    Same quantities as ``conformal_pipeline`` (u_i = e_i(K)/K), expanded in
    the raw partials of lambda so the geodesic right-hand side costs a single
    order-3 jet evaluation.  With Lap = d11 + d22 acting on lambda:

        K   = -e^(-2 lambda) Lap(lambda)
        u_i = e^(-lambda) (d_i Lap(lambda) / Lap(lambda) - 2 d_i lambda)

    u1/u2 are None when Lap(lambda) is exactly zero.  The same partials also
    give the Laplacian-route curvature, ``laplacian_curvature_from``.
    """
    l00, l10, l01, l20, _, l02, l30, l21, l12, l03 = l
    lap = l20 + l02
    lap1 = l30 + l12
    lap2 = l21 + l03
    em = _exp(-l00, x)
    c1 = em * l01
    c2 = -em * l10
    K = -em * em * lap
    if lap == 0.0:
        return (em, c1, c2, K, None, None)
    u1 = em * (lap1 / lap - 2.0 * l10)
    u2 = em * (lap2 / lap - 2.0 * l01)
    return (em, c1, c2, K, u1, u2)


# -- catalog ----------------------------------------------------------------------

_CATALOG_CONFIGS = {
    "sphere": {
        "name": "sphere",
        "lambda": "log(2) - log(1 + x1^2 + x2^2)",
        "guard": "all",
        "window": ((-2.0, 2.0), (-2.0, 2.0)),
    },
    "halfplane": {
        "name": "halfplane",
        "lambda": "-log(x2)",
        "guard": "x2 > 0",
        "window": ((-2.0, 2.0), (0.05, 3.0)),
    },
    "bump": {
        "name": "bump",
        "lambda": "x1^2 + x2^2",
        "guard": "all",
        "window": ((-1.0, 1.0), (-1.0, 1.0)),
    },
}


def catalog(name: str) -> ConformalSurface:
    """Built-in surfaces: unit sphere (stereographic chart, K = 1), the
    hyperbolic half-plane (K = -1), and a nonconstant-curvature bump
    (K = -4 e^(-2 r^2) < 0)."""
    try:
        config = _CATALOG_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG_CONFIGS))
        raise KeyError(f"unknown catalog surface {name!r} (known: {known})") from None
    return ConformalSurface.from_config(config)


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG_CONFIGS))


def sample_points(
    surface: ConformalSurface, count: int, rng: random.Random, max_attempts: int = 10000
) -> list[Point]:
    """Uniform random chart points from the surface window; guarded points only."""
    (x1_lo, x1_hi), (x2_lo, x2_hi) = surface.window
    points: list[Point] = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > max_attempts:
            raise SamplingError(
                f"could not sample {count} guarded points in {max_attempts} attempts"
            )
        x = (rng.uniform(x1_lo, x1_hi), rng.uniform(x2_lo, x2_hi))
        if surface.contains(x):
            points.append(x)
    return points
