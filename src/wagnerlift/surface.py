"""Base Riemannian surface in a conformal chart.

A surface is the metric g = e^(2*lambda) (dx1^2 + dx2^2) on a chart domain,
with the canonical positively oriented orthonormal frame e_a = e^(-lambda) d_a.
Point queries read the structure functions, Gaussian curvature and its frame
derivatives from one ``ConformalJets`` record, order-1 jets that the order-4 jet
of the conformal factor at the point gives, so derivatives are exact up to roundoff:

    c112 = e^(-lambda) d2(lambda)        c212 = -e^(-lambda) d1(lambda)
    K    = e1(c212) - e2(c112) - c112^2 - c212^2   ( = -e^(-2 lambda) Lap(lambda) )

One float function that ``jets._Source`` writes runs these formulas' ``Jet`` float
operations in order, each jet to the order the record reads, so it keeps their bits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache

from . import jets
from .connection import _define
from .expr import Expr, Tape, eval_jet, format_expr, parse
from .jets import DomainError, Jet, _Source

Point = tuple[float, float]

DEFAULT_WINDOW = ((-1.0, 1.0), (-1.0, 1.0))

_MAX_REJECTED_DRAWS = 10000


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
    _last_frame: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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
        try:
            return eval_jet(self._lam_tape, x, order)
        except DomainError as err:
            raise DomainError(f"{err} at point {x!r}") from None

    @classmethod
    def from_config(cls, config: dict) -> "ConformalSurface":
        """Build a surface from a config mapping with keys name, lambda, guard, window."""
        if not isinstance(config, dict):
            raise ValueError(f"surface config must be a mapping, got {type(config).__name__}")
        try:
            name = str(config["name"])
            lam = parse(str(config["lambda"]))
        except KeyError as missing:
            raise ValueError(f"surface config missing key {missing}") from None
        guard = _parse_guard(str(config.get("guard", "all")))
        window = config.get("window")
        try:
            (a, b), (c, d) = DEFAULT_WINDOW if window is None else window
            bounds = (float(a), float(b), float(c), float(d))
            if not all(map(math.isfinite, bounds)):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"window needs two pairs of finite numbers, got {window!r}") from None
        if not (math.isfinite(bounds[1] - bounds[0]) and math.isfinite(bounds[3] - bounds[2])):
            raise ValueError(f"window needs a finite width on both axes, got {window!r}")
        return cls(name=name, lam=lam, guard=guard, window=(bounds[:2], bounds[2:]))


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

    def __init__(self, point: Point, curvature_value: float):
        super().__init__(
            f"Gaussian curvature {curvature_value!r} at point "
            f"({point[0]!r}, {point[1]!r}) is below the singularity threshold {KAPPA_MIN!r}"
        )
        self.point = point
        self.curvature = curvature_value


@dataclass(frozen=True)
class ConformalJets:
    """The base geometry at a point as order-1 jets, from the order-4 lambda jet ``lam``.

    ``u1``/``u2`` are the logarithmic frame derivatives e_i(K)/K; ``ddlogK`` holds
    e_i(e_j(K)/K) values indexed [i][j].  They are None when K vanishes at the point.
    """

    lam: Jet
    em: Jet  # e^(-lambda)
    c1: Jet  # c^1_12
    c2: Jet  # c^2_12
    K: Jet
    e1K: Jet
    e2K: Jet
    u1: Jet | None = None
    u2: Jet | None = None
    ddlogK: tuple[tuple[float, float], tuple[float, float]] | None = None


def conformal_pipeline(lam: Jet) -> ConformalJets:
    """The ``ConformalJets`` record of an order-4 lambda jet, by ``_pipeline_kernel``
    on the order-3 Taylor slots of lambda and of its first partials."""
    if lam.order != 4:
        raise ValueError("conformal pipeline needs a lambda jet of order 4")
    try:
        slots, ddlogK = _pipeline_kernel()(*lam._t[:10], *jets.diff(lam, 1)._t, *jets.diff(lam, 2)._t)
    except OverflowError:
        raise DomainError(f"exp overflows at value {-lam.value!r}") from None
    return ConformalJets(lam, *[jets._new(1, t) for t in slots], ddlogK=ddlogK)


@cache
def _pipeline_kernel():
    """The module docstring's formulas as one float function by ``jets._Source``, which
    keeps the ``Jet`` bits: it leaves out only x/1.0 and 1.0*x.
    A slot of degree d reads no higher slot, so each jet runs only to the order it is read."""
    src = _Source()
    lam, d1, d2 = ([f"{x}{i}" for i in range(10)] for x in "lpq")
    em = src.compose([src.local(f"-{x}") for x in lam], jets._exp)
    c1, c2 = src.mul(em, d2), [src.local(f"-{x}") for x in src.mul(em, d1)]

    def e(axis, f):  # em * jets.diff(f, axis)
        table = jets._DIFF_TABLE[jets._ORDER[len(f)], axis]
        return src.mul(em, [f[i] if c == 1.0 else src.local(f"{c!r}*{f[i]}") for i, c, _ in table])

    # c1 and c2 are squared at order 2, the order of K, which drops the other slots.
    squares = zip(e(1, c2), e(2, c1), src.mul(c1[:6], c1[:6]), src.mul(c2[:6], c2[:6]))
    K = [src.op(src.op(src.op(a, "-", b), "-", c), "-", d) for a, b, c, d in squares]
    head = [f[:3] for f in (em, c1, c2, K, e(1, K), e(2, K))]
    src.lines.append(f"if {K[0]} == 0.0: return {src.text(head)}, None")
    inverse_K = src.compose(head[3], jets.reciprocal_derivs)
    u1, u2 = src.mul(head[4], inverse_K), src.mul(head[5], inverse_K)
    ddlogK = [[src.mul(em, [u[i]])[0] for u in (u1, u2)] for i in (1, 2)]
    src.lines.append(f"return {src.text(head + [u1, u2])}, {src.text(ddlogK)}")
    return _define("pipeline", ", ".join(lam + d1 + d2), src.lines, src.names)


def surface_jets(surface: ConformalSurface, x: Point) -> ConformalJets:
    """``conformal_pipeline`` of the order-4 lambda jet at ``x``; the pipeline's
    errors name ``x``.  A surface keeps its last successful result, keyed by the point
    tuple (``is``: ``==`` takes -0.0 for 0.0), so routes at one point share one evaluation."""
    last = surface._last_jets
    if last is not None and last[0] is x:
        return last[1]
    lam = surface.lambda_jet(x, 4)
    try:
        p = conformal_pipeline(lam)
    except DomainError as err:
        raise DomainError(f"{err} at point {x!r}") from None
    if type(x) is tuple:  # a list or an array could change under the key
        object.__setattr__(surface, "_last_jets", (x, p))
    return p


def gauss_curvature(surface: ConformalSurface, x: Point) -> ConformalJets:
    """The ``surface_jets`` record at ``x``, its values checked finite."""
    p = surface_jets(surface, x)
    values = [p.c1.value, p.c2.value, p.K.value, p.e1K.value, p.e2K.value]
    if p.u1 is not None:  # ddlogK is set with u1
        values += [p.u1.value, p.u2.value, *p.ddlogK[0], *p.ddlogK[1]]
    require_finite(values, x)
    return p


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


def sample_points(surface: ConformalSurface, count: int, rng: random.Random) -> list[Point]:
    """Uniform random chart points from the surface window; guarded points only.

    Raises ``SamplingError`` once ``_MAX_REJECTED_DRAWS`` draws failed the guard.
    """
    (x1_lo, x1_hi), (x2_lo, x2_hi) = surface.window
    points: list[Point] = []
    rejected = 0
    while len(points) < count:
        x = (rng.uniform(x1_lo, x1_hi), rng.uniform(x2_lo, x2_hi))
        if surface.contains(x):
            points.append(x)
        elif (rejected := rejected + 1) == _MAX_REJECTED_DRAWS:
            raise SamplingError(
                f"could not sample {count} guarded points: {rejected} draws failed the guard"
            )
    return points
