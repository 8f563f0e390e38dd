"""The ``verify`` report: the closed-form lift and the geodesic invariants
checked at sampled points.

``verify_lift`` compares the closed forms of ``lift`` against the generic
frame-calculus oracles at random guarded chart points; ``report`` adds a short
geodesic-invariant suite and gives the whole report the CLI prints.  Every
check is a deviation against a fixed bound, and the report passes when all of
them do.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import product

from . import connection, geodesic
from .connection import _define, _unpack
from .lift import (
    bracket_structure,
    lifted_connection,
    lifted_curvature_closed,
    lifted_curvature_oracle,
    lifted_structure,
    nonholonomity,
)
from .surface import ChartDomainError, ConformalSurface, frame_fields, sample_points


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_deviation": self.max_deviation if math.isfinite(self.max_deviation) else None,  # strict JSON
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerifyReport:
    surface: str
    samples: int
    seed: int
    tolerance: float
    checks: tuple[CheckResult, ...]
    resolved_signs: dict
    curvature_summary: dict

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [check.to_dict() for check in self.checks],
            "resolved_signs": self.resolved_signs,
            "curvature_summary": self.curvature_summary,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sign(value: float) -> int:
    return 1 if value > 0 else -1


@cache
def _deviation_kernel(depth: int):
    """(a, b) -> max((abs(a000 - b000), ...)) over two dim-3 tables of ``depth`` levels
    unpacked into locals, or NaN if a difference is NaN: their sum is then NaN, and only then."""
    terms = "".join(f"abs(a{i} - b{i}), " for i in map("".join, product("012", repeat=depth)))
    lines = [_unpack("a", 3, depth), _unpack("b", 3, depth), f"d = ({terms})", "t = sum(d)",
             "return t if t != t else max(d)"]
    return _define(f"deviation{depth}", "a, b", lines, {})


def verify_lift(
    surface: ConformalSurface, sample_count: int, seed: int, tol: float
) -> VerifyReport:
    """Cross-validate the closed-form lift against the generic oracles at
    random chart points: (a) structure functions vs numerical brackets,
    (b) connection vs the Koszul formula on the bracket-derived table,
    (c) closed-form curvature vs the generic curvature formula.

    Also records the nonholonomity identity and the resolved signs of the
    sectional curvatures (0 within ``tol``) and mixed curvature components.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be at least 1, got {sample_count}")
    rng = random.Random(seed)
    points = sample_points(surface, sample_count, rng)

    deviations = [0.0] * 4  # the checks' worst values, in the order below
    # Mixed curvature components are signed relative to a +u_i normalisation;
    # -1 means the oracle fixes M(12, a3) = -u_a.
    signs: dict[str, set] = {
        "sectional_12": set(), "sectional_13": set(), "sectional_23": set(),
        "mixed_1213_vs_plus_u1": set(), "mixed_1223_vs_plus_u2": set(),
    }
    values: dict[str, list[float]] = {
        "pair_1212": [], "sectional_12": [], "sectional_13": [], "sectional_23": [],
    }

    for x in points:
        structure = lifted_structure(surface, x)
        bracket_table = bracket_structure(surface, x)
        gamma_closed = lifted_connection(surface, x).gamma
        closed_curv = lifted_curvature_closed(surface, x)
        at_x = (
            _deviation_kernel(3)(structure.table(), bracket_table),
            _deviation_kernel(3)(gamma_closed, connection.koszul_values(bracket_table, 3)),
            _deviation_kernel(4)(closed_curv.R, lifted_curvature_oracle(surface, x).R),
            abs(nonholonomity(surface, x) + structure.K),
        )
        deviations = [d if d != d else max(w, d) for w, d in zip(deviations, at_x)]  # max(w, nan) is w

        values["pair_1212"].append(closed_curv.pair_component(1, 2, 1, 2))
        for name, i, j in (("sectional_12", 1, 2), ("sectional_13", 1, 3), ("sectional_23", 2, 3)):
            value = connection.sectional(closed_curv, i, j)
            signs[name].add(0 if abs(value) <= tol else _sign(value))
            values[name].append(value)
        u1, u2 = structure.c313, structure.c323
        if abs(u1) > 1e-6:
            signs["mixed_1213_vs_plus_u1"].add(_sign(closed_curv.pair_component(1, 2, 1, 3) / u1))
        if abs(u2) > 1e-6:
            signs["mixed_1223_vs_plus_u2"].add(_sign(closed_curv.pair_component(1, 2, 2, 3) / u2))

    return VerifyReport(
        surface=surface.name,
        samples=sample_count,
        seed=seed,
        tolerance=tol,
        checks=(
            CheckResult("structure_functions_vs_brackets", deviations[0], tol),
            CheckResult("connection_vs_koszul_on_brackets", deviations[1], tol),
            CheckResult("curvature_closed_vs_oracle", deviations[2], tol),
            CheckResult("nonholonomity_plus_curvature", deviations[3], 1e-9),
        ),
        resolved_signs={
            **{name: next(iter(s)) if len(s) == 1 else None for name, s in signs.items()},
            "sectional_signs_stable": all(
                len(s) <= 1 for name, s in signs.items() if name.startswith("sectional")
            ),
        },
        curvature_summary={name: {"min": min(v), "max": max(v)} for name, v in values.items()},
    )


# -- geodesic invariants ----------------------------------------------------------


def coupling_sign_vs_reference(surface: ConformalSurface, s: geodesic.LiftState) -> int:
    """+1 if the implemented Q^a Q3 coupling matches -Q2Q3/+Q1Q3, -1 if it is
    the opposite orientation.  The comparison needs Q2*Q3 != 0."""
    dQ1 = geodesic.lift_rhs(surface, s)[3]  # checks the frame fields read below
    _, c1, c2, _, u1, _ = frame_fields(surface, (s.x1, s.x2))
    base_part = -c1 * s.Q1 * s.Q2 - c2 * s.Q2 * s.Q2 - u1 * s.Q3 * s.Q3
    coupling = dQ1 - base_part
    reference = -s.Q2 * s.Q3
    if abs(reference) < 1e-12:
        raise ValueError("state does not expose the coupling term")
    return 1 if abs(coupling - reference) < 1e-9 * max(1.0, abs(reference)) else -1


def _geodesic_suite(surface: ConformalSurface, seed: int) -> dict:
    """Geodesic invariants at CLI-verify scale: conservation, speed,
    horizontality, the resolved coupling and rotation signs.  The geodesics
    start at the window centre, or at a sampled point where the guard fails
    there.  A geodesic that leaves the chart ends the integrations with a
    failing ``geodesic_left_chart`` check carrying its last valid time ``t``
    and the offending ``point``."""
    (x1_lo, x1_hi), (x2_lo, x2_hi) = surface.window
    x0 = ((x1_lo + x1_hi) / 2.0, (x2_lo + x2_hi) / 2.0)
    rng = random.Random(seed)
    if not surface.contains(x0):
        x0 = sample_points(surface, 1, rng)[0]
    checks, left_chart = [], []

    s0 = geodesic.LiftState(x0[0], x0[1], 0.0, 0.6, 0.1 * rng.random(), 0.8)
    try:
        trajectory = geodesic.integrate_lift(surface, s0, t_max=5.0, h=1e-3)
        checks.append(CheckResult("conservation_Q3_over_K", trajectory.conservation_drift(), 1e-6))
        checks.append(CheckResult("speed_conservation", trajectory.speed_drift(), 1e-8))
        horizontal = geodesic.LiftState(x0[0], x0[1], 0.0, 1.0, 0.0, 0.0)
        h_traj = geodesic.integrate_lift(surface, horizontal, t_max=2.0, h=1e-2)
        q3_max = max(abs(y[5]) for y in h_traj.states)
        checks.append(CheckResult("horizontality_persistence", q3_max, 1e-12))
        residuals = geodesic.wong_residual(surface, geodesic.project(trajectory))
        wong_max = max(r for r in residuals if r is not None)
        checks.append(CheckResult("wong_equation_residual", wong_max, 1e-4))
    except ChartDomainError as left:
        left_chart = [{
            "name": "geodesic_left_chart", "t": left.last_valid_t,
            "point": list(left.point), "pass": False,
        }]

    coupling_state = geodesic.LiftState(x0[0], x0[1], 0.0, 0.5, 0.4, 0.6)
    return {
        "checks": [c.to_dict() for c in checks] + left_chart,
        "resolved_signs": {
            "geodesic_coupling_vs_reference": coupling_sign_vs_reference(surface, coupling_state),
            "wong_rotation": int(geodesic.WONG_ROTATION_SIGN),
        },
        "pass": not left_chart and all(c.passed for c in checks),
    }


def report(surface: ConformalSurface, samples: int, seed: int, tol: float) -> dict:
    """The whole ``verify`` report: the lift checks under ``"lift"``, the
    geodesic suite under ``"geodesic"``, and ``"pass"`` when both pass."""
    lift_report = verify_lift(surface, sample_count=samples, seed=seed, tol=tol)
    suite = _geodesic_suite(surface, seed)
    return {
        "lift": lift_report.to_dict(),
        "geodesic": suite,
        "pass": lift_report.passed and suite["pass"],
    }
