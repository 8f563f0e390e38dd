"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
collected into the terminal summary block (or shown inline with ``-s``).
"""

import json
import math
import random
import time

import pytest

from conftest import record_acceptance

from wagnerlift import geodesic as geo
from wagnerlift import lift
from wagnerlift.cli import run
from wagnerlift.connection import sectional
from wagnerlift.expr import Call, Mul, eval_jet, format_expr, parse, ParseError
from wagnerlift import jets
from wagnerlift.surface import ConformalSurface, catalog, sample_points

from _oracles import (
    base_frame_point,
    compatibility_residual,
    fd_agrees,
    polynomial_partial,
    random_polynomial,
    random_smooth_expr,
    torsion_residual,
)

SEED = 20240809


def _report(number: int, description: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"criterion {number:02d} {status} - {description}{suffix}"
    record_acceptance(line)
    print(line)
    return passed


def _curvature_difference(a, b):
    return max(
        abs(a.R[l][i][j][k] - b.R[l][i][j][k])
        for l in range(3)
        for i in range(3)
        for j in range(3)
        for k in range(3)
    )


def test_criterion_01_sphere_lift_sectional_curvature():
    sphere = catalog("sphere")
    rng = random.Random(SEED)
    start = time.perf_counter()
    worst = 0.0
    for x in sample_points(sphere, 20, rng):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            worst = max(worst, abs(lift.lifted_sectional(sphere, x, i, j) - 0.25))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _report(
        1,
        "sphere lift: all frame-plane sectional curvatures equal 1/4",
        ok,
        f"max |K-1/4| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_halfplane_lift_curvature_magnitudes():
    halfplane = catalog("halfplane")
    rng = random.Random(SEED + 1)
    worst_1212 = worst_13 = worst_23 = 0.0
    signs = {"12": set(), "13": set(), "23": set()}
    for x in sample_points(halfplane, 20, rng):
        table = lift.lifted_curvature_closed(halfplane, x)
        worst_1212 = max(worst_1212, abs(abs(table.pair_component(1, 2, 1, 2)) - 1.75))
        s12 = sectional(table, 1, 2)
        s13 = sectional(table, 1, 3)
        s23 = sectional(table, 2, 3)
        worst_13 = max(worst_13, abs(abs(s13) - 0.25))
        worst_23 = max(worst_23, abs(abs(s23) - 0.25))
        signs["12"].add(1 if s12 > 0 else -1)
        signs["13"].add(1 if s13 > 0 else -1)
        signs["23"].add(1 if s23 > 0 else -1)
    stable = all(len(s) == 1 for s in signs.values())
    resolved = {k: next(iter(v)) for k, v in signs.items()}
    ok = worst_1212 <= 1e-9 and worst_13 <= 1e-9 and worst_23 <= 1e-9 and stable
    assert _report(
        2,
        "half-plane lift: |R(12,12)| = 7/4 and |K(E_a,E3)| = 1/4, signs stable",
        ok,
        f"max dev = {max(worst_1212, worst_13, worst_23):.2e}, signs = {resolved}",
    )


def test_criterion_03_closed_form_matches_generic_oracle():
    start = time.perf_counter()
    devs = {}
    for name, tol in (("sphere", 1e-8), ("halfplane", 1e-8), ("bump", 1e-6)):
        surface = catalog(name)
        rng = random.Random(SEED + 2)
        worst = 0.0
        for x in sample_points(surface, 100, rng):
            closed = lift.lifted_curvature_closed(surface, x)
            oracle = lift.lifted_curvature_oracle(surface, x)
            worst = max(worst, _curvature_difference(closed, oracle))
        devs[name] = (worst, tol)
    elapsed = time.perf_counter() - start
    ok = all(worst <= tol for worst, tol in devs.values()) and elapsed < 5.0
    detail = ", ".join(f"{k}: {v[0]:.2e}" for k, v in devs.items())
    assert _report(
        3,
        "lifted curvature closed form matches the frame-calculus oracle",
        ok,
        f"{detail}, {elapsed:.2f}s",
    )


def test_criterion_04_nonholonomity_equals_minus_curvature():
    worst = 0.0
    for name in ("sphere", "halfplane", "bump"):
        surface = catalog(name)
        rng = random.Random(SEED + 3)
        for x in sample_points(surface, 100, rng):
            from wagnerlift.surface import gauss_curvature

            K = gauss_curvature(surface, x).K.value
            worst = max(worst, abs(lift.nonholonomity(surface, x) + K))
    ok = worst <= 1e-9
    assert _report(
        4,
        "vertical bracket defect equals minus the Gaussian curvature",
        ok,
        f"max |N + K| = {worst:.2e}",
    )


def test_criterion_05_connection_invariants():
    from wagnerlift.connection import koszul

    worst = 0.0
    for name in ("sphere", "halfplane", "bump"):
        surface = catalog(name)
        rng = random.Random(SEED + 4)
        for x in sample_points(surface, 50, rng):
            point = base_frame_point(surface, x)
            table = koszul(point)
            worst = max(worst, compatibility_residual(table))
            worst = max(worst, torsion_residual(table, point.c))
            lifted = lift.lifted_connection(surface, x)
            worst = max(worst, compatibility_residual(lifted))
            worst = max(
                worst, torsion_residual(lifted, lift.lifted_structure(surface, x).table())
            )
    ok = worst <= 1e-12
    assert _report(
        5,
        "metric-compatibility and torsion identities hold in dims 2 and 3",
        ok,
        f"max residual = {worst:.2e}",
    )


def _seeded_lift_states(surface, count, seed):
    rng = random.Random(seed)
    (x1_lo, x1_hi), (x2_lo, x2_hi) = surface.window
    center = ((x1_lo + x1_hi) / 2.0, (x2_lo + x2_hi) / 2.0)
    states = []
    while len(states) < count:
        x = (
            center[0] + rng.uniform(-0.3, 0.3),
            center[1] + rng.uniform(-0.3, 0.3),
        )
        if not surface.contains(x):
            continue
        q3 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 0.8)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        qh = math.sqrt(1.0 - q3 * q3)
        states.append(
            geo.LiftState(x[0], x[1], 0.0, qh * math.cos(angle), qh * math.sin(angle), q3)
        )
    return states


def test_criterion_06_conservation_law():
    worst_drift = worst_speed = 0.0
    for name in ("sphere", "halfplane", "bump"):
        surface = catalog(name)
        for state in _seeded_lift_states(surface, 5, SEED + 5):
            trajectory = geo.integrate_lift(surface, state, t_max=10.0, h=1e-3)
            worst_drift = max(worst_drift, trajectory.conservation_drift())
            worst_speed = max(worst_speed, trajectory.speed_drift())
    # fourth-order check in the truncation-dominated regime (constant-K
    # surfaces conserve Q3 exactly, so the ratio is measured on bump)
    state = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    drift_h = geo.integrate_lift(catalog("bump"), state, t_max=2.0, h=0.1).conservation_drift()
    drift_h2 = geo.integrate_lift(catalog("bump"), state, t_max=2.0, h=0.05).conservation_drift()
    ratio = drift_h / drift_h2
    ok = worst_drift <= 1e-6 and worst_speed <= 1e-8 and ratio >= 8.0
    assert _report(
        6,
        "Q3/K and speed conserved along lifted geodesics; 4th-order convergence",
        ok,
        f"drift = {worst_drift:.2e}, speed = {worst_speed:.2e}, halving ratio = {ratio:.1f}",
    )


def test_criterion_07_projection_theorem():
    starts = {
        "sphere": geo.LiftState(0.5, 0.0, 0.0, 0.0, 1.0, 0.0),
        "halfplane": geo.LiftState(0.0, 1.0, 0.0, 0.6, 0.8, 0.0),
        "bump": geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.8, 0.0),
    }
    worst = 0.0
    for name, start in starts.items():
        surface = catalog(name)
        projected = geo.project(geo.integrate_lift(surface, start, t_max=5.0, h=1e-3))
        base = geo.integrate_base(
            surface, geo.BaseState(start.x1, start.x2, start.Q1, start.Q2), t_max=5.0, h=1e-3
        )
        worst = max(
            worst,
            max(
                abs(a - b) for p, q in zip(projected.states, base.states) for a, b in zip(p, q)
            ),
        )
    ok = worst <= 1e-6
    assert _report(
        7,
        "horizontal lifted geodesics project onto base geodesics",
        ok,
        f"sup distance = {worst:.2e}",
    )


def test_criterion_08_wong_equation():
    sphere = catalog("sphere")
    start = geo.LiftState(0.3, 0.2, 0.0, 0.6, 0.0, 0.5)  # conserved C = 0.5
    projected = geo.project(geo.integrate_lift(sphere, start, t_max=6.0, h=1e-3))
    assert projected.q3_over_k[0] == pytest.approx(0.5, abs=1e-12)
    sphere_residual = max(
        r for r in geo.wong_residual(sphere, projected) if r is not None
    )

    bump = catalog("bump")
    start = geo.LiftState(0.3, 0.1, 0.0, 0.6, 0.0, 0.8)
    projected = geo.project(geo.integrate_lift(bump, start, t_max=6.0, h=1e-3))
    bump_residual = max(r for r in geo.wong_residual(bump, projected) if r is not None)

    ok = sphere_residual <= 1e-5 and bump_residual <= 1e-4
    assert _report(
        8,
        "projected geodesics satisfy the magnetic (Wong) equation of motion",
        ok,
        f"sphere C=0.5: {sphere_residual:.2e}, bump: {bump_residual:.2e}",
    )


def test_criterion_09_singularity_contract(tmp_path, capsys):
    flat = ConformalSurface.from_config({"name": "flat", "lambda": "0.5", "guard": "all"})
    x = (0.1, 0.2)
    operations = (
        lambda: lift.lifted_frame(flat, x),
        lambda: lift.lifted_structure(flat, x),
        lambda: lift.lifted_connection(flat, x),
        lambda: lift.lifted_curvature_closed(flat, x),
        lambda: lift.lifted_curvature_oracle(flat, x),
        lambda: lift.lifted_sectional(flat, x, 1, 2),
        lambda: lift.bracket_structure(flat, x),
    )
    raised = 0
    for operation in operations:
        try:
            operation()
        except lift.SingularCurvature as err:
            raised += err.point == x
    config = tmp_path / "flat.json"
    config.write_text(json.dumps({"name": "flat", "lambda": "0.5", "guard": "all"}))
    code = run(["lift", "table", "--surface", str(config), "--at", "0.1,0.2"])
    captured = capsys.readouterr()
    cli_ok = code == 3 and "offending point: (0.1, 0.2)" in captured.err
    ok = raised == len(operations) and cli_ok
    assert _report(
        9,
        "flat metric raises the curvature-singularity error; CLI exits 3",
        ok,
        f"{raised}/{len(operations)} operations raised, exit code {code}",
    )


def test_criterion_10_parser_and_jet_property_run():
    failures = []

    rng = random.Random(SEED + 10)
    for _ in range(200):  # product rule
        f = random_smooth_expr(rng, depth=2)
        g = random_smooth_expr(rng, depth=2)
        point = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        product = eval_jet(Mul(f, g), point, 4)
        via_jets = eval_jet(f, point, 4) * eval_jet(g, point, 4)
        if any(
            abs(a - b) > 1e-11 * max(1.0, abs(b))
            for a, b in zip(product.coeffs, via_jets.coeffs)
        ):
            failures.append("product rule")
            break

    rng = random.Random(SEED + 11)
    for _ in range(200):  # chain rule
        f = random_smooth_expr(rng, depth=2)
        point = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        composed = eval_jet(Call("exp", f), point, 4)
        via_jets = jets.exp(eval_jet(f, point, 4))
        if any(
            abs(a - b) > 1e-11 * max(1.0, abs(b))
            for a, b in zip(composed.coeffs, via_jets.coeffs)
        ):
            failures.append("chain rule")
            break

    rng = random.Random(SEED + 12)
    for _ in range(200):  # polynomial exactness at degree <= 4
        monomials, tree = random_polynomial(rng)
        point = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        jet = eval_jet(tree, point, 4)
        for a in range(5):
            for b in range(5 - a):
                expected = polynomial_partial(monomials, point, a, b)
                if abs(jet.deriv(a, b) - expected) > 1e-12 * max(1.0, abs(expected)):
                    failures.append("polynomial exactness")
                    break

    rng = random.Random(SEED + 13)
    alphabet = "x12+-*/^()sincoteaqlg. "
    for _ in range(200):  # fuzz: no crash, errors carry a position
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            tree = parse(text)
            if parse(format_expr(tree)) != tree:
                failures.append("fuzz round trip")
                break
        except ParseError as err:
            if not isinstance(err.position, int):
                failures.append("fuzz error position")
                break
        except Exception:
            failures.append("fuzz crash")
            break

    rng = random.Random(SEED + 14)
    fd_checked = 0
    for _ in range(50):  # jets against the high-precision FD oracle
        tree = random_smooth_expr(rng, depth=3)
        point = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if not fd_agrees(tree, point, order=4, rtol=1e-5):
            failures.append(f"fd oracle: {format_expr(tree)}")
            break
        fd_checked += 1

    ok = not failures
    assert _report(
        10,
        "parser/jet property run (200 cases each) and 50-expression FD check",
        ok,
        "all properties hold" if ok else "; ".join(failures),
    )
