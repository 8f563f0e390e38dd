"""Command-line interface tests: subcommands, formats, exit codes, determinism."""

import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wagnerlift
from wagnerlift import cli, connection, geodesic, verify
from wagnerlift import surface as surface_module
from wagnerlift.cli import run
from wagnerlift.surface import catalog

FLAT_CONFIG = {"name": "flat", "lambda": "0", "guard": "all"}


def _flat_path(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT_CONFIG))
    return str(path)


def test_surface_info(capsys):
    assert run(["surface", "info", "--surface", "halfplane", "--at", "0.7,2.0"]) == 0
    out = capsys.readouterr().out
    assert "c1_12: -1" in out
    assert "c2_12: 0" in out
    assert "K: -1" in out
    assert "lambda_expr: -log(x2)" in out


def test_lift_table_sphere(capsys):
    assert run(["lift", "table", "--surface", "sphere", "--at", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "K(E1,E2): 0.25" in out
    assert "K(E1,E3): 0.25" in out
    assert "K(E2,E3): 0.25" in out
    assert "M(12,12): -0.25" in out
    assert "chat^3_12: -1" in out


def test_lift_table_halfplane(capsys):
    assert run(["lift", "table", "--surface", "halfplane", "--at", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "M(12,12): 1.75" in out
    assert "K(E1,E2): -1.75" in out


def test_geodesic_horizontal_q3_column_is_zero(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code = run(
        [
            "geodesic",
            "--surface",
            "sphere",
            "--start",
            "0.5,0,0",
            "--velocity",
            "0,1,0",
            "--t-max",
            "0.2",
            "--step",
            "0.001",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("t,x1,x2,phi")
    assert len(lines) == 202
    for line in lines[1:]:
        assert line.split(",")[6] == "0"


def test_geodesic_deterministic_output(tmp_path):
    argv = [
        "geodesic",
        "--surface",
        "bump",
        "--start",
        "0.3,0.1,0",
        "--velocity",
        "0.6,0,0.8",
        "--t-max",
        "0.05",
        "--step",
        "0.001",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_geodesic_wong_column(tmp_path):
    out_path = tmp_path / "wong.csv"
    code = run(
        [
            "geodesic",
            "--surface",
            "sphere",
            "--start",
            "0.3,0.2,0",
            "--velocity",
            "0.6,0,0.5",
            "--t-max",
            "0.1",
            "--step",
            "0.01",
            "--wong",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert rows[0][9] == ""
    assert all(float(row[9]) < 1e-4 for row in rows[1:-1])


def test_geodesic_json_format(tmp_path):
    out_path = tmp_path / "traj.json"
    code = run(
        [
            "geodesic",
            "--surface",
            "sphere",
            "--start",
            "0.5,0,0",
            "--velocity",
            "0,1,0",
            "--t-max",
            "0.01",
            "--step",
            "0.001",
            "--format",
            "json",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["kind"] == "lift"
    assert data["surface"] == "sphere"
    assert len(data["rows"]) == 11


def test_base_geodesic_csv(tmp_path):
    out_path = tmp_path / "base.csv"
    code = run(
        [
            "base-geodesic",
            "--surface",
            "halfplane",
            "--start",
            "0,1",
            "--velocity",
            "0,1",
            "--t-max",
            "0.05",
            "--step",
            "0.001",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[1].split(",")[3] == ""  # no phi column content for base runs


def test_custom_surface_config(tmp_path, capsys):
    config = tmp_path / "surface.json"
    config.write_text(
        json.dumps({"name": "mybump", "lambda": "x1^2 + x2^2", "guard": "all"})
    )
    assert run(["surface", "info", "--surface", str(config), "--at", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "surface: mybump" in out
    assert "K: -4" in out


def test_verify_passes_quickly(capsys):
    code = run(
        ["verify", "--surface", "halfplane", "--samples", "10", "--seed", "7", "--tol", "1e-8"]
    )
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert report["lift"]["surface"] == "halfplane"
    names = {check["name"] for check in report["lift"]["checks"]}
    assert "curvature_closed_vs_oracle" in names
    assert report["geodesic"]["resolved_signs"]["geodesic_coupling_vs_reference"] == -1
    assert report["geodesic"]["resolved_signs"]["wong_rotation"] == -1


def test_verify_fails_with_impossible_tolerance(capsys):
    code = run(
        ["verify", "--surface", "bump", "--samples", "5", "--seed", "1", "--tol", "1e-30"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_prints_strict_json_for_a_deviation_that_is_not_finite(bad, monkeypatch, capsys):
    # One oracle entry that is not finite fails the curvature check, and its
    # deviation prints as null: strict JSON has no NaN or Infinity.
    oracle = verify.lifted_curvature_oracle

    def bad_oracle(surface, x):
        R = [[[list(row) for row in plane] for plane in block] for block in oracle(surface, x).R]
        R[0][1][0][1] = bad
        return connection.CurvatureTable(3, R)

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    monkeypatch.setattr(verify, "lifted_curvature_oracle", bad_oracle)
    code = run(["verify", "--surface", "sphere", "--samples", "3", "--seed", "1"])
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 1 and report["pass"] is False
    checks = {check["name"]: check for check in report["lift"]["checks"]}
    assert checks.pop("curvature_closed_vs_oracle") == {
        "name": "curvature_closed_vs_oracle", "max_abs_deviation": None, "tolerance": 1e-8, "pass": False}
    assert all(check["pass"] for check in checks.values())


def test_every_command_of_the_readme_command_line_block_exits_zero(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 6 and all(argv[0] == "wagnerlift" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv[1:]) == 0, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "info", "--surface", "nosuch", "--at", "0,0"],
        ["geodesic", "--surface", "sphere", "--start", "0,0", "--velocity", "1,0,0",
         "--t-max", "1", "--step", "0.1"],
        ["geodesic", "--surface", "sphere", "--start", "0,0,0", "--velocity", "1,0,0",
         "--t-max", "-1", "--step", "0.1"],
        ["surface", "info", "--surface", "sphere", "--at", "zero,0"],
        ["verify", "--surface", "sphere", "--samples", "0"],
        ["nonsense"],
        ["verify", "--surface", "sphere", "--samples", "1000001"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert run(argv) == 2
    capsys.readouterr()


def test_flat_surface_exits_three_with_point(tmp_path, capsys):
    code = run(["lift", "table", "--surface", _flat_path(tmp_path), "--at", "0.1,0.2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "offending point: (0.1, 0.2)" in captured.err


def test_guard_violation_exits_three(capsys):
    code = run(["surface", "info", "--surface", "halfplane", "--at", "0,-1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "offending point" in captured.err


def test_geodesic_flat_surface_exits_three(tmp_path, capsys):
    code = run(
        [
            "geodesic",
            "--surface",
            _flat_path(tmp_path),
            "--start",
            "0,0,0",
            "--velocity",
            "1,0,0",
            "--t-max",
            "1",
            "--step",
            "0.1",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "offending point" in captured.err


def test_geodesic_honours_t_max(capsys):
    argv = ["geodesic", "--surface", "sphere", "--start", "0,0,0", "--velocity", "1,0,0",
            "--t-max", "1", "--step", "0.3"]
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]][-2:] == ["0.89999999999999991", "1"]


@pytest.mark.parametrize(
    "t_max,step",
    [("1e-15", "0.01"), ("1e-14", "0.01"), ("5e-13", "0.01"), ("1e-308", "0.01"),
     ("1e-10", "1e-13")],
    ids=["1e-15", "1e-14", "5e-13", "1e-308", "1e-10-step-1e-13"],
)
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_geodesic_honours_a_t_max_below_the_step_floor(t_max, step, method, capsys):
    # rk45 ends within 1e-14 of t_max and has a step floor of min(1e-12, t_max,
    # step); its first step still lands on a t_max below either, and a first
    # trial step below 1e-12 is not an underflow.
    argv = ["geodesic", "--surface", "sphere", "--start", "0.1,0.2,0",
            "--velocity", "0.6,0,0.8", "--t-max", t_max, "--step", step, "--method", method]
    assert run(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    times = [float(row.split(",")[0]) for row in rows[1:]]
    assert times[0] == 0.0 and times[-1] == float(t_max)
    assert times == sorted(set(times))
    if float(step) >= float(t_max):
        assert times == [0.0, float(t_max)]


def test_an_rk45_run_past_the_step_bound_exits_three(monkeypatch, capsys):
    # The bound that caps rk4's --t-max / --step also caps rk45's steps; a
    # lower one keeps the run short.
    monkeypatch.setattr(wagnerlift.geodesic, "MAX_STEPS", 20)
    argv = ["geodesic", "--surface", "sphere", "--start", "0.1,0.2,0", "--velocity",
            "0.6,0.3,0.8", "--t-max", "20", "--step", "1", "--method", "rk45"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, last = captured.err.splitlines()
    assert error.startswith("error: more than 20 adaptive steps at t=")
    # the failure time is that of the last accepted sample, mid-flight
    t = error.rpartition("t=")[2]
    assert last == f"last valid t: {t}" and 0.0 < float(t) < 20.0
    assert run([*argv, "--t-max", "21"]) == 2  # the last --t-max counts
    capsys.readouterr()


@pytest.mark.parametrize("command, start, velocity", [
    ("geodesic", "0.5,0,0", "0,1,0"), ("base-geodesic", "0.5,0", "0,1"),
])
def test_an_rk45_step_underflow_exits_three_with_its_time(monkeypatch, capsys, command, start,
                                                          velocity):
    monkeypatch.setattr(wagnerlift.geodesic, "_RK45_ATOL", 0.0)  # no step is accurate enough
    argv = [command, "--surface", "sphere", "--start", start, "--velocity", velocity,
            "--t-max", "1", "--step", "0.1", "--method", "rk45"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, last = captured.err.splitlines()
    assert error.startswith("error: adaptive step underflow at t=")
    assert last == f"last valid t: {error.rpartition('t=')[2]}"


def test_overflow_exits_three(tmp_path, capsys):
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps({"name": "ee", "lambda": "exp(exp(x1))", "guard": "all"}))
    code = run(["surface", "info", "--surface", str(config), "--at", "10,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "overflows" in captured.err


def test_help_exits_zero():
    assert run(["--help"]) == 0


def test_verify_reports_sectional_signs(capsys):
    code = run(
        ["verify", "--surface", "sphere", "--samples", "10", "--seed", "3", "--tol", "1e-8"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    signs = report["lift"]["resolved_signs"]
    assert signs["sectional_12"] == 1
    assert signs["sectional_signs_stable"] is True


def _config_path(tmp_path, name, lam, guard="all"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "lambda": lam, "guard": guard}))
    return str(path)


# Each command with the point it evaluates first: verify's is its first
# sampled point at the default seed.
OVERFLOW_RUNS = {
    "surface-info": (["surface", "info", "--at", "0,0"], "(0.0, 0.0)"),
    "lift-table": (["lift", "table", "--at", "0,0"], "(0.0, 0.0)"),
    "geodesic": (["geodesic", "--start", "0,0,0", "--velocity", "1,0,0",
                  "--t-max", "0.1", "--step", "0.1"], "(0.0, 0.0)"),
    "base-geodesic": (["base-geodesic", "--start", "0,0", "--velocity", "1,0",
                       "--t-max", "0.1", "--step", "0.1"], "(0.0, 0.0)"),
    "verify": (["verify", "--samples", "2"], "(0.6888437030500962, 0.515908805880605)"),
}


@pytest.mark.parametrize("command", OVERFLOW_RUNS)
def test_frame_exp_overflow_exits_three(command, tmp_path, capsys):
    # e^-lambda overflows where lambda's own jet is finite: point queries,
    # verify and the flows word it alike, naming the point.
    argv, point = OVERFLOW_RUNS[command]
    code = run(argv + ["--surface", _config_path(tmp_path, "ovf", "-1000 + 0*x1")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines()[0] == f"error: exp overflows at value 1000.0 at point {point}"
    assert "Traceback" not in captured.err


def test_sine_of_infinity_exits_three(tmp_path, capsys):
    surface = _config_path(tmp_path, "sinf", "sin(x1*1e200*1e200)")
    code = run(["surface", "info", "--surface", surface, "--at", "1,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "sin is undefined at value inf" in captured.err


@pytest.mark.parametrize(
    "t_max, step", [("inf", "0.1"), ("nan", "0.1"), ("1", "inf")]
)
def test_non_finite_times_exit_two(t_max, step, capsys):
    code = run(["geodesic", "--surface", "sphere", "--start", "0,0,0", "--velocity", "1,0,0",
                "--t-max", t_max, "--step", step])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite positive number" in captured.err


def test_verify_guard_empty_in_window_exits_two(tmp_path, capsys):
    surface = _config_path(tmp_path, "far", "x1^2 + x2^2", "x1 - 100 > 0")
    code = run(["verify", "--surface", surface, "--samples", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "could not sample" in captured.err


def test_verify_starts_geodesics_inside_the_guard(tmp_path, capsys):
    # The window centre (0, 0) lies in the hole of the annulus.
    surface = _config_path(tmp_path, "annulus", "x1^2 + x2^2", "x1^2 + x2^2 - 0.25 > 0")
    code = run(["verify", "--surface", surface, "--samples", "5", "--seed", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["geodesic"]["pass"] is True


def test_verify_reports_a_geodesic_leaving_the_chart(tmp_path, capsys):
    # At seed 3 the suite starts next to the hole and runs into it.
    surface = _config_path(tmp_path, "annulus", "x1^2 + x2^2", "x1^2 + x2^2 - 0.25 > 0")
    code = run(["verify", "--surface", surface, "--samples", "5", "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["lift"]["pass"] is True
    assert report["geodesic"]["checks"] == [
        {
            "name": "geodesic_left_chart",
            "t": 0.074,
            "point": [-0.49179516813780966, 0.09008933025936011],
            "pass": False,
        }
    ]
    assert report["geodesic"]["pass"] is False


@pytest.mark.parametrize(
    "lam, start, error",
    [
        # The base flow reads the order-3 frame fields, so it fails as
        # ``geodesic`` does: the jet of log(x1) at x1 = 1e-155 underflows in
        # its third partial; that error and an overflow of e^-lambda name the point.
        ("log(x1)", "1e-155,0.5", "log underflows at value 1e-155 at point (1e-155, 0.5)"),
        ("-1000 + 0*x1", "0,0", "exp overflows at value 1000.0 at point (0.0, 0.0)"),
        # e^-lambda c112 = e^700 * 1e10 overflows while every partial is finite.
        ("-700 + 1e10*x2", "0,0", "non-finite frame fields at point (0.0, 0.0)"),
    ],
    ids=["log", "exp", "steep"],
)
def test_base_geodesic_non_finite_frame_fields_exit_three(tmp_path, capsys, lam, start, error):
    surface = _config_path(tmp_path, "frame", lam)
    code = run(["base-geodesic", "--surface", surface, "--start", start,
                "--velocity", "1,0", "--t-max", "0.002", "--step", "0.001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {error}", "last valid t: 0.0"]


@pytest.mark.parametrize(
    "lam, value",
    [("x1^(1e200*1e200)", "inf"), ("x1^(1e200*1e200 - 1e200*1e200)", "nan")],
)
def test_non_finite_constant_exponent_exits_three(tmp_path, capsys, lam, value):
    surface = _config_path(tmp_path, "power", lam)
    code = run(["surface", "info", "--surface", surface, "--at", "1,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert f"non-finite constant exponent {value}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fn", ["log", "sqrt"])
def test_underflowed_derivative_power_exits_three(tmp_path, capsys, fn):
    surface = _config_path(tmp_path, fn, f"{fn}(1e-200 + 0*x1)")
    code = run(["surface", "info", "--surface", surface, "--at", "1,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{fn} underflows at value 1e-200" in captured.err


def test_mid_flight_failure_prints_last_valid_time(tmp_path, capsys):
    surface = _config_path(tmp_path, "disk", "x1^2 + x2^2", "1 - x1^2 - x2^2 > 0")
    code = run(["geodesic", "--surface", surface, "--start", "0.5,0,0",
                "--velocity", "0.6,0,0.8", "--t-max", "3", "--step", "0.01"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "last valid t: 1.06"


_SPHERE = "log(2) - log(1 + x1^2 + x2^2)"
_SUITE_VELOCITY = (0.6, 0.1 * random.Random(0).random(), 0.8)  # verify's first geodesic, seed 0


def _pinhole_sphere(tmp_path, where: str) -> tuple[str, float, list]:
    """The sphere with a point missing where verify's first suite geodesic at
    seed 0 ends: a disc of radius 1e-11 left out of the ``guard``, or a zero of
    a log in ``lambda``.  Also the time of the sample before that end point."""
    s0 = geodesic.LiftState(0.0, 0.0, 0.0, *_SUITE_VELOCITY)
    trajectory = geodesic.integrate_lift(catalog("sphere"), s0, t_max=5.0, h=1e-3)
    return _pinhole(tmp_path, trajectory, where)


def _pinhole(tmp_path, trajectory, where: str) -> tuple[str, float, list]:
    """The sphere with a point missing where ``trajectory`` ends, as ``_pinhole_sphere``
    describes; also the time of the sample before that end point."""
    end = list(trajectory.states[-1][:2])
    r2 = f"(x1 - ({end[0]!r}))^2 + (x2 - ({end[1]!r}))^2"
    config = {"name": "pinhole", "lambda": _SPHERE, "guard": f"{r2} - 1e-22 > 0"}
    if where == "lambda":
        config = {"name": "pinhole", "lambda": f"{_SPHERE} + 0*log({r2})"}
    path = tmp_path / "pinhole.json"
    path.write_text(json.dumps({**config, "window": [[-2, 2], [-2, 2]]}))
    return str(path), trajectory.t[-2], end


def test_verify_reports_a_final_sample_outside_the_chart(tmp_path, capsys):
    # Only the final sample of the geodesic leaves the chart; its stage 1,
    # which starts no step, is the last evaluation of the run.
    surface, last_valid_t, end = _pinhole_sphere(tmp_path, "guard")
    assert run(["verify", "--surface", surface, "--samples", "2", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    suite = json.loads(captured.out)["geodesic"]
    assert suite["pass"] is False and suite["checks"] == [
        {"name": "geodesic_left_chart", "t": last_valid_t, "point": end, "pass": False}
    ]


@pytest.mark.parametrize("where", ["guard", "lambda"])
def test_a_failure_at_the_final_sample_prints_the_last_valid_time(tmp_path, capsys, where):
    surface, last_valid_t, _ = _pinhole_sphere(tmp_path, where)
    velocity = ",".join(map(repr, _SUITE_VELOCITY))
    assert run(["geodesic", "--surface", surface, "--start", "0,0,0", "--velocity", velocity,
                "--t-max", "5", "--step", "0.001"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = {"guard": "outside chart domain", "lambda": "log of non-positive value 0.0"}[where]
    assert error in captured.err.splitlines()[0]
    assert captured.err.splitlines()[-1] == f"last valid t: {last_valid_t!r}"


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_base_run_whose_final_sample_alone_leaves_the_chart_exits_three(tmp_path, capsys,
                                                                           method):
    start = geodesic.BaseState(0.0, 0.0, 0.6, 0.1)
    trajectory = geodesic.integrate_base(catalog("sphere"), start, 1.0, 0.01, method)
    surface, last_valid_t, end = _pinhole(tmp_path, trajectory, "guard")
    assert run(["base-geodesic", "--surface", surface, "--start=0,0", "--velocity=0.6,0.1",
                "--t-max", "1", "--step", "0.01", "--method", method]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, *rest = captured.err.splitlines()
    point = f"({end[0]!r}, {end[1]!r})"
    assert error.startswith(f"error: point {point} outside chart domain: ")
    assert rest == [f"offending point: {point}", f"last valid t: {last_valid_t!r}"]


def test_pointwise_failure_prints_no_time(capsys):
    code = run(["surface", "info", "--surface", "halfplane", "--at", "0,-1"])
    assert code == 3
    assert "last valid t" not in capsys.readouterr().err


def test_non_finite_frame_fields_exit_three(tmp_path, capsys):
    # The third x1 partial of log(x1) at x1 = 1e-103 overflows, and the
    # other third partials of its order-3 jet are NaN.
    surface = _config_path(tmp_path, "log", "log(x1)")
    code = run(["geodesic", "--surface", surface, "--start", "1e-103,0.5,0",
                "--velocity", "0.6,0,0.8", "--t-max", "0.002", "--step", "0.001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: non-finite frame fields at point (1e-103, 0.5)",
        "last valid t: 0.0",
    ]


def test_lift_table_non_finite_geometry_exits_three(tmp_path, capsys):
    surface = _config_path(tmp_path, "log", "log(x1)")
    code = run(["lift", "table", "--surface", surface, "--at", "1e-80,0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "non-finite geometry at point (1e-80, 0.5)" in captured.err


@pytest.mark.parametrize("command", [("surface", "info"), ("lift", "table")])
def test_point_query_evaluates_the_guard_and_lambda_once(monkeypatch, capsys, command):
    orders = []
    evaluate = surface_module.eval_jet

    def counting(expr, point, order):
        orders.append(order)
        return evaluate(expr, point, order)

    monkeypatch.setattr(surface_module, "eval_jet", counting)
    assert run([*command, "--surface", "halfplane", "--at", "0.4,1.3"]) == 0
    assert orders == [0, 4]  # the guard x2 > 0, then lambda


_WONG = ["geodesic", "--surface", "sphere", "--start", "0.3,0.2,0",
         "--velocity", "0.6,0.1,0.8", "--t-max", "0.003", "--step", "0.001"]
_REUSE_SEQUENCE = [
    ["geodesic", "--surface"],
    ["--help"],
    [*_WONG, "--wong"],
    _WONG,
    ["surface", "info", "--surface", "sphere", "--at", "0.3,0.2"],
]


def test_reused_parser_answers_like_a_fresh_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    env = dict(os.environ)
    src = str(Path(wagnerlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "import sys; from wagnerlift.cli import run; sys.exit(run(sys.argv[1:]))"
    outcomes = []
    for argv in _REUSE_SEQUENCE:
        code = run(argv)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [code for code, _, _ in outcomes] == [2, 0, 0, 0, 0]
    assert outcomes[2][1] != outcomes[3][1]  # the --wong column did not stick
    golden = Path(__file__).parent / "data" / "surface_info_sphere.txt"
    assert outcomes[-1][1].encode() == golden.read_bytes()


_ONE_STEP = ["--velocity", "1,0,0", "--t-max", "0.01", "--step", "0.01"]


@pytest.mark.parametrize("command", ["geodesic", "base-geodesic"])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_step_count_that_is_not_finite_exits_two(capsys, command, method):
    start, velocity = ("0,0,0", "1,0,0") if command == "geodesic" else ("0,0", "1,0")
    code = run([command, "--surface", "sphere", "--start", start, "--velocity", velocity,
                "--t-max", "1e308", "--step", "1e-308", "--method", method])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--t-max / --step must be finite" in captured.err


@pytest.mark.parametrize("command", ["geodesic", "base-geodesic"])
def test_more_than_a_million_steps_exits_two(capsys, command):
    # 10^9 samples would need about 1.7 TB; the run must stop before it starts.
    start, velocity = ("0,0,0", "1,0,0") if command == "geodesic" else ("0,0", "1,0")
    code = run([command, "--surface", "sphere", "--start", start, "--velocity", velocity,
                "--t-max", "1e6", "--step", "1e-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "at most 1e+06, got 1000000.0 / 0.001" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--surface", "sphere", "--start=0,0,nan", *_ONE_STEP],
        ["geodesic", "--surface", "sphere", "--start=0,0,0", "--velocity=1,inf,0",
         "--t-max", "0.01", "--step", "0.01"],
        ["base-geodesic", "--surface", "sphere", "--start=-inf,0", "--velocity=1,0",
         "--t-max", "0.01", "--step", "0.01"],
        ["surface", "info", "--surface", "sphere", "--at=nan,0"],
        ["lift", "table", "--surface", "sphere", "--at=0,inf"],
    ],
)
def test_non_finite_components_exit_two(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "needs finite numbers" in captured.err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_tolerance_must_be_finite_positive(capsys, tol):
    code = run(["verify", "--surface", "sphere", "--samples", "2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tol must be a finite positive number" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_unwritable_out_exits_two(tmp_path, capsys, fmt, where):
    code = run(["geodesic", "--surface", "sphere", "--start", "0,0,0", *_ONE_STEP,
                "--format", fmt, "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")
    assert "Traceback" not in captured.err


def test_failed_run_writes_no_out_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["geodesic", "--surface", "halfplane", "--start", "0,-1,0", *_ONE_STEP,
                "--out", str(out)])
    capsys.readouterr()
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowed_speed_exits_three_and_writes_nothing(tmp_path, capsys, fmt):
    # A fast fiber rotation: every state is finite, but |Q|^2 overflows.
    out = tmp_path / "x.out"
    code = run(["geodesic", "--surface", "halfplane", "--start", "0,1,0",
                "--velocity", "0,0,1e200", "--t-max", "0.02", "--step", "0.01",
                "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: non-finite value in the sample at t=0.0, point (0.0, 1.0)\n"
    assert not out.exists()


def test_overflowed_phi_exits_three(capsys):
    code = run(["geodesic", "--surface", "halfplane", "--start", "0,1,1.7e308",
                "--velocity", "0,0,-1", "--t-max", "1e308", "--step", "1e308"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "non-finite value in the sample at t=1e+308" in captured.err


def test_surface_info_non_finite_lambda_exits_three(capsys):
    code = run(["surface", "info", "--surface", "bump", "--at", "0,1e200"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: non-finite lambda at point (0.0, 1e+200)\n"


def test_final_sample_with_vanishing_curvature_exits_three(capsys):
    # rk45 takes its one step to t = 1e-308, and that step's first stage finds
    # |K| below the threshold at the start point, so the run exits 3 before
    # any row is written.  The check on the final sample alone is pinned below.
    code = run(["geodesic", "--surface", "sphere", "--start=0,120548256.0,0",
                "--velocity=0,0,0", "--t-max=1e-308", "--step=0.01", "--method", "rk45"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "below the singularity threshold" in captured.err


def test_vanishing_curvature_at_the_final_sample_alone_exits_three(capsys):
    # Near x2 = 1.2e8 the sphere's Laplacian rounds to zero at some floats and
    # not at their neighbours.  Every stage of this one rk4 step passes the
    # K test; the final sample's own stage 1 does not, so the last valid time
    # is that of the sample before it.
    code = run(["geodesic", "--surface", "sphere", "--start=0,120548255.99999931,0",
                "--velocity=0,1e-23,0", "--t-max=1", "--step=1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "at point (0.0, 120548255.9999994) is below the singularity threshold" in captured.err
    assert captured.err.splitlines()[-1] == "last valid t: 0.0"


def test_wong_on_a_trajectory_too_short_exits_two(capsys):
    code = run(["geodesic", "--surface", "sphere", "--start", "0,0,0", *_ONE_STEP, "--wong"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--wong needs a trajectory of at least 3 samples" in captured.err


def _joined(argv):
    """``argv`` with each number list written as ``--at=...``."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--at", "--start", "--velocity"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "table", "--surface", "bump", "--at", "-0.4,0.25"],
        ["surface", "info", "--surface", "bump", "--at", "-.4,-0.25"],
        ["geodesic", "--surface", "bump", "--start", "-0.1,-0.2,-1", "--velocity", "-0.6,0,-0.8",
         "--t-max", "0.05", "--step", "0.01", "--wong"],
        ["base-geodesic", "--surface", "sphere", "--start", "-1e-1,0.2", "--velocity", "-1,0",
         "--t-max", "0.05", "--step", "0.01", "--format", "json"],
    ],
)
def test_a_negative_number_list_may_follow_its_option(argv, capsys):
    assert run(argv) == 0
    separate = capsys.readouterr()
    assert run(_joined(argv)) == 0
    assert capsys.readouterr() == separate
    assert separate.err == ""


@pytest.mark.parametrize("value", ["-0.4", "-0.4,0.25,1", "-x,0.25", "-0.4,zero", "-", "--0.4,1"])
def test_a_malformed_negative_number_list_exits_two(value, capsys):
    assert run(["lift", "table", "--surface", "bump", "--at", value]) == 2
    assert capsys.readouterr().out == ""


def test_a_closed_stdout_exits_three_without_a_traceback():
    env = dict(os.environ)
    src = str(Path(wagnerlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # About 0.9 MB of CSV, far more than a pipe holds, so the write meets the
    # pipe after the reader has closed it.
    argv = ["geodesic", "--surface", "bump", "--start", "0.1,0.2,0", "--velocity", "0.6,0,0.8",
            "--t-max", "5", "--step", "0.001"]
    # Unbuffered (python -u), stdout is a raw file, whose short write to a
    # closed pipe would go unreported; buffered, the flush meets the pipe.
    for unbuffered in (True, False):
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen([sys.executable, "-m", "wagnerlift.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"t,x1,x2,phi,")
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait()
        assert code == 3, unbuffered
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ("1", None))
@pytest.mark.parametrize("argv", [
    ["lift", "table", "--surface", "bump", "--at", "0,0"],  # a few hundred bytes
    ["geodesic", "--surface", "bump", "--start", "0.1,0.2,0", "--velocity", "0.6,0,0.8",
     "--t-max", "0.2", "--step", "0.001"],  # about 36 KB
], ids=["lift-table", "geodesic"])
def test_a_full_stdout_exits_three_without_a_traceback(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    src = str(Path(wagnerlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "wagnerlift.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 3
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr


@pytest.mark.parametrize("unbuffered", ("1", None))
def test_main_writes_the_whole_output_buffered_or_not(unbuffered, tmp_path):
    # The stdout of ``main`` holds the bytes that ``--out`` writes, under python -u too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    src = str(Path(wagnerlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["geodesic", "--surface", "bump", "--start", "0.1,0.2,0", "--velocity", "0.6,0,0.8",
            "--t-max", "0.2", "--step", "0.001", "--out", str(tmp_path / "out.csv")]
    done = subprocess.run([sys.executable, "-m", "wagnerlift.cli", *argv[:-2]], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0 and done.stderr == b""
    assert run(argv) == 0
    assert done.stdout == (tmp_path / "out.csv").read_bytes()


# -- parser definitions ---------------------------------------------------------------


def _reference_parser():
    """The parser as it was defined one command at a time, before the commands
    of one shape shared a loop; its texts are the reference."""
    from wagnerlift.cli import _floats, _positive

    parser = argparse.ArgumentParser(
        prog="wagnerlift",
        description="Wagner lift of a 2-D metric: frame-bundle geometry and geodesics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    surface_sub = commands.add_parser("surface", help="base-surface queries").add_subparsers(
        dest="subcommand", required=True)
    info = surface_sub.add_parser("info", help="print frame geometry at a point")
    info.add_argument("--surface", required=True)
    info.add_argument("--at", required=True, type=_floats(2, "--at"), metavar="X1,X2")
    lift_sub = commands.add_parser("lift", help="lifted-geometry queries").add_subparsers(
        dest="subcommand", required=True)
    table = lift_sub.add_parser("table", help="print the lifted tables at a point")
    table.add_argument("--surface", required=True)
    table.add_argument("--at", required=True, type=_floats(2, "--at"), metavar="X1,X2")
    geo = commands.add_parser("geodesic", help="integrate a lifted geodesic")
    geo.add_argument("--surface", required=True)
    geo.add_argument("--start", required=True, type=_floats(3, "--start"), metavar="X1,X2,PHI")
    geo.add_argument("--velocity", required=True, type=_floats(3, "--velocity"),
                     metavar="Q1,Q2,Q3")
    geo.add_argument("--t-max", required=True, type=_positive("--t-max"))
    geo.add_argument("--step", required=True, type=_positive("--step"))
    geo.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    geo.add_argument("--wong", action="store_true", help="attach the Wong residual column")
    geo.add_argument("--format", choices=("csv", "json"), default="csv")
    geo.add_argument("--out", default=None, help="output path (stdout when omitted)")
    base = commands.add_parser("base-geodesic", help="integrate a base geodesic")
    base.add_argument("--surface", required=True)
    base.add_argument("--start", required=True, type=_floats(2, "--start"), metavar="X1,X2")
    base.add_argument("--velocity", required=True, type=_floats(2, "--velocity"),
                      metavar="P1,P2")
    base.add_argument("--t-max", required=True, type=_positive("--t-max"))
    base.add_argument("--step", required=True, type=_positive("--step"))
    base.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    base.add_argument("--format", choices=("csv", "json"), default="csv")
    base.add_argument("--out", default=None)
    verify = commands.add_parser(
        "verify", help="cross-validate the lift and the geodesic invariants"
    )
    verify.add_argument("--surface", required=True)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=_positive("--tol"), default=1e-8)
    return parser


def _geodesic_argvs():
    full = {
        "geodesic": ["--surface", "sphere", "--start", "0,0,0", "--velocity", "1,0,0",
                     "--t-max", "1", "--step", "0.1"],
        "base-geodesic": ["--surface", "sphere", "--start", "0,0", "--velocity", "1,0",
                          "--t-max", "1", "--step", "0.1"],
    }
    for command, args in full.items():
        yield [command, "--help"]
        yield [command]
        for k in range(0, len(args), 2):  # each required option left out
            yield [command, *args[:k], *args[k + 2:]]
        bad = {
            "--start": ["0,0", "0,0,0,0", "a,0", "nan,0", "-0.5,inf"],
            "--velocity": ["1", "1,0,0,0", "x,1", "1e999,0"],
            "--t-max": ["-1", "0", "nan", "inf", "one"],
            "--step": ["0", "-0.1", "x"],
        }
        for option, values in bad.items():
            i = args.index(option) + 1
            for value in values:
                yield [command, *args[:i], value, *args[i + 1:]]
        for extra in (["--method", "euler"], ["--format", "xml"], ["--out"], ["--bogus"],
                      ["--wong"], ["--method", "rk45", "--format", "json", "--out", "o.csv"]):
            yield [command, *args, *extra]
    yield []
    yield ["--help"]


@pytest.mark.parametrize("argv", list(_geodesic_argvs()), ids=" ".join)
def test_geodesic_parsers_keep_their_usage_and_error_texts(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = cli._join_negative_values(argv)
    try:
        expected = (0, vars(_reference_parser().parse_args(argv)))
    except SystemExit as leave:
        expected = (leave.code or 0, None)
    expected_out, expected_err = capsys.readouterr()
    try:
        got = (0, vars(cli._build_parser().parse_args(argv)))
    except SystemExit as leave:
        got = (leave.code or 0, None)
    out, err = capsys.readouterr()
    assert got == expected
    assert err == expected_err
    if argv == ["base-geodesic", "--help"]:
        # The one change: base-geodesic's --out shows the help text geodesic's has.
        changed = [(a, b) for a, b in zip(expected_out.splitlines(), out.splitlines()) if a != b]
        assert len(out.splitlines()) == len(expected_out.splitlines())
        assert len(changed) == 1 and changed[0][0] == "  --out OUT"
        assert re.fullmatch(r"  --out OUT +output path \(stdout when omitted\)", changed[0][1])
    else:
        assert out == expected_out
