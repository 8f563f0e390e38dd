"""Command-line interface tests: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wagnerlift
from wagnerlift import surface as surface_module
from wagnerlift.cli import run

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


def test_frame_exp_overflow_exits_three(tmp_path, capsys):
    surface = _config_path(tmp_path, "steep", "-1000*x1^2")
    code = run(["geodesic", "--surface", surface, "--start", "1,0,0", "--velocity", "1,0,0",
                "--t-max", "0.1", "--step", "0.1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "exp overflows" in captured.err
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


def test_base_geodesic_non_finite_frame_fields_exit_three(tmp_path, capsys):
    # The order-2 jet of log(x1) at x1 = 1e-155 is all NaN.
    surface = _config_path(tmp_path, "log", "log(x1)")
    code = run(["base-geodesic", "--surface", surface, "--start", "1e-155,0.5",
                "--velocity", "1,0", "--t-max", "0.002", "--step", "0.001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: non-finite frame fields at point (1e-155, 0.5)",
        "last valid t: 0.0",
    ]


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


def test_pointwise_failure_prints_no_time(capsys):
    code = run(["surface", "info", "--surface", "halfplane", "--at", "0,-1"])
    assert code == 3
    assert "last valid t" not in capsys.readouterr().err


def test_non_finite_frame_fields_exit_three(tmp_path, capsys):
    # The order-3 jet of log(x1) at x1 = 1e-103 is all NaN.
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
    # K test; the final sample, which has no stage of its own, does not.
    code = run(["geodesic", "--surface", "sphere", "--start=0,120548255.99999931,0",
                "--velocity=0,1e-23,0", "--t-max=1", "--step=1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "at point (0.0, 120548255.9999994) is below the singularity threshold" in captured.err
    assert "last valid t" not in captured.err


def test_wong_on_a_trajectory_too_short_exits_two(capsys):
    code = run(["geodesic", "--surface", "sphere", "--start", "0,0,0", *_ONE_STEP, "--wong"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--wong needs a trajectory of at least 3 samples" in captured.err
