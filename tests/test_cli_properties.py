"""Property test of the CLI contract: for any argument vector of the five
commands, the exit code is 0, 1, 2 or 3, no traceback escapes, a
successful run prints no NaN or infinity, and ``verify`` exits 1 exactly when
one of its checks failed.

Every generated case stays small: a fixed-step run takes at most 10^3 steps,
an adaptive run integrates a velocity with components of size <= 1 over
t <= 2, and verify samples at most 5 points.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pytest

from wagnerlift.cli import run

_SPECIAL = ["-0", "1e-308", "5e-324", "1e200", "1e308", "-1e308", "nan", "inf", "-inf", "1e", "x"]
# Mostly ordinary values, so that most runs get past argument checking.
numbers = st.one_of(
    st.sampled_from(["0", "0.3", "-0.7", "1", "2.5"] * 3 + _SPECIAL), st.floats().map(repr)
)
times = st.one_of(st.sampled_from(["0.01", "0.003", "0.001", "0.3", "1"] * 4 + _SPECIAL), numbers)
moderate = st.sampled_from(["0", "0.3", "-0.7", "1", "1e-308", "nan", "inf"])

_CONFIGS = {
    "flat": {"name": "flat", "lambda": "0", "guard": "all"},
    "log": {"name": "log", "lambda": "log(x1)", "guard": "x1 > 0"},
    "steep": {"name": "steep", "lambda": "-1000*x1^2", "guard": "all"},
    "disk": {"name": "disk", "lambda": "x1^2 + x2^2", "guard": "1 - x1^2 - x2^2 > 0"},
    "nokey": {"name": "nokey"},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    surfaces = ["sphere", "halfplane", "bump", "nosuch"]
    for name, config in _CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(config))
        surfaces.append(str(path))
    broken = root / "broken.json"
    broken.write_text("{not json")
    surfaces.append(str(broken))
    outs = [None, str(root / "out.txt"), str(root / "missing" / "out.txt"), str(root)]
    return surfaces, outs


def _vector(count, parts=numbers):
    return st.lists(parts, min_size=count, max_size=count).map(",".join)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _bounded(method, t_max, step):
    """Whether the run asks for at most 10^3 fixed steps, or for an adaptive
    run over t <= 2; invalid numbers end the run before it starts."""
    t, h = _float(t_max), _float(step)
    if t is None or h is None or not (0.0 < t < float("inf") and 0.0 < h < float("inf")):
        return True
    if method == "rk45":
        return t <= 2.0
    return t / h == float("inf") or t / h <= 1e3


@st.composite
def argv(draw, surfaces, outs):
    command = draw(st.sampled_from(["surface", "lift", "geodesic", "base-geodesic", "verify"]))
    surface = draw(st.sampled_from(surfaces[:3] * 3 + surfaces[3:]))
    if command in ("surface", "lift"):
        sub = "info" if command == "surface" else "table"
        return [command, sub, "--surface", surface, f"--at={draw(_vector(2))}"]
    if command == "verify":
        args = ["verify", "--surface", surface, "--samples", str(draw(st.integers(-1, 5)))]
        args += ["--seed", str(draw(st.integers(0, 9))), "--tol", draw(numbers)]
        return args
    size = 3 if command == "geodesic" else 2
    method = draw(st.sampled_from(["rk4", "rk45"]))
    velocity = draw(_vector(size, moderate if method == "rk45" else numbers))
    t_max, step = draw(times), draw(times)
    assume(_bounded(method, t_max, step))
    args = [command, "--surface", surface, f"--start={draw(_vector(size))}",
            f"--velocity={velocity}", f"--t-max={t_max}", f"--step={step}", "--method", method]
    if command == "geodesic" and draw(st.booleans()):
        args.append("--wong")
    args += ["--format", draw(st.sampled_from(["csv", "json"]))]
    out = draw(st.sampled_from(outs))
    return args if out is None else args + ["--out", out]


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_every_argument_vector_keeps_the_exit_contract(files, data):
    args = data.draw(argv(*files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)  # an exception escaping here is a traceback
    assert code in (0, 1, 2, 3), args
    assert "Traceback" not in err.getvalue(), args
    if args[0] == "verify" and code in (0, 1):
        # Exit 1 means exactly that a check failed.
        report = json.loads(out.getvalue())
        checks = report["lift"]["checks"] + report["geodesic"]["checks"]
        assert (code == 1) == any(check["pass"] is False for check in checks), args
        assert (code == 0) == (report["pass"] is True), args
    if code == 0 and args[0] != "verify":
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text, args
