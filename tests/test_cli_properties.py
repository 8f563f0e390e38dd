"""Property test of the CLI contract: for any argument vector of the five
commands, the exit code is 0, 1, 2 or 3, no traceback escapes, a
successful run prints no NaN or infinity, and ``verify`` exits 1 exactly when
one of its checks failed.

Every generated case stays small: a fixed-step run takes at most 10^3 steps,
an adaptive run integrates a velocity with components of size <= 1 over
t <= 2, and verify samples at most 5 points.

Generated surface configs cover the parser's grammar: sums, products and
integer and real powers of x1, x2 and constants, inside the ten functions,
nested to depth 3.  ``surface info`` and ``lift table`` at a point of the
window exit 0, 2 or 3 on each, and print only finite numbers on exit 0.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pytest

from wagnerlift.cli import run
from wagnerlift.jets import FUNCTIONS

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


# Surface configs that exit 2: not JSON, not UTF-8, nested past the JSON
# decoder, not a mapping, a window that is not two pairs of finite numbers,
# and a lambda too deep to lower.
_MALFORMED = {
    "long_sum": json.dumps({"name": "s", "lambda": "x1^2" + " + x2" * 3000}),
    "long_product": json.dumps({"name": "p", "lambda": "x1^2" + " * x2" * 3000}),
    "broken": "{not json", "undecodable": b"\xff\xfe", "deep": "[" * 10**5 + "]" * 10**5,
    "list": "[1, 2]", "string": '"sphere"',
    "window5": '{"name": "w", "lambda": "x1^2 + x2^2", "window": 5}',
    "window_null": '{"name": "w", "lambda": "x1^2 + x2^2", "window": [[-1, 1], [0, null]]}',
    "window_inf": '{"name": "w", "lambda": "x1^2 + x2^2", "window": [[-1e400, 1], [-1, 1]]}',
    "window_wide": '{"name": "w", "lambda": "x1^2 + x2^2", "window": [[-1e308, 1e308], [-1, 1]]}',
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    surfaces = ["sphere", "halfplane", "bump", "nosuch"]
    for name, config in _CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(config))
        surfaces.append(str(path))
    for name, content in _MALFORMED.items():
        path = root / f"{name}.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        surfaces.append(str(path))
    surfaces.append("s" * 5000)  # a name too long for the file system
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


def test_every_malformed_surface_exits_two(files):
    for spec in files[0][-len(_MALFORMED) - 1 :]:
        for args in (["surface", "info", "--at=0,0"], ["verify", "--samples", "2"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([*args, "--surface", spec])
            assert code == 2 and err.getvalue().startswith("error: "), spec[:80]


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


_LEAVES = st.sampled_from(["x1", "x2", "pi", "e", "0", "0.5", "2", "3.7", "0.001"])
_EXPONENTS = st.sampled_from(["2", "3", "-1", "0", "0.5", "1.5", "-2.5"])
_FUNCTIONS = st.sampled_from(sorted(FUNCTIONS))
# A flat or linear lambda has K = 0 (exit 3); on the bump most configs are curved.
_ON_BUMP = "x1^2 + x2^2 + 0.1 * {}"


def _expression_text(depth: int):
    """Expression text in the parser's grammar, nested at most ``depth`` deep."""
    if depth == 0:
        return _LEAVES
    inner = _expression_text(depth - 1)
    return st.one_of(
        _LEAVES,
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(" ".join).map("({})".format),
        st.tuples(inner, inner).map("({0[0]}) * ({0[1]})".format),
        st.tuples(inner, _EXPONENTS).map("({0[0]})^{0[1]}".format),
        st.tuples(_FUNCTIONS, inner).map("{0[0]}({0[1]})".format),
    )


def _lambda_text(depth: int):
    """``_expression_text`` that names x1 or x2: a constant text has no
    partials to test and is flat on every surface it defines."""
    return _expression_text(depth).filter(lambda text: "x1" in text or "x2" in text)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated_surfaces") / "surface.json"


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_lambda_text(3), _lambda_text(3).map(_ON_BUMP.format)),
       at=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_generated_surface_configs_keep_the_exit_contract(config_path, text, at):
    config_path.write_text(json.dumps({"name": "generated", "lambda": text, "guard": "all"}))
    for command in (["surface", "info"], ["lift", "table"]):
        args = [*command, "--surface", str(config_path), f"--at={at[0]!r},{at[1]!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)  # an exception escaping here is a traceback
        assert code in (0, 2, 3), (text, args)
        assert "Traceback" not in err.getvalue(), (text, args)
        if code == 0:
            printed = [line for line in out.getvalue().lower().splitlines()
                       if not line.startswith("lambda_expr:")]
            assert not any("nan" in line or "inf" in line for line in printed), (text, args)
