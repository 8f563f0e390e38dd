"""Command-line front end.

Subcommands:

    surface info   --surface S --at X1,X2
    lift table     --surface S --at X1,X2
    geodesic       --surface S --start X1,X2,PHI --velocity Q1,Q2,Q3
                   --t-max T --step H [--method rk4|rk45] [--wong]
                   [--format csv|json] [--out PATH]
    base-geodesic  --surface S --start X1,X2 --velocity P1,P2 ...
    verify         --surface S --samples N --seed SEED --tol TOL

``--surface`` is a catalog name (sphere, halfplane, bump) or the path of a
JSON config file with keys name, lambda, guard.  Exit codes: 0 success,
1 failed verification (a verify geodesic leaving the chart is a failed
check), 2 argument or config errors (a non-finite number or --t-max /
--step, a --tol <= 0, an --out that cannot be written, a guard that holds
nowhere in the sampling window), 3 runtime evaluation errors (singular
curvature, a chart-domain violation with the offending point printed to
stderr, a value leaving the real domain or a non-finite value to write).  A
geodesic that fails mid-flight also prints the time of its last valid sample;
a failed run writes no output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from pathlib import Path

from . import connection, geodesic, lift, verify
from .expr import format_expr
from .jets import DomainError
from .surface import (
    ChartDomainError,
    ConformalSurface,
    SamplingError,
    catalog,
    catalog_names,
    gauss_curvature,
    surface_jets,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class _UsageError(ValueError):
    pass


def _floats(count: int, what: str):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{what} needs {count} comma-separated numbers, got {text!r}"
            )
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number in {what}: {text!r}") from None
        if not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(f"{what} needs finite numbers, got {text!r}")
        return values

    return parse


def _positive(what: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad number for {what}: {text!r}") from None
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(
                f"{what} must be a finite positive number, got {text!r}"
            )
        return value

    return parse


def _load_surface(spec: str) -> ConformalSurface:
    path = Path(spec)
    if path.is_file():
        try:
            config = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise _UsageError(f"surface config {spec!r} is not valid JSON: {err}") from None
        try:
            return ConformalSurface.from_config(config)
        except (ValueError, KeyError) as err:
            raise _UsageError(f"bad surface config {spec!r}: {err}") from None
    try:
        return catalog(spec)
    except KeyError:
        raise _UsageError(
            f"{spec!r} is neither a catalog surface ({', '.join(catalog_names())}) "
            "nor a readable config file"
        ) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="wagnerlift",
        description="Wagner lift of a 2-D metric: frame-bundle geometry and geodesics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    surface_cmd = commands.add_parser("surface", help="base-surface queries")
    surface_sub = surface_cmd.add_subparsers(dest="subcommand", required=True)
    info = surface_sub.add_parser("info", help="print frame geometry at a point")
    info.add_argument("--surface", required=True)
    info.add_argument("--at", required=True, type=_floats(2, "--at"), metavar="X1,X2")

    lift_cmd = commands.add_parser("lift", help="lifted-geometry queries")
    lift_sub = lift_cmd.add_subparsers(dest="subcommand", required=True)
    table = lift_sub.add_parser("table", help="print the lifted tables at a point")
    table.add_argument("--surface", required=True)
    table.add_argument("--at", required=True, type=_floats(2, "--at"), metavar="X1,X2")

    geo = commands.add_parser("geodesic", help="integrate a lifted geodesic")
    geo.add_argument("--surface", required=True)
    geo.add_argument("--start", required=True, type=_floats(3, "--start"), metavar="X1,X2,PHI")
    geo.add_argument(
        "--velocity", required=True, type=_floats(3, "--velocity"), metavar="Q1,Q2,Q3"
    )
    geo.add_argument("--t-max", required=True, type=_positive("--t-max"))
    geo.add_argument("--step", required=True, type=_positive("--step"))
    geo.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    geo.add_argument("--wong", action="store_true", help="attach the Wong residual column")
    geo.add_argument("--format", choices=("csv", "json"), default="csv")
    geo.add_argument("--out", default=None, help="output path (stdout when omitted)")

    base = commands.add_parser("base-geodesic", help="integrate a base geodesic")
    base.add_argument("--surface", required=True)
    base.add_argument("--start", required=True, type=_floats(2, "--start"), metavar="X1,X2")
    base.add_argument(
        "--velocity", required=True, type=_floats(2, "--velocity"), metavar="P1,P2"
    )
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


def _num(value: float) -> str:
    return format(value + 0.0, ".12g")  # +0.0 normalises negative zero


def _run_surface_info(ns) -> int:
    surf = _load_surface(ns.surface)
    x = ns.at
    geom = gauss_curvature(surf, x)
    lam = surface_jets(surf, x, 4).lam.value  # the evaluation gauss_curvature made
    if not math.isfinite(lam):
        raise DomainError(f"non-finite lambda at point {x!r}")
    print(f"surface: {surf.name}")
    print(f"point: ({_num(x[0])}, {_num(x[1])})")
    print(f"lambda_expr: {format_expr(surf.lam)}")
    print(f"lambda: {_num(lam)}")
    print(f"c1_12: {_num(geom.c112)}")
    print(f"c2_12: {_num(geom.c212)}")
    print(f"K: {_num(geom.K)}")
    print(f"e1K: {_num(geom.e1K)}")
    print(f"e2K: {_num(geom.e2K)}")
    return EXIT_OK


def _run_lift_table(ns) -> int:
    surf = _load_surface(ns.surface)
    x = ns.at
    frame = lift.lifted_frame(surf, x)
    structure = lift.lifted_structure(surf, x)
    gamma = lift.lifted_connection(surf, x)
    curv = lift.lifted_curvature_closed(surf, x)

    print(f"surface: {surf.name}")
    print(f"point: ({_num(x[0])}, {_num(x[1])})")
    print("lifted frame (rows E1,E2,E3 in basis d1,d2,dphi):")
    for row in frame.matrix:
        print("  " + "  ".join(_num(v) for v in row))
    print("structure functions chat^k_ij:")
    for label, value in (
        ("chat^1_12", structure.c112),
        ("chat^2_12", structure.c212),
        ("chat^3_12", structure.c312),
        ("chat^3_13", structure.c313),
        ("chat^3_23", structure.c323),
    ):
        print(f"  {label}: {_num(value)}")
    print("connection Gamma-hat^k_ij (k-th block, rows i, columns j):")
    for k in range(1, 4):
        rows = [
            "  ".join(_num(gamma.entry(k, i, j)) for j in range(1, 4)) for i in range(1, 4)
        ]
        print(f"  k={k}:")
        for row in rows:
            print(f"    {row}")
    print("curvature components <R(Ea,Eb)Ec,Ed>:")
    for (a, b), (c, d) in (
        ((1, 2), (1, 2)),
        ((1, 2), (1, 3)),
        ((1, 2), (2, 3)),
        ((1, 3), (1, 3)),
        ((1, 3), (2, 3)),
        ((2, 3), (2, 3)),
    ):
        print(f"  M({a}{b},{c}{d}): {_num(curv.pair_component(a, b, c, d))}")
    print("sectional curvatures of the frame planes:")
    for i, j in ((1, 2), (1, 3), (2, 3)):
        print(f"  K(E{i},E{j}): {_num(connection.sectional(curv, i, j))}")
    return EXIT_OK


def _write_trajectory(trajectory, ns) -> None:
    """Format the whole output before writing any of it, so a failure writes nothing."""
    stream = sys.stdout if ns.out is None else io.StringIO()
    if ns.format == "csv":
        geodesic.write_csv(trajectory, stream)  # a single write
    else:
        stream.write(json.dumps(geodesic.to_json_dict(trajectory), indent=2) + "\n")
    if ns.out is None:
        return
    try:
        with open(ns.out, "w", newline="") as out:
            out.write(stream.getvalue())
    except OSError as err:
        raise _UsageError(f"cannot write --out {ns.out!r}: {err.strerror or err}") from None


def _run_geodesic(ns) -> int:  # also base-geodesic
    if not math.isfinite(ns.t_max / ns.step):
        raise _UsageError(f"--t-max / --step must be finite, got {ns.t_max!r} / {ns.step!r}")
    surf = _load_surface(ns.surface)
    if ns.command == "base-geodesic":
        state = geodesic.BaseState(*ns.start, *ns.velocity)
        trajectory = geodesic.integrate_base(surf, state, ns.t_max, ns.step, ns.method)
    else:
        state = geodesic.LiftState(*ns.start, *ns.velocity)
        trajectory = geodesic.integrate_lift(surf, state, ns.t_max, ns.step, ns.method)
    if getattr(ns, "wong", False):
        if len(trajectory.t) < 3:
            raise _UsageError("--wong needs a trajectory of at least 3 samples")
        residuals = geodesic.wong_residual(surf, geodesic.project(trajectory))
        trajectory = geodesic.with_wong(trajectory, residuals)
    _write_trajectory(trajectory, ns)
    return EXIT_OK


def _run_verify(ns) -> int:
    surf = _load_surface(ns.surface)
    if ns.samples < 1:
        raise _UsageError("--samples must be at least 1")
    report = verify.report(surf, ns.samples, ns.seed, ns.tol)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def run(argv: list[str]) -> int:
    """Entry point returning the exit code (0/1/2/3, see module docstring)."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as leave:
        return int(leave.code or 0)

    handlers = {
        ("surface", "info"): _run_surface_info,
        ("lift", "table"): _run_lift_table,
        ("geodesic", None): _run_geodesic,
        ("base-geodesic", None): _run_geodesic,
        ("verify", None): _run_verify,
    }
    handler = handlers[(ns.command, getattr(ns, "subcommand", None))]
    try:
        return handler(ns)
    except (_UsageError, SamplingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (lift.SingularCurvature, ChartDomainError, DomainError, geodesic.StepFailure) as err:
        print(f"error: {err}", file=sys.stderr)
        if hasattr(err, "point"):
            print(f"offending point: ({err.point[0]!r}, {err.point[1]!r})", file=sys.stderr)
        if hasattr(err, "last_valid_t"):
            print(f"last valid t: {err.last_valid_t!r}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
