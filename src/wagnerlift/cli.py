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
JSON config file with keys name, lambda, guard; ``--at -0.4,0.25`` (so also
``--start``, ``--velocity``) reads as ``--at=-0.4,0.25``.  Exit codes: 0 success,
1 failed verification (a verify geodesic leaving the chart is a failed
check), 2 argument or config errors (a non-finite number, a --t-max /
--step that is not finite or above 10^6, a --samples below 1 or above 10^6,
a --tol <= 0, an --out that cannot be written, a guard that holds nowhere in
the sampling window), 3 runtime evaluation errors (singular curvature, a
chart-domain violation with the offending point printed to stderr, a value
leaving the real domain or a non-finite value to write, an rk45 run whose
step underflows or that needs more than 10^6 steps; from ``main``, also
stdout closed or full before all output was written).  A geodesic that fails mid-flight also prints the time of
its last valid sample; a failed run writes no output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
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
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# verify keeps about 0.26 KB per sample and spends about 0.3 ms on it, so
# 10^6 samples take about 0.26 GB and five minutes.
MAX_SAMPLES = 10**6


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
    try:
        is_file = path.is_file()
        config = json.loads(path.read_text()) if is_file else None
    except (OSError, ValueError, RecursionError) as err:  # a name too long, not UTF-8 or JSON
        raise _UsageError(f"cannot read surface config {spec!r}: {err}") from None
    if is_file:
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


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--at -0.4,0.25`` as ``--at=-0.4,0.25``: argparse takes -0.4,0.25 for an option."""
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--at", "--start", "--velocity") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="wagnerlift",
        description="Wagner lift of a 2-D metric: frame-bundle geometry and geodesics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for group, name, group_help, what in (
        ("surface", "info", "base-surface queries", "print frame geometry at a point"),
        ("lift", "table", "lifted-geometry queries", "print the lifted tables at a point"),
    ):
        parent = commands.add_parser(group, help=group_help)
        query = parent.add_subparsers(dest="subcommand", required=True).add_parser(name, help=what)
        query.add_argument("--surface", required=True)
        query.add_argument("--at", required=True, type=_floats(2, "--at"), metavar="X1,X2")

    for name, what, n, start, velocity in (
        ("geodesic", "lifted", 3, "X1,X2,PHI", "Q1,Q2,Q3"),
        ("base-geodesic", "base", 2, "X1,X2", "P1,P2"),
    ):
        geo = commands.add_parser(name, help=f"integrate a {what} geodesic")
        geo.add_argument("--surface", required=True)
        for option, metavar in (("--start", start), ("--velocity", velocity)):
            geo.add_argument(option, required=True, type=_floats(n, option), metavar=metavar)
        geo.add_argument("--t-max", required=True, type=_positive("--t-max"))
        geo.add_argument("--step", required=True, type=_positive("--step"))
        geo.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
        if name == "geodesic":
            geo.add_argument("--wong", action="store_true", help="attach the Wong residual column")
        geo.add_argument("--format", choices=("csv", "json"), default="csv")
        geo.add_argument("--out", default=None, help="output path (stdout when omitted)")

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
    p = gauss_curvature(surf, x)
    if not math.isfinite(p.lam.value):
        raise DomainError(f"non-finite lambda at point {x!r}")
    lines = [f"surface: {surf.name}", f"point: ({_num(x[0])}, {_num(x[1])})",
             f"lambda_expr: {format_expr(surf.lam)}"]
    fields = (("lambda", p.lam), ("c1_12", p.c1), ("c2_12", p.c2),
              ("K", p.K), ("e1K", p.e1K), ("e2K", p.e2K))
    lines += [f"{label}: {_num(jet.value)}" for label, jet in fields]
    print("\n".join(lines))
    return EXIT_OK


def _run_lift_table(ns) -> int:
    surf = _load_surface(ns.surface)
    x = ns.at
    frame = lift.lifted_frame(surf, x)
    structure = lift.lifted_structure(surf, x)
    gamma = lift.lifted_connection(surf, x)
    curv = lift.lifted_curvature_closed(surf, x)

    lines = [f"surface: {surf.name}", f"point: ({_num(x[0])}, {_num(x[1])})",
             "lifted frame (rows E1,E2,E3 in basis d1,d2,dphi):"]
    lines += ["  " + "  ".join(_num(v) for v in row) for row in frame]
    lines.append("structure functions chat^k_ij:")
    values = structure.c112, structure.c212, structure.c312, structure.c313, structure.c323
    lines += [f"  chat^{label}: {_num(value)}"
              for label, value in zip(("1_12", "2_12", "3_12", "3_13", "3_23"), values)]
    lines.append("connection Gamma-hat^k_ij (k-th block, rows i, columns j):")
    for k in range(1, 4):
        lines.append(f"  k={k}:")
        lines += ["    " + "  ".join(_num(gamma.entry(k, i, j)) for j in range(1, 4))
                  for i in range(1, 4)]
    lines.append("curvature components <R(Ea,Eb)Ec,Ed>:")
    planes = ((1, 2), (1, 3), (2, 3))
    for n, (a, b) in enumerate(planes):
        lines += [f"  M({a}{b},{c}{d}): {_num(curv.pair_component(a, b, c, d))}"
                  for c, d in planes[n:]]
    lines.append("sectional curvatures of the frame planes:")
    lines += [f"  K(E{i},E{j}): {_num(connection.sectional(curv, i, j))}" for i, j in planes]
    print("\n".join(lines))
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
    if not ns.t_max / ns.step <= geodesic.MAX_STEPS:  # an inf ratio fails too
        raise _UsageError(
            f"--t-max / --step must be finite and at most {geodesic.MAX_STEPS:g}, "
            f"got {ns.t_max!r} / {ns.step!r}"
        )
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
    if not 1 <= ns.samples <= MAX_SAMPLES:
        raise _UsageError(f"--samples must be between 1 and {MAX_SAMPLES}, got {ns.samples}")
    report = verify.report(surf, ns.samples, ns.seed, ns.tol)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def run(argv: list[str]) -> int:
    """Entry point returning the exit code (0/1/2/3, see module docstring)."""
    try:
        ns = _build_parser().parse_args(_join_negative_values(argv))
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
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):  # python -u
        # A raw stdout drops the rest of a short write to a closed pipe unreported.
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors,
                          closefd=False)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError:  # stdout closed early (``| head``) or full; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_RUNTIME
    sys.exit(code)


if __name__ == "__main__":
    main()
