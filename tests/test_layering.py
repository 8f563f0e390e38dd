"""Module layering and the public keywords, read from the source with ``ast``.

``verify`` owns the whole verify report: the geometry modules do not import
it, ``lift`` binds only ``verify_lift`` from it, and ``cli`` only parses
arguments and prints what ``verify.report`` returns.  A value that only one
caller ever sets is a module constant, not a keyword, so the public
functions keep exactly the defaulted parameters listed here, and ``src/``
keeps within its line count.  The frame kernels, the closed curvature table
and the order-4 pipeline kernel are generated on first use, so a command that
needs none of them pays for none at setup.
"""

import ast
import cProfile
import dataclasses
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

import wagnerlift
import wagnerlift.lift
from wagnerlift.lift import verify_lift
from wagnerlift.surface import catalog

SRC = Path(wagnerlift.__file__).parent
DATA = Path(__file__).parent / "data"

# Each has two values in use in the library, or is the physical charge C.
PUBLIC_DEFAULTS = {
    "geodesic.integrate_lift:method",
    "geodesic.integrate_base:method",
    "geodesic.wong_residual:C",
    "surface.require_finite:what",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _imports(module: str) -> dict[str, set]:
    """Imported module name -> the names taken from it (empty for ``import m``)."""
    imported: dict[str, set] = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module is None:  # from . import a, b
                for name in names:
                    imported.setdefault(name, set())
            else:
                imported.setdefault(node.module, set()).update(names)
    return imported


# The line count of src/wagnerlift/*.py when this bound was last set.
SRC_LINES = 2914


def test_src_stays_within_its_line_count():
    """``src/`` is tracked like a benchmark: its lines, counted as ``wc -l``
    counts them (newline characters), fall or stay flat.  A change that raises
    ``SRC_LINES`` records old -> new and why in CHANGES.md."""
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SRC_LINES, f"src/ has {lines} lines, above its bound of {SRC_LINES}"


def test_geometry_modules_import_neither_lift_nor_verify():
    for module in ("surface", "connection", "geodesic"):
        assert not _imports(module).keys() & {"lift", "verify"}, module


def test_no_module_defines_a_frame_sampler():
    # The frame calculus takes one FramePoint; no closure layer builds it.
    for path in SRC.glob("*.py"):
        defined = {
            getattr(node, "name", None) or getattr(node, "id", None)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert "FrameSampler" not in defined, path.name


def test_conformal_jets_is_the_one_base_geometry_record():
    # ``gauss_curvature`` returns the checked ``surface_jets`` record itself;
    # no module keeps a second per-point copy of its values, and the lifted
    # frame is the value slots of ``lift._coefficient_rows``, not a record.
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        named = {
            getattr(node, "name", None) or getattr(node, "id", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.Name))
        }
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not named & {"BaseGeometry", "geometry_from_jets", "LiftedFrame"}, path.name
    fields = [field.name for field in dataclasses.fields(wagnerlift.lift.LiftedStructure)]
    assert fields == ["c112", "c212", "c312", "c313", "c323", "K"]


def test_surface_leaves_its_pipeline_kernel_to_the_one_jet_code_writer():
    # ``jets._Source`` writes the order-4 pipeline kernel: surface runs no
    # generated code of its own and reads no product term table.
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(_tree("surface"))}
    assert not names & {"exec", "eval", "_MUL_TABLE", "_PRODUCT_TERMS"}
    assert "_Source" in _imports("surface")["jets"]


def test_exec_runs_only_in_the_one_definer():
    # ``connection._define`` compiles every generated function and numbers its
    # file name; ``connection`` imports nothing from the package, so every
    # module can take it from there.
    sites = sorted(
        (path.stem, getattr(top, "name", None))
        for path in SRC.glob("*.py") for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("exec", "eval")
    )
    assert sites == [("connection", "_define")]
    counters = [path.stem for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "count"]
    assert counters == ["connection"]


def test_lift_takes_only_verify_lift_from_verify():
    imported = _imports("lift")
    assert not imported.keys() & {"json", "random"}, imported
    assert imported["verify"] == {"verify_lift"}


def test_cli_builds_no_checks_and_samples_no_points():
    imported = _imports("cli")
    assert "random" not in imported
    assert not any("sample_points" in names for names in imported.values()), imported
    golden = json.loads((DATA / "verify_sphere.json").read_text())
    check_names = {"geodesic_left_chart"} | {
        check["name"] for part in ("lift", "geodesic") for check in golden[part]["checks"]
    }
    strings = {
        node.value for node in ast.walk(_tree("cli"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert not strings & check_names
    identifiers = {
        getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(_tree("cli"))
    }
    assert not identifiers & {"CheckResult", "VerifyReport", "verify_lift"}


def _defaulted_parameters() -> set[str]:
    """``module[.Class].function:parameter`` for every defaulted parameter of a
    public function or of a method (dunders included) of a public class."""
    found = set()
    for path in SRC.glob("*.py"):
        scopes = [(path.stem, ast.parse(path.read_text()).body)]
        for prefix, body in scopes:  # grows with the classes met
            for node in body:
                name = getattr(node, "name", "_")
                if name.startswith("_") and not name.endswith("__"):
                    continue
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{name}", node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    named = positional[len(positional) - len(args.defaults) :]
                    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    found |= {f"{prefix}.{name}:{arg.arg}" for arg in named}
    return found


def test_only_the_lift_stage_reads_compiled_tapes_in_geodesic():
    # One compiled branch for the lifted right-hand side, and one place that
    # sends a point it leaves to the jets; the rest runs on the stage.
    def users(test):
        return [function.name for function in _tree("geodesic").body
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function) if test(node)]

    compiled = users(lambda node: isinstance(node, ast.Attribute) and node.attr == "compiled")
    fallback = users(lambda node: isinstance(node, ast.Name) and node.id == "_FALLBACK")
    assert set(compiled) == {"_lift_stage"} and fallback == ["_lift_stage"]


def test_the_parser_checks_its_depth_in_one_place():
    # Every recursive cycle of the grammar passes the one check in ``factor``.
    comparisons = [
        node for node in ast.walk(_tree("expr"))
        if isinstance(node, ast.Compare)
        and any(isinstance(part, ast.Name) and part.id == "_MAX_DEPTH"
                for part in (node.left, *node.comparators))
    ]
    assert len(comparisons) == 1


def test_public_functions_keep_only_the_pinned_defaulted_parameters():
    assert _defaulted_parameters() == PUBLIC_DEFAULTS


def _fresh_process(source: str) -> str:
    """The stdout of ``source`` run in a new interpreter on this ``src/``."""
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    probe = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    return probe.stdout


_KERNEL_PROBE = """
import contextlib, io, sys
from wagnerlift import cli, connection, lift, surface
kernels = (connection._koszul_kernel, connection._curvature_kernel, lift._closed_table_kernel)
assert [k.cache_info().currsize for k in kernels] == [0, 0, 0]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["geodesic", "--surface", "bump", "--start", "0.1,0.2,0",
                    "--velocity", "0.6,0,0.8", "--t-max", "0.05", "--step", "0.01",
                    "--wong"]) == 0
    assert cli.run(["base-geodesic", "--surface", "sphere", "--start", "0.1,0.2",
                    "--velocity", "0.6,0.8", "--t-max", "0.05", "--step", "0.01"]) == 0
pipeline = [surface._pipeline_kernel.cache_info().currsize]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["surface", "info", "--surface", "sphere", "--at", "0.3,0.2"]) == 0
pipeline.append(surface._pipeline_kernel.cache_info().currsize)
built = [k.cache_info().currsize for k in kernels]
connection._koszul_kernel(2)  # built here, so nothing above took it
print(built, connection._koszul_kernel.cache_info().currsize)
connection._koszul_kernel.cache_clear()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["lift", "table", "--surface", "bump", "--at", "0.3,0.2"]) == 0
print([k.cache_info().currsize for k in kernels])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["verify", "--surface", "sphere", "--samples", "2"]) == 0
print("numpy" in sys.modules)
print(pipeline)
"""


def test_surface_info_and_geodesic_build_no_curvature_kernel():
    # A fresh process, since this one may have built every kernel already.
    # Neither command builds a kernel: the Wong residual and the base flow
    # contract a written-out dim-2 Koszul kernel, and nothing takes the dim-3
    # curvature kernel or the closed curvature table, whose compiles would
    # land in their setup time.  ``lift table`` builds the dim-3 Koszul
    # kernel and the closed table, and still no curvature kernel.  The flows
    # read the order-3 frame fields, so only ``surface info`` of these
    # builds the order-4 pipeline kernel.
    stdout = _fresh_process(_KERNEL_PROBE)
    assert stdout.split("\n")[:2] == ["[0, 0, 0] 1", "[1, 0, 1]"]
    # The library needs only the standard library: no command imports numpy.
    assert stdout.split("\n")[2] == "False"
    assert stdout.split("\n")[3] == "[0, 1]"


_PATTERN_PROBE = """
import contextlib, io
from wagnerlift import cli, connection, lift
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("sphere", "bump"):
        assert cli.run(["verify", "--surface", name, "--samples", "5"]) == 0
built = connection._curvature_kernel.cache_info().currsize
brackets = lift._bracket_kernel.cache_info()
connection._curvature_kernel(3, frozenset())  # built here, so nothing above took it
print(built, connection._curvature_kernel.cache_info().currsize - built, brackets.misses, brackets.currsize)
"""


def test_verify_on_finite_points_builds_no_curvature_kernel_without_known_zeros():
    # In a fresh process: ``verify`` runs the one curvature kernel of the
    # lifted frame's declared zeros, and never the one of no known zeros, whose
    # guard-free full form only a point with a value that is not finite needs.
    # The bracket table and the nonholonomity build their functions once each.
    assert _fresh_process(_PATTERN_PROBE).split() == ["1", "1", "2", "2"]


_NAMES_PROBE = """
import contextlib, gc, io, json
from wagnerlift import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["verify", "--surface", "sphere", "--samples", "2"]) == 0
    assert cli.run(["geodesic", "--surface", "bump", "--start", "0.1,0.2,0",
                    "--velocity", "0.6,0,0.8", "--t-max", "0.5", "--step", "0.01", "--wong"]) == 0
    assert cli.run(["surface", "info", "--surface", "sphere", "--at", "0.3,0.2"]) == 0
# Generated: compiled under a <...> file name with globals that are no module's.
print(json.dumps([f.__code__.co_filename for f in gc.get_objects() if type(f).__name__ == "function"
                  and f.__code__.co_filename.startswith("<")
                  and ("__name__" not in f.__globals__ or f.__code__.co_filename.startswith("<wagnerlift"))]))
"""


def test_every_generated_function_compiles_under_a_file_name_of_its_own():
    # One name per function, so profiles and tracebacks tell them apart: the
    # import-time jet kernels, the pipeline kernel, the compiled tapes, and the
    # lift, verify and connection kernels.
    names = json.loads(_fresh_process(_NAMES_PROBE))
    assert len(set(names)) == len(names)
    assert all(name.startswith("<wagnerlift ") for name in names), names
    labels = {name.split()[1].rstrip(">") for name in names}
    assert labels >= {*(f"{kind}{n}" for kind in ("mul", "horner") for n in range(5)), "pipeline",
                      "tape3", "koszul3", "curvature3", "brackets", "nonholonomity",
                      "closed_table", "deviation3", "deviation4"}, labels


def test_profiles_keep_a_row_for_every_generated_function():
    # pstats keys a row by file name, line and function name, so generated
    # functions that shared one file name would merge into one row.
    bump = catalog("bump")
    profiler = cProfile.Profile()
    profiler.runcall(lambda: [verify_lift(bump, 10, seed, 1e-8) for seed in range(20)])
    generated = [entry for entry in profiler.getstats() if not isinstance(entry.code, str)
                 and entry.code.co_filename.startswith("<wagnerlift")]
    rows = {key: row for key, row in pstats.Stats(profiler).stats.items()
            if key[0].startswith("<wagnerlift")}
    assert len(rows) == len(generated) >= 9
    assert sum(row[2] for row in rows.values()) == pytest.approx(
        sum(entry.inlinetime for entry in generated))
