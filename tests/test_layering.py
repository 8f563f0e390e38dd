"""Module layering, read from the source with ``ast``.

``verify`` owns the whole verify report: the geometry modules do not import
it, ``lift`` binds only ``verify_lift`` from it, and ``cli`` only parses
arguments and prints what ``verify.report`` returns.
"""

import ast
import json
from pathlib import Path

import wagnerlift

SRC = Path(wagnerlift.__file__).parent
DATA = Path(__file__).parent / "data"


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


def test_geometry_modules_import_neither_lift_nor_verify():
    for module in ("surface", "connection", "geodesic"):
        assert not _imports(module).keys() & {"lift", "verify"}, module


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
