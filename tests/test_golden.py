"""Byte-for-byte regression of CLI output against committed golden files.

The files under ``tests/data/`` named ``geodesic_wong_*.csv``,
``surface_info_*.txt`` and ``lift_table_*.txt`` were written by this same CLI
before the jet arithmetic was rewritten as generated straight-line kernels;
``verify_*.json`` (``verify --samples 20 --seed 3``) when the bracket oracle
came to re-express its brackets in the lifted frame by forward substitution
instead of a LAPACK solve, whose roundings no Python route reproduces.
Only the two bracket-derived deviations moved
(``structure_functions_vs_brackets`` and
``connection_vs_koszul_on_brackets``): all six fell, none by more than 2.3e-16.
Any change to the floating-point evaluation order of the jets, the geometry
or the integrator shows up here as a byte difference.  Regenerate them only
for an intended change of the output.
"""

import contextlib
import io
from pathlib import Path

import pytest

from wagnerlift.cli import run

DATA = Path(__file__).parent / "data"

POINTS = {"sphere": "0.3,0.2", "halfplane": "0.4,1.3", "bump": "0.3,-0.2"}
STARTS = {"sphere": "0.3,0.2,0", "halfplane": "0.4,1.3,0", "bump": "0.3,0.1,0"}


@pytest.mark.parametrize("name", sorted(STARTS))
def test_geodesic_wong_csv_matches_golden(name, tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "geodesic", "--surface", name, "--start", STARTS[name],
        "--velocity", "0.6,0.1,0.8", "--t-max", "0.05", "--step", "0.001",
        "--wong", "--out", str(out),
    ]
    assert run(argv) == 0
    assert out.read_bytes() == (DATA / f"geodesic_wong_{name}.csv").read_bytes()


@pytest.mark.parametrize("command", [("surface", "info"), ("lift", "table")])
@pytest.mark.parametrize("name", sorted(POINTS))
def test_point_query_matches_golden(command, name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run([*command, "--surface", name, "--at", POINTS[name]]) == 0
    golden = DATA / f"{command[0]}_{command[1]}_{name}.txt"
    assert buf.getvalue().encode() == golden.read_bytes()


@pytest.mark.parametrize("name", sorted(POINTS))
def test_verify_report_matches_golden(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["verify", "--surface", name, "--samples", "20", "--seed", "3"]) == 0
    assert buf.getvalue().encode() == (DATA / f"verify_{name}.json").read_bytes()
