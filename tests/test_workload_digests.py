"""The first jobs of each benchmark workload at seed 7 give the recorded
outputs: each job passes its workload's own check, and the digest of its
output equals the one in ``data/workload_digests_seed7.json``.

Like the other files under ``data/``, the digests are regenerated only for an
intended change of output, recorded in CHANGES.md:
``PYTHONPATH=src python tests/test_workload_digests.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "workload_digests_seed7.json"
SEED = 7
JOBS = {"geodesic-long": 9, "verify-sweep": 10, "surface-churn": 40}


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run(name: str, workdir: Path) -> list[tuple[str | None, str]]:
    """``(check failure or None, digest)`` of each of the workload's first jobs."""
    bench = workloads.WORKLOADS[name](SEED, workdir)
    results = []
    for i in range(JOBS[name]):
        job = bench.make(i)
        output = bench.run(job)
        results.append((bench.check(job, output), bench.digest(output)))
        bench.release(job)
    return results


@pytest.mark.parametrize("name", JOBS)
def test_the_first_seed7_jobs_give_the_recorded_digests(name, tmp_path):
    expected = json.loads(DATA.read_text())[name]
    results = _run(name, tmp_path)
    assert [failure for failure, _ in results] == [None] * JOBS[name]
    assert [digest for _, digest in results] == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = {name: [d for _, d in _run(name, Path(workdir) / name)] for name in JOBS}
    DATA.write_text(json.dumps(digests, indent=1) + "\n")
