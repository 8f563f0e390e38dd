"""The three benchmark workloads: seeded inputs, the timed job, and the
per-job correctness check that runs outside the timed interval.

Every job's inputs are a pure function of (workload, seed, job index), so the
same seed gives the same inputs in every run and in every process.  Jobs come
in rounds of ``round_size`` job classes; a run always measures whole rounds,
so its mix of classes, and with it every median and percentile, does not
depend on where the clock happened to stop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from wagnerlift import cli, connection, geodesic, lift
from wagnerlift.expr import format_expr
from wagnerlift.surface import ConformalSurface, catalog, conformal_laplacian_curvature

CATALOG = ("sphere", "halfplane", "bump")

# Custom surfaces stay well inside the lift's domain: |K| at least this far
# from zero at every point a job queries (the library's limit is 1e-8).
K_FLOOR = 0.03


@dataclass
class Job:
    index: int
    label: str  # job class, e.g. the surface it runs on
    work: int  # RK4 steps, verified points or queried points
    payload: object


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    return code, buffer.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(printed: float, reference: float) -> bool:
    """Agreement at the CLI's 12 significant digits."""
    return abs(printed - reference) <= 1e-11 * max(1.0, abs(reference))


# -- seeded surface configs ------------------------------------------------------

# Catalog lambda plus a small smooth perturbation.  Coefficients are bounded so
# the perturbation moves K by a small fraction of its catalog value over the
# whole window; ``_require_curved`` is the safety net.
_WINDOWS = {
    "sphere": ("all", ((-1.0, 1.0), (-1.0, 1.0))),
    "halfplane": ("x2 > 0", ((-1.0, 1.0), (0.5, 1.5))),
    "bump": ("all", ((-1.0, 1.0), (-1.0, 1.0))),
}
_EPSILON = "0.005"


def _lin(r: random.Random) -> str:
    a, b = r.uniform(0.1, 0.6), r.uniform(0.1, 0.6)
    return f"{a:.4f}*x1 {r.choice('+-')} {b:.4f}*x2"


def _pos(r: random.Random) -> str:
    return f"{r.uniform(1.0, 2.0):.4f}"


# Building blocks: sums, products, integer and real powers, and the
# elementary functions exp, log, sqrt, sin, cos, atan and tanh.
_BLOCKS = (
    lambda r: f"sin({_lin(r)})",
    lambda r: f"cos({_lin(r)})",
    lambda r: f"exp({_lin(r)})",
    lambda r: f"log({_pos(r)} + x1^2)",
    lambda r: f"sqrt({_pos(r)} + x2^2)",
    lambda r: f"atan({_lin(r)})",
    lambda r: f"tanh({_lin(r)} + {r.uniform(0.0, 0.5):.4f})",
    lambda r: f"({_lin(r)})^3",
    lambda r: f"({_pos(r)} + x1^2 + x2^2)^0.5",
    lambda r: "x1*x2",
)

# Fixed perturbation shapes (indices into _BLOCKS) for the custom surfaces of
# verify-sweep: the shape is fixed per job class so each class costs the same
# on every seed; only the constants are seeded.
_VERIFY_SHAPES = {
    "sphere": ((0, 2), (3,)),
    "halfplane": ((5,), (8,)),
    "bump": ((6, 1), (4, 7)),
}


def _config(name: str, base: ConformalSurface, terms, r: random.Random) -> dict:
    parts = [
        f"{r.uniform(0.3, 1.0):.4f}*" + "*".join(_BLOCKS[b](r) for b in blocks)
        for blocks in terms
    ]
    guard, window = _WINDOWS[base.name]
    return {
        "name": name,
        "lambda": f"{format_expr(base.lam)} + {_EPSILON}*({' + '.join(parts)})",
        "guard": guard,
        "window": window,
    }


def _random_terms(r: random.Random) -> list[tuple[int, ...]]:
    return [
        tuple(r.randrange(len(_BLOCKS)) for _ in range(r.randint(1, 2)))
        for _ in range(r.randint(1, 3))
    ]


def _window_point(surf: ConformalSurface, r: random.Random) -> tuple[float, float]:
    (a, b), (c, d) = surf.window
    while True:
        x = (r.uniform(a, b), r.uniform(c, d))
        if surf.contains(x):
            return x


def _require_curved(surf: ConformalSurface, points) -> None:
    for x in points:
        if not abs(conformal_laplacian_curvature(surf, x)) >= K_FLOOR:
            raise RuntimeError(f"generated surface {surf.name!r} has |K| < {K_FLOOR} at {x!r}")


def _grid(surf: ConformalSurface):
    """5 x 5 points spanning the window, corners included."""
    (a, b), (c, d) = surf.window
    n = 5
    return [
        (a + (b - a) * i / (n - 1), c + (d - c) * j / (n - 1))
        for i in range(n)
        for j in range(n)
    ]


# -- workloads -------------------------------------------------------------------


class GeodesicLong:
    """``wagnerlift geodesic --wong`` over 10^3 RK4 steps, in process.

    A job is 10^3 steps rather than the 10^4 of a 10-unit trajectory so that
    each one is short enough (0.2-0.7 s) for the reference clock sampled
    between jobs to follow the host's speed; the per-step work is the same.
    """

    name = "geodesic-long"
    work_unit = "accepted RK4 steps"
    round_size = len(CATALOG)
    trace_jobs = 3 * len(CATALOG)
    # 75-85 jobs a run: 11-12 beyond p85, which lies inside the sphere
    # class (the slowest third), not on a boundary between classes.
    tail_percentile = 85.0
    T_MAX, STEP = 1.0, 0.001
    STEPS = 1_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.surfaces = {n: catalog(n) for n in CATALOG}

    def _argv(self, name, x, phi, q, t_max):
        return [
            "geodesic", "--surface", name,
            f"--start={x[0]!r},{x[1]!r},{phi!r}",
            f"--velocity={q[0]!r},{q[1]!r},{q[2]!r}",
            "--t-max", repr(t_max), "--step", repr(self.STEP), "--wong",
        ]

    def _state(self, name, r):
        # Near the window centre, |Q| = 1 and |Q3| in [0.5, 0.8], as in the
        # conservation acceptance criterion.
        (a, b), (c, d) = self.surfaces[name].window
        while True:
            x = ((a + b) / 2 + r.uniform(-0.3, 0.3), (c + d) / 2 + r.uniform(-0.3, 0.3))
            if self.surfaces[name].contains(x):
                break
        q3 = r.choice((-1.0, 1.0)) * r.uniform(0.5, 0.8)
        angle = r.uniform(0.0, 2.0 * math.pi)
        qh = math.sqrt(1.0 - q3 * q3)
        return x, r.uniform(0.0, 2.0 * math.pi), (qh * math.cos(angle), qh * math.sin(angle), q3)

    def warm_up(self):
        for k, name in enumerate(CATALOG):
            code, _ = _cli(self._argv(name, *self._state(name, _rng(self.name, self.seed, -1 - k)), 0.2))
            if code != 0:
                raise RuntimeError(f"warm-up geodesic on {name} exited {code}")

    def make(self, i: int) -> Job:
        name = CATALOG[i % len(CATALOG)]
        argv = self._argv(name, *self._state(name, _rng(self.name, self.seed, i)), self.T_MAX)
        return Job(i, name, self.STEPS, argv)

    def run(self, job: Job):
        return _cli(job.payload)

    def check(self, job: Job, output) -> str | None:
        # Streams the rows so the check adds little to the peak RSS.
        code, text = output
        if code != 0:
            return f"exit code {code}"
        rows = csv.reader(text.splitlines())
        header = next(rows, None)
        if header is None or tuple(header) != geodesic.CSV_COLUMNS:
            return f"header {header!r}"
        col = {name: k for k, name in enumerate(geodesic.CSV_COLUMNS)}
        count, first, drift, speed_drift, wong = 0, None, 0.0, 0.0, None
        for row in rows:
            values = [float(c) if c else None for c in row]
            if not all(math.isfinite(v) for v in values if v is not None):
                return f"non-finite cell in row {count}"
            if first is None:
                first = values
            drift = max(drift, abs(values[col["Q3_over_K"]] - first[col["Q3_over_K"]]))
            speed_drift = max(speed_drift, abs(values[col["speed"]] - first[col["speed"]]))
            if values[col["wong_residual"]] is not None:
                wong = max(wong or 0.0, values[col["wong_residual"]])
            count += 1
        if count != self.STEPS + 1:
            return f"{count} rows, expected {self.STEPS + 1}"
        if not math.isclose(values[col["t"]], self.T_MAX, rel_tol=1e-12):
            return f"last t {values[col['t']]!r}"
        if drift > 1e-6 or speed_drift > 1e-8 or wong is None or wong > 1e-4:
            return f"drift {drift:.3g}, speed drift {speed_drift:.3g}, wong {wong}"
        return None

    def digest(self, output) -> str:
        return _digest(f"{output[0]}\n{output[1]}")

    def release(self, job: Job) -> None:
        pass


class VerifySweep:
    """``lift.verify_lift`` with 100 samples: the library half of ``verify``."""

    name = "verify-sweep"
    work_unit = "verified points"
    # A round is the three catalog surfaces plus two custom ones whose base
    # rotates from round to round.  Five classes put the median inside one
    # class (sphere) and the p75 tail inside the custom class, not on a
    # boundary between classes.
    round_size = len(CATALOG) + 2
    trace_jobs = 2 * round_size
    tail_percentile = 75.0  # 70-100 jobs a run: 17-25 beyond
    SAMPLES = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.surfaces = {n: catalog(n) for n in CATALOG}

    def _surface(self, i: int, r: random.Random) -> tuple[str, ConformalSurface]:
        k, n = i % self.round_size, len(CATALOG)
        if k < n:
            return CATALOG[k], self.surfaces[CATALOG[k]]
        base = CATALOG[(i // self.round_size + k) % n]
        config = _config(f"{base}-{i}", self.surfaces[base], _VERIFY_SHAPES[base], r)
        surf = ConformalSurface.from_config(config)
        _require_curved(surf, _grid(surf))
        return "custom", surf

    def warm_up(self):
        for k in range(self.round_size):
            r = _rng(self.name, self.seed, -1 - k)
            _, surf = self._surface(k, r)
            if not lift.verify_lift(surf, 5, r.randrange(2**31), 1e-8).passed:
                raise RuntimeError("warm-up verification failed")

    def make(self, i: int) -> Job:
        r = _rng(self.name, self.seed, i)
        label, surf = self._surface(i, r)
        return Job(i, label, self.SAMPLES, (surf, r.randrange(2**31)))

    def run(self, job: Job):
        surf, job_seed = job.payload
        return lift.verify_lift(surf, sample_count=self.SAMPLES, seed=job_seed, tol=1e-8)

    def check(self, job: Job, report) -> str | None:
        if report.passed:
            return None
        return "; ".join(
            f"{c.name} {c.max_deviation:.3g} > {c.tolerance:.3g}" for c in report.checks if not c.passed
        )

    def digest(self, report) -> str:
        return _digest(report.to_json())

    def release(self, job: Job) -> None:
        pass


_PAIRS = ((1, 2, 1, 2), (1, 2, 1, 3), (1, 2, 2, 3), (1, 3, 1, 3), (1, 3, 2, 3), (2, 3, 2, 3))


def _printed(text: str) -> dict[str, float]:
    """``label: value`` lines of the CLI output, keyed by their label."""
    out = {}
    for line in text.splitlines():
        label, sep, value = line.strip().partition(": ")
        if sep:
            with contextlib.suppress(ValueError):
                out[label] = float(value)
    return out


class SurfaceChurn:
    """A fresh seeded surface config per job, queried through ``surface info``
    and ``lift table`` at 1-3 points."""

    name = "surface-churn"
    work_unit = "queried points"
    round_size = 1
    trace_jobs = 200
    # 2000-2600 jobs a run: 40-52 beyond p98.  p99 (20-26 beyond) spread
    # 8.5% over ten seeds, four times the median's spread.
    tail_percentile = 98.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.surfaces = {n: catalog(n) for n in CATALOG}

    def _inputs(self, i: int):
        r = _rng(self.name, self.seed, i)
        base = self.surfaces[r.choice(CATALOG)]
        config = _config(f"churn-{i}", base, _random_terms(r), r)
        surf = ConformalSurface.from_config(config)
        points = [_window_point(surf, r) for _ in range(r.randint(1, 3))]
        _require_curved(surf, points)
        path = self.workdir / f"churn-{i}.json"
        path.write_text(json.dumps(config))
        return str(path), surf, points

    def warm_up(self):
        for k in range(len(CATALOG)):
            job = self.make(-1 - k)
            if self.check(job, self.run(job)) is not None:
                raise RuntimeError("warm-up surface query failed")
            self.release(job)

    def make(self, i: int) -> Job:
        path, surf, points = self._inputs(i)
        return Job(i, "churn", len(points), (path, surf, points))

    def run(self, job: Job):
        path, _, points = job.payload
        out = []
        for x in points:
            at = f"--at={x[0]!r},{x[1]!r}"
            out.append(_cli(["surface", "info", "--surface", path, at]))
            out.append(_cli(["lift", "table", "--surface", path, at]))
        return out

    def check(self, job: Job, output) -> str | None:
        _, surf, points = job.payload
        for x, (info, table) in zip(points, zip(output[::2], output[1::2])):
            if info[0] != 0 or table[0] != 0:
                return f"exit codes {info[0]}, {table[0]} at {x!r}"
            printed = _printed(info[1])
            if not _close(printed["K"], conformal_laplacian_curvature(surf, x)):
                return f"K {printed['K']!r} at {x!r}"
            printed = _printed(table[1])
            oracle = lift.lifted_curvature_oracle(surf, x)
            for a, b, c, d in _PAIRS:
                if not _close(printed[f"M({a}{b},{c}{d})"], oracle.pair_component(a, b, c, d)):
                    return f"M({a}{b},{c}{d}) at {x!r}"
            for i, j in ((1, 2), (1, 3), (2, 3)):
                if not _close(printed[f"K(E{i},E{j})"], connection.sectional(oracle, i, j)):
                    return f"K(E{i},E{j}) at {x!r}"
        return None

    def digest(self, output) -> str:
        return _digest("".join(f"{code}\n{text}" for code, text in output))

    def release(self, job: Job) -> None:
        Path(job.payload[0]).unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (GeodesicLong, VerifySweep, SurfaceChurn)}
