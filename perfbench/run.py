"""wagnerlift benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Single process, single thread, closed loop with one caller: each job starts
when the previous one has returned.  Run from the root of a checkout; the
library is imported from ``src/`` of that checkout.

--trace 0 measures the end-to-end metrics: jobs run back to back until
their summed time reaches --seconds (rounding up to a whole round of job
classes), each checked for correctness outside its timed interval.  Job
times are reported in refs, multiples of a reference kernel timed between
jobs, so that the host's changing speed cancels (see refclock.py).
--trace 1 runs a fixed, seeded list of jobs untraced and then traced, and
reports per-layer counts and self-time shares (see tracing.py).

The last line of stdout is the result object; the line before it is a JSON
report with run metadata and detail.  No CPU pinning, priority or other OS
setting is touched; only this process and the child processes it starts
and waits for are measured.
"""

import os

# One BLAS/OpenMP thread, set before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("geodesic-long", "verify-sweep", "surface-churn")
SETUP_REPEATS = 5  # one in this process, the rest in fresh child processes
BLOCK_S = 1.0  # throughput is sampled per block of whole rounds of this much job time
CHILD_TIMEOUT_S = 150


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Child-process modes this script starts itself.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--counts-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload, seed, workdir):
    """Import, catalog build and warm-up: everything before the first job."""
    start = time.perf_counter()
    import workloads  # imports wagnerlift

    bench = workloads.WORKLOADS[workload](seed, workdir)
    bench.warm_up()
    elapsed = time.perf_counter() - start
    import wagnerlift

    if SRC not in Path(wagnerlift.__file__).resolve().parents:
        raise RuntimeError(f"wagnerlift imported from {wagnerlift.__file__}, not {SRC}")
    return elapsed, bench


def _timed_setup(workload, seed, workdir):
    """One set-up with the reference kernel sampled just before and just
    after it: (set-up seconds, seconds of one ref around it, bench)."""
    import refclock

    before = refclock.RefClock().samples[0]
    elapsed, bench = _setup(workload, seed, workdir)
    return elapsed, 0.5 * (before + refclock.sample()), bench


def _child(args, flag):
    """Run this script in a fresh process in one of its probe modes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), flag]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{flag} child exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _time_job(bench, job):
    """Run one job.  Returns (seconds, output), output None if it raised."""
    start = time.perf_counter()
    try:
        output = bench.run(job)
    except Exception:  # a failed job is counted, not fatal
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, None
    return time.perf_counter() - start, output


def _check(bench, job, output):
    """Correctness of one job's output; None when it passes."""
    if output is None:
        failure = "raised"
    else:
        try:
            failure = bench.check(job, output)
        except Exception:
            traceback.print_exc()
            failure = "check raised"
    if failure is not None:
        print(f"job {job.index} ({job.label}) failed: {failure}", file=sys.stderr)
    return failure


def _percentile(times, p):
    """(nearest-rank p-th percentile, number of jobs beyond it)."""
    ordered = sorted(times)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a plain source checkout carries no commit id


def _metadata(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "os_settings": "none touched: no CPU pinning, priority, cgroup or cache control",
    }


def _timed_run(args, workdir):
    import refclock

    elapsed, ref_s, bench = _timed_setup(args.workload, args.seed, workdir)
    setups = [(elapsed, ref_s)]
    for _ in range(SETUP_REPEATS - 1):
        probe = _child(args, "--setup-probe")
        setups.append((probe["setup_s"], probe["ref_s"]))

    clock = refclock.RefClock()
    times, works, labels, failures, busy, i = [], [], [], 0, 0.0, 0
    while busy < args.seconds or i % bench.round_size:
        job = bench.make(i)
        elapsed, output = _time_job(bench, job)
        clock.after_job(elapsed)
        failure = _check(bench, job, output)
        del output  # so the next job's peak memory does not include it
        bench.release(job)
        i += 1
        times.append(elapsed)
        works.append(job.work)
        labels.append(job.label)
        failures += failure is not None
        busy += elapsed
    refs = clock.finish()

    # Throughput per block of whole rounds with at least BLOCK_S of job time.
    rates, block_s, block_refs, block_work = [], 0.0, 0.0, 0
    for k, (s, r, w) in enumerate(zip(times, refs, works), 1):
        block_s, block_refs, block_work = block_s + s, block_refs + r, block_work + w
        if k % bench.round_size == 0 and block_s >= BLOCK_S:
            rates.append(1e3 * block_work / block_refs)
            block_s, block_refs, block_work = 0.0, 0.0, 0
    if not rates:  # a run shorter than one block
        rates.append(1e3 * block_work / block_refs)

    tail_ref, beyond = _percentile(refs, bench.tail_percentile)
    metrics = {
        "setup_s": (refclock.NOMINAL_S * statistics.median(s / r for s, r in setups), "s"),
        "work_per_kref": (statistics.median(rates), "1/kref"),
        "job_p50_ref": (statistics.median(refs), "ref"),
        "job_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    classes = {}
    for label, s, r in zip(labels, times, refs):
        classes.setdefault(label, []).append((s, r))
    detail = {
        "setup_runs_s": [s for s, _ in setups],
        "setup_runs_ref_ms": [r * 1e3 for _, r in setups],
        "jobs": len(times),
        "busy_s": busy,
        "work": sum(works),
        "work_unit": bench.work_unit,
        "rate_blocks": len(rates),
        "failed_ratio": failures / len(times),
        "tail_percentile": bench.tail_percentile,
        "tail_jobs_beyond": beyond,
        "ref_samples": len(clock.samples),
        "ref_ms": {"median": statistics.median(clock.samples) * 1e3,
                   "min": min(clock.samples) * 1e3, "max": max(clock.samples) * 1e3},
        # The same statistics in wall-clock time, which moves with the host.
        "wall": {
            "work_per_s": sum(works) / busy,
            "job_p50_ms": statistics.median(times) * 1e3,
            "job_tail_ms": _percentile(times, bench.tail_percentile)[0] * 1e3,
        },
        "per_class_median": {
            k: {"ms": statistics.median(s for s, _ in v) * 1e3,
                "ref": statistics.median(r for _, r in v)}
            for k, v in classes.items()
        },
    }
    return metrics, detail, len(times), failures, failures == 0


@dataclass
class _Pass:
    seconds: float = 0.0
    failures: int = 0
    digests: list = field(default_factory=list)


def _trace_pass(bench, jobs, tracer=None):
    """Run the jobs, then check them.  With a tracer, the checks run after it
    is uninstalled, so checking is never traced."""
    result, outputs = _Pass(), []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.index
        elapsed, output = _time_job(bench, job)
        result.seconds += elapsed
        outputs.append(output)
    if tracer is not None:
        tracer.uninstall()
    for job, output in zip(jobs, outputs):
        result.failures += _check(bench, job, output) is not None
        result.digests.append(None if output is None else bench.digest(output))
    return result


def _traced(args, workdir):
    """Untraced pass, then traced pass, over the same fixed seeded job list."""
    import tracing
    import wagnerlift

    _, bench = _setup(args.workload, args.seed, workdir)
    jobs = [bench.make(i) for i in range(bench.trace_jobs)]
    tracer = tracing.Tracer()
    try:
        plain = _trace_pass(bench, jobs)
        tracer.install(wagnerlift)
        stale = tracer.stale_bindings(wagnerlift)
        traced = _trace_pass(bench, jobs, tracer)
    finally:
        tracer.uninstall()
        for job in jobs:
            bench.release(job)
    return tracer, plain, traced, stale


def _trace_run(args, workdir):
    import tracing

    tracer, plain, traced, stale = _traced(args, workdir)
    counts = tracer.exact_counts()
    repeat = _child(args, "--counts-probe")

    metrics = tracing.per_layer_metrics(tracer, traced.seconds)
    metrics["trace.untraced_job_s"] = (plain.seconds, "s")
    metrics["trace.traced_job_s"] = (traced.seconds, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced.seconds / plain.seconds - 1.0), "%")

    uncovered = [
        name for name, _kind, _moves, _on, dominant in tracing.LAYERS
        if dominant == args.workload and counts.get(f"{tracing.metric_prefix(name)}.calls", 0) == 0
    ]
    mismatched = sorted(k for k in counts.keys() | repeat.keys() if counts.get(k) != repeat.get(k))
    self_checks = {
        "layers_all_present": not tracer.missing,
        "bindings_all_wrapped": not stale,
        "dominant_layers_called": not uncovered,
        "outputs_identical_traced_vs_untraced":
            plain.digests == traced.digests and None not in plain.digests,
        "counts_repeat_exactly_in_fresh_process": not mismatched,
    }
    detail = {
        "jobs": len(plain.digests),
        "self_checks": self_checks,
        "missing_layers": tracer.missing,
        "stale_bindings": stale,
        "uncovered_layers": uncovered,
        "count_mismatches": mismatched,
        "self_s": {name: v[2] for name, v in sorted(tracer.totals().items())},
        "spans_by_parent": tracer.by_parent(),
        "layer_map": [
            {"layer": n, "moves": list(m), "on": list(o), "dominant": d}
            for n, _k, m, o, d in tracing.LAYERS
        ],
    }
    failures = plain.failures + traced.failures
    correct = failures == 0 and all(self_checks.values())
    return metrics, detail, 2 * len(plain.digests), failures, correct


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "wagnerlift" / "__init__.py").is_file():
        print(f"error: no wagnerlift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            elapsed, ref_s, _ = _timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": elapsed, "ref_s": ref_s}))
            return 0
        if args.counts_probe:
            print(json.dumps(_traced(args, workdir)[0].exact_counts()))
            return 0
        load_before = _loadavg()
        run = _trace_run if args.trace else _timed_run
        metrics, detail, attempted, failed, correct = run(args, workdir)
        report = _metadata(args) | {"loadavg_before": load_before,
                                    "loadavg_after": _loadavg()} | detail
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
