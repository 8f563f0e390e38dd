"""A fixed reference kernel timed alongside the jobs, as the unit of job time.

The VM this benchmark was written on shares its host: identical work runs up
to ~1.8x slower for stretches of seconds to minutes, so job times in seconds
move with the host more than with the program.  Such a slowdown stretches
the library's interpreter-bound code and a pure-Python kernel in nearly the
same proportion, so the benchmark also times this kernel between jobs and
reports job time as a multiple of it.  One ``ref`` is the median duration
of one kernel call measured next to the job (before and after it), about
1 ms on that VM.  Set-up is timed the same way and stated in seconds at
``NOMINAL_S`` per ref.

The kernel is pure Python and belongs to the benchmark, not the library, so
a change to the library cannot move it.  It mixes what the library spends
its time on: small immutable objects with ``__slots__``, tuple building,
float products driven by an index table (as in truncated Taylor
products), ``math`` calls, dict lookups and float formatting.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 1e-3  # seconds per ref, to state set-up time in seconds at a fixed speed
CALLS_PER_SAMPLE = 5  # kernel calls per sample; the sample is their median
SAMPLE_EVERY_S = 0.1  # of job time, between samples

_N = 10
_TABLE = tuple((i, j, i + j) for i in range(_N) for j in range(_N) if i + j < _N)
_NAMES = {k: f"c{k}" for k in range(_N)}


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c: tuple):
        self.c = c

    def __mul__(self, other: "_Poly") -> "_Poly":
        out = [0.0] * _N
        a, b = self.c, other.c
        for i, j, k in _TABLE:
            out[k] += a[i] * b[j]
        return _Poly(tuple(out))


def kernel(rounds: int = 140) -> float:
    """One reference call: a fixed amount of interpreter work."""
    p = _Poly(tuple(1.0 / (k + 1) for k in range(_N)))
    acc, seen = 0.0, {}
    for r in range(rounds):
        q = p * _Poly(tuple(math.sin(0.1 * (r + k)) for k in range(_N)))
        acc += math.sqrt(abs(q.c[3]) + 1.0) + math.exp(-abs(q.c[_N - 1]))
        seen[_NAMES[r % _N]] = f"{acc:.17g}"
    return acc + len(seen)


def sample() -> float:
    """Median seconds of ``CALLS_PER_SAMPLE`` kernel calls, back to back."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Samples the kernel between jobs and converts job seconds to refs.

    ``after_job(seconds)`` is called after every job; once at least
    ``SAMPLE_EVERY_S`` of job time has passed since the last sample, it takes
    a new one.  Each job is normalised by the mean of the samples taken just
    before and just after it, so its unit follows the host's speed during the
    job.  ``finish()`` takes the closing sample and returns the jobs' times
    in refs, in job order.
    """

    def __init__(self):
        for _ in range(20):  # warm the kernel's code paths before the first sample
            kernel()
        self.samples = [sample()]
        self._pending = []  # job seconds since the last sample
        self._since = 0.0
        self.refs = []

    def _close(self):
        after = sample()
        unit = 0.5 * (self.samples[-1] + after)
        self.refs.extend(s / unit for s in self._pending)
        self.samples.append(after)
        self._pending, self._since = [], 0.0

    def after_job(self, seconds: float) -> None:
        self._pending.append(seconds)
        self._since += seconds
        if self._since >= SAMPLE_EVERY_S:
            self._close()

    def finish(self) -> list[float]:
        if self._pending:
            self._close()
        return self.refs
