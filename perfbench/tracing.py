"""Per-layer tracing installed from outside the library.

Each traced name is a public function of one wagnerlift module.  The wrapper
is installed at every binding a caller can look it up through (module
globals such as ``geodesic.frame_fields``, module-level dicts such as
``jets.FUNCTIONS``, and class dicts such as ``Jet.__rmul__``), found by
object identity, so no call escapes through an alias.

Timed names record a span per call and are aggregated in memory per
(job, name, parent) as calls, total and self time; self time is the span's
duration minus the time covered by its child spans.  Jet arithmetic is too
fine-grained for spans, so ``jets`` is measured by counts only and its time
stays in the self time of its caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layer table: (traced name, kind, end-to-end metrics it should move,
# workloads it should move them on, dominant workload).  The dominant
# workload is where the coverage self-check demands nonzero calls.
# Kinds: "span" (calls and self time), "count" (calls only), "order" (spans
# plus calls per jet order), "bytes" (spans plus bytes written).
_GEODESIC_CHURN = ("geodesic-long", "surface-churn")
LAYERS = (
    ("expr.eval_jet", "order", ("work_per_kref", "job_p50_ref"), _GEODESIC_CHURN, "geodesic-long"),
    ("jets.Jet.__mul__", "count", ("work_per_kref", "job_p50_ref"), _GEODESIC_CHURN, "geodesic-long"),
    ("jets.compose", "count", ("work_per_kref", "job_p50_ref"), _GEODESIC_CHURN, "geodesic-long"),
    ("jets.diff", "count", ("work_per_kref", "job_p50_ref"), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("jets.Jet.__init__", "count", ("work_per_kref", "job_p50_ref"), _GEODESIC_CHURN, "geodesic-long"),
    ("surface.frame_fields", "span", ("work_per_kref", "peak_rss_mb"), ("geodesic-long",), "geodesic-long"),
    ("geodesic.lift_rhs", "span", ("work_per_kref", "peak_rss_mb"), ("geodesic-long",), "geodesic-long"),
    ("geodesic.integrate_lift", "span", ("work_per_kref", "peak_rss_mb"), ("geodesic-long",), "geodesic-long"),
    ("geodesic.wong_residual", "span", ("job_p50_ref",), _GEODESIC_CHURN, "geodesic-long"),
    ("geodesic.project", "span", ("job_p50_ref",), _GEODESIC_CHURN, "geodesic-long"),
    ("geodesic.with_wong", "span", ("job_p50_ref",), _GEODESIC_CHURN, "geodesic-long"),
    ("geodesic.write_csv", "bytes", ("job_p50_ref",), _GEODESIC_CHURN, "geodesic-long"),
    ("cli.run", "span", ("job_p50_ref",), _GEODESIC_CHURN, "geodesic-long"),
    ("surface.surface_jets", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("connection.koszul", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("connection.curvature", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("connection.koszul_values", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.lifted_structure", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.bracket_structure", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.lifted_connection", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.lifted_curvature_closed", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.lifted_curvature_oracle", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.nonholonomity", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("lift.verify_lift", "span", ("work_per_kref",), ("verify-sweep", "surface-churn"), "verify-sweep"),
    ("expr.parse", "span", ("setup_s", "job_p50_ref"), ("surface-churn",), "surface-churn"),
    ("surface.ConformalSurface.from_config", "span", ("setup_s", "job_p50_ref"), ("surface-churn",), "surface-churn"),
    ("surface.ConformalSurface.contains", "count", ("setup_s", "job_p50_ref"), ("surface-churn", "geodesic-long"), "surface-churn"),
)

# Short metric prefixes for the jets counters.
_COUNT_PREFIX = {
    "jets.Jet.__mul__": "jets.mul",
    "jets.Jet.__init__": "jets.new",
}
MAX_JET_ORDER = 4


def metric_prefix(name: str) -> str:
    return _COUNT_PREFIX.get(name, name)


def per_layer_metrics(tracer: "Tracer", traced_s: float) -> dict[str, tuple]:
    """Every per-layer metric of a traced pass: name -> (value, unit).

    Self time is given as a share of the traced jobs' time, so a layer that a
    workload never reaches reads 0 rather than a time.
    """
    counts, totals = tracer.exact_counts(), tracer.totals()
    out = {}
    for name, kind, *_ in LAYERS:
        prefix = metric_prefix(name)
        out[f"{prefix}.calls"] = (counts.get(f"{prefix}.calls", 0), "count")
        if kind != "count":
            own = totals[name][2] if name in totals else 0.0
            out[f"{prefix}.self_pct"] = (100.0 * own / traced_s, "%")
        if kind == "order":
            for n in range(MAX_JET_ORDER + 1):
                out[f"{prefix}.o{n}.calls"] = (counts.get(f"{prefix}.o{n}.calls", 0), "count")
        if kind == "bytes":
            out[f"{prefix}.bytes"] = (counts.get(f"{prefix}.bytes", 0), "B")
    out["jets.mul.coeff_products"] = (counts.get("jets.mul.coeff_products", 0), "count")
    return out


class _CountingStream:
    """Pass-through text stream that counts the UTF-8 bytes written."""

    def __init__(self, stream, counter, key):
        self._stream, self._counter, self._key = stream, counter, key

    def write(self, text):
        self._counter[self._key] += len(text.encode("utf-8"))
        return self._stream.write(text)


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        # (job, name, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.job = None
        self._stack: list[list] = []  # [name, time covered by children]
        self._undo: list[tuple] = []
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []  # traced names the library no longer has

    # -- spans ----------------------------------------------------------------

    def _timed(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1][0] if stack else "job"
                if stack:
                    stack[-1][1] += elapsed
                entry = spans[(self.job, name, parent)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

        return wrapper

    def _make_wrapper(self, name, kind, fn, jets):
        counts = self.counts
        if kind == "span":
            return self._timed(name, fn)
        if kind == "order":
            timed = self._timed(name, fn)

            def by_order(expr, point, order, *rest, **kwargs):
                counts[f"{name}.o{order}.calls"] += 1
                return timed(expr, point, order, *rest, **kwargs)

            return by_order
        if kind == "bytes":
            timed = self._timed(name, fn)

            def counting(trajectory, stream, *rest, **kwargs):
                wrapped = _CountingStream(stream, counts, f"{name}.bytes")
                return timed(trajectory, wrapped, *rest, **kwargs)

            return counting
        if name == "jets.Jet.__mul__":
            table, jet_type = jets._MUL_TABLE, jets.Jet

            def mul(a, b):
                counts["jets.mul.calls"] += 1
                if isinstance(b, jet_type):
                    counts["jets.mul.coeff_products"] += len(table[min(a.order, b.order)])
                return fn(a, b)

            return mul
        key = f"{metric_prefix(name)}.calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------------

    @staticmethod
    def _containers(modules):
        """Every namespace a caller can look a function up through."""
        for module in modules:
            yield vars(module), module
            for value in list(vars(module).values()):
                if isinstance(value, dict):
                    yield value, None
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    yield vars(value), value

    def install(self, package):
        """Replace every binding of every traced function with its wrapper."""
        modules = _modules(package)
        jets = sys.modules[f"{package.__name__}.jets"]
        for name, kind, *_ in LAYERS:
            try:
                original = _resolve(package, name)
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            self.originals[name] = original
            raw = original.__func__ if isinstance(original, classmethod) else original
            wrapper = self._make_wrapper(name, kind, raw, jets)
            replacement = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
            for namespace, owner in self._containers(modules):
                for key, value in list(namespace.items()):
                    if value is original:
                        self._bind(namespace, owner, key, replacement, original)

    def _bind(self, namespace, owner, key, value, original):
        if owner is None:
            namespace[key] = value
        else:
            setattr(owner, key, value)
        self._undo.append((namespace, owner, key, original))

    def uninstall(self):
        for namespace, owner, key, original in reversed(self._undo):
            if owner is None:
                namespace[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def stale_bindings(self, package) -> list[str]:
        """Bindings still pointing at an unwrapped original (should be none)."""
        stale = []
        for namespace, owner in self._containers(_modules(package)):
            for key, value in namespace.items():
                for name, original in self.originals.items():
                    if value is original:
                        stale.append(f"{getattr(owner, '__name__', 'dict')}.{key} -> {name}")
        return stale

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] summed over jobs and parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_job, name, _parent), (calls, total, own) in self.spans.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        counts = dict(self.counts)
        for name, (calls, _total, _own) in self.totals().items():
            counts[f"{metric_prefix(name)}.calls"] = calls
        return dict(sorted(counts.items()))

    def by_parent(self) -> list[dict]:
        merged: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_job, name, parent), values in self.spans.items():
            entry = merged[(name, parent)]
            for i, v in enumerate(values):
                entry[i] += v
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(merged.items())
        ]


def _modules(package):
    prefix = package.__name__
    return [
        m for k, m in sorted(sys.modules.items())
        if m is not None and (k == prefix or k.startswith(prefix + "."))
    ]


def _resolve(package, name):
    module_name, *path = name.split(".")
    obj = sys.modules[f"{package.__name__}.{module_name}"]
    for i, part in enumerate(path):
        # Class attributes are read from the class dict so a classmethod stays
        # a classmethod object rather than a bound method.
        obj = vars(obj)[part] if i == len(path) - 1 and isinstance(obj, type) else getattr(obj, part)
    return obj
