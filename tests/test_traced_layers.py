"""Every layer the benchmark's tracer wraps is still a binding of the library,
and a fresh geodesic job still calls the layers the tracer's coverage check
needs on it, so a refactor that drops one fails here, not only in a traced
benchmark run."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import wagnerlift
import wagnerlift.cli  # noqa: F401  (imports every module a layer names)
from wagnerlift import cli, connection, expr, geodesic, jets, lift, surface
from wagnerlift.expr import COMPILE_AFTER


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", [layer[0] for layer in tracing.LAYERS])
def test_traced_layer_resolves_in_the_library(name):
    binding = tracing._resolve(wagnerlift, name)
    assert callable(binding) or isinstance(binding, classmethod)


def _count_calls(monkeypatch, layers) -> Counter:
    """Count the calls of each (module, name) in ``layers`` through every
    binding of it in the library, as the tracer wraps them."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("wagnerlift")]
    for module, name in layers:
        original = getattr(module, name)

        def counted(*args, _fn=original, _key=f"{module.__name__}.{name}"):
            counts[_key] += 1
            return _fn(*args)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)
    return counts


def test_a_fresh_geodesic_job_reaches_the_dominant_layers_then_steps_fast(monkeypatch, capsys):
    # perfbench's dominant_layers_called check needs these layers called on
    # geodesic-long; a fresh surface reaches them before its tape compiles.
    counts = _count_calls(monkeypatch, [(geodesic, "lift_rhs"), (surface, "frame_fields"),
                                        (expr, "eval_jet"), (jets, "compose"),
                                        (geodesic, "_rk4_step")])
    argv = ["geodesic", "--surface", "sphere", "--start=0.3,0.2,0", "--velocity=0.6,0,0.8",
            "--t-max", "0.1", "--step", "0.001", "--wong"]
    assert cli.run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 101
    for layer in ["geodesic.lift_rhs", "surface.frame_fields", "expr.eval_jet", "jets.compose"]:
        assert counts[f"wagnerlift.{layer}"] > 0, layer
    # Stage 1 and three more stages per sample reach the COMPILE_AFTER jet
    # runs in five samples, stages 2-4 through lift_rhs; no sample reruns.
    assert counts["wagnerlift.geodesic.lift_rhs"] == 3 * COMPILE_AFTER // 4
    assert counts["wagnerlift.geodesic._rk4_step"] == 0


def test_a_second_verify_run_still_reaches_the_dominant_layers(monkeypatch):
    # perfbench's traced pass reruns the untraced pass's jobs, so verify-sweep's
    # traced jobs run on compiled tapes; its dominant_layers_called check then
    # needs these layers called all the same.
    routes = ["lifted_structure", "bracket_structure", "lifted_connection",
              "lifted_curvature_closed", "lifted_curvature_oracle", "nonholonomity"]
    layers = [(jets, "diff"), (surface, "surface_jets"), (connection, "koszul"),
              (connection, "curvature"), (connection, "koszul_values")]
    layers += [(lift, name) for name in routes]
    custom = surface.ConformalSurface(
        name="custom", lam=expr.parse("x1^2 + x2^2 + 0.05*sin(x1 - 2*x2)")
    )
    lift.verify_lift(custom, 30, 1, 1e-8)  # the untraced pass compiles the tapes
    assert custom._lam_tape.compiled[4] is not None
    counts = _count_calls(monkeypatch, layers)
    assert lift.verify_lift(custom, 30, 1, 1e-8).passed
    for module, name in layers:
        assert counts[f"{module.__name__}.{name}"] > 0, name


def test_a_warm_verify_point_runs_the_pipeline_kernel_on_two_lambda_partials(monkeypatch):
    # On a compiled tape the order-4 record takes the two first partials of
    # lambda's jet and the generated pipeline kernel, and no Jet arithmetic.
    custom = surface.ConformalSurface(
        name="custom", lam=expr.parse("x1^2 + x2^2 + 0.05*sin(x1 - 2*x2)")
    )
    lift.verify_lift(custom, 30, 1, 1e-8)
    assert custom._lam_tape.compiled[4] is not None
    counts = _count_calls(monkeypatch, [(jets, "diff"), (jets, "compose")])
    multiply = jets.Jet.__mul__

    def counted(*args):
        counts["wagnerlift.jets.Jet.__mul__"] += 1
        return multiply(*args)

    monkeypatch.setattr(jets.Jet, "__mul__", counted)
    monkeypatch.setattr(jets.Jet, "__rmul__", counted)
    assert lift.verify_lift(custom, 1, 2, 1e-8).passed
    assert counts["wagnerlift.jets.diff"] == 2
    assert counts["wagnerlift.jets.compose"] == 0
    assert counts["wagnerlift.jets.Jet.__mul__"] == 0
