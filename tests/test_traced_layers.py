"""Every layer the benchmark's tracer wraps is still a binding of the library,
so a refactor that drops one fails here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import wagnerlift
import wagnerlift.cli  # noqa: F401  (imports every module a layer names)


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
