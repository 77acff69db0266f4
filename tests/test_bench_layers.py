"""The benchmark's layer tracing names code that exists.

bench/layers.py wraps equichar functions and methods by module and dotted
path when a traced run starts, so a rename in the package would otherwise
only show up in `bench/run.py --trace 1`.  Each path must resolve on the
module it names to an attribute that its owner defines itself, because
the tracer patches the owner's own __dict__."""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS = (pathlib.Path(__file__).resolve().parent.parent
          / "bench" / "layers.py")
_spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("layer, module_name, path",
                         layers.SPANS + layers.COUNTERS)
def test_traced_path_resolves(layer, module_name, path):
    module = importlib.import_module("equichar." + module_name)
    owner, attr = layers._resolve(module, path)
    assert attr in vars(owner), f"{layer}: equichar.{module_name}.{path}"
