"""The package root loads a module only when one of its names is asked for."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import equichar

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
EVERY_MODULE = sorted(
    "equichar" if p.stem == "__init__" else f"equichar.{p.stem}"
    for p in (SRC / "equichar").glob("*.py"))


@pytest.mark.parametrize("imports, modules, numbers", [
    ("equichar.groups, equichar.burnside",
     ["equichar", "equichar.burnside", "equichar.cells", "equichar.errors",
      "equichar.groups", "equichar.gsets"], []),
    ("equichar.cli", EVERY_MODULE, ["decimal", "fractions"]),
], ids=["burnside", "cli"])
def test_a_cold_import_loads_only_what_it_uses(imports, modules, numbers):
    """The Burnside ring alone loads neither the series modules nor
    fractions and decimal; the CLI loads every module."""
    code = (f"import json, sys, {imports}; print(json.dumps(["
            "sorted(m for m in sys.modules if m.split('.')[0] == 'equichar'),"
            " sorted({'decimal', 'fractions'} & set(sys.modules))]))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [modules, numbers]


def test_every_public_name_resolves_to_its_home_definition():
    for module, names in equichar._EXPORTS.items():
        home = importlib.import_module(f"equichar.{module}")
        for name in names:
            assert getattr(equichar, name) is getattr(home, name), name
    assert equichar.__all__ == sorted(
        n for names in equichar._EXPORTS.values() for n in names)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from equichar import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == \
        set(equichar.__all__)
    for name in equichar.__all__:
        assert namespace[name] is getattr(equichar, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        equichar.no_such_name
    with pytest.raises(ImportError):
        exec("from equichar import no_such_name", {})
