"""No floating point in a computed value.

Every value the package computes is an int, a `Fraction` or a ring
element built from them.  An AST walk of `src/equichar` finds each true
division, float literal, float-making builtin or `math` function and clock
read, keyed by module, enclosing function and kind, and they must be
exactly the reviewed places in REVIEWED:

- `rhs_theorem2`'s `_phi(rs, weights) * d / 2`, whose operands are
  `Fraction`s, so the quotient is one;
- the timing of `harness.py`: its clock reads, the `0.0` default of a
  degree's milliseconds and the `round` of `--timings` JSON.

A place added to REVIEWED is recorded in CHANGES.md.  The goldens' inputs
and outputs, including each JSON stdout they hold, hold no float either.
Exact division over the table of marks is done by `burnside.py` alone."""

import ast
import json
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equichar"
GOLDENS = ["tests/golden_lext.json", "tests/golden_power.json",
           "tests/golden_marks.json", "bench/goldens.json"]
FLOAT_TEXT = re.compile(r"\d\.\d|\d[eE][-+]?\d")
FLOAT_NAMES = {"float", "round", "complex"}
FLOAT_ATTRS = {"perf_counter", "monotonic", "time", "truediv", "sqrt",
               "log", "log2", "log10", "exp", "pi", "e", "inf", "nan"}

REVIEWED = Counter({
    ("motivic.py", "rhs_theorem2", "/"): 1,
    ("harness.py", "DegreeCheck.__init__", "0.0"): 1,
    ("harness.py", "VerificationReport.to_json", "round"): 1,
    ("harness.py", "_tally", "time.perf_counter"): 2,
    ("harness.py", "_degree_checks", "time.perf_counter"): 2,
})


def _kind(node):
    """What makes node a float site, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            isinstance(node.op, ast.Div):
        return "/"
    if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                               complex):
        return repr(node.value)
    if isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in FLOAT_ATTRS:
        return ast.unparse(node)
    if isinstance(node, ast.ImportFrom) and \
            FLOAT_ATTRS.intersection(a.name for a in node.names):
        return f"from {node.module} import"
    return None


def _sites(tree, module, scope=""):
    """(module, qualified function or class around it, kind) per site."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _sites(node, module,
                              f"{scope}.{node.name}" if scope else node.name)
            continue
        kind = _kind(node)
        if kind:
            yield module, scope, kind
        yield from _sites(node, module, scope)


def test_floats_only_at_reviewed_places():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found.update(_sites(ast.parse(path.read_text()), path.name))
    assert found == REVIEWED


def test_the_walk_finds_each_kind():
    code = ("def f(x):\n    x /= 2\n    return float(x) + 0.5 + "
            "math.sqrt(x) + round(x / 3)\n"
            "from time import perf_counter\n")
    assert Counter(_sites(ast.parse(code), "m.py")) == Counter({
        ("m.py", "f", "/"): 2, ("m.py", "f", "float"): 1,
        ("m.py", "f", "0.5"): 1, ("m.py", "f", "math.sqrt"): 1,
        ("m.py", "f", "round"): 1, ("m.py", "", "from time import"): 1})


@pytest.mark.parametrize("name", GOLDENS)
def test_goldens_hold_no_float(name):
    """JSON writes a float with a point or an exponent, and the JSON
    stdout a golden holds is escaped text, so neither shows in the file."""
    text = (ROOT / name).read_text()
    assert json.loads(text) and not FLOAT_TEXT.findall(text)


def test_only_burnside_solves_over_the_table_of_marks():
    """Every back-substitution reads the ring's down-sets, so no module but
    `burnside.py` names `_down_sets`."""
    naming = {path.name for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if "_down_sets" in (getattr(node, "attr", None),
                                  getattr(node, "id", None))}
    assert naming == {"burnside.py"}
