"""Every function and class in the package has a caller or a reader.

A definition whose name appears nowhere in the package, the benchmark
scripts or the README is code that only its own tests keep alive.  Names
count when used as identifiers or inside string constants (the benchmark
patches layers by dotted name), but not inside docstrings, which describe
code rather than use it; dunder methods are exempt.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree) -> set[int]:
    """ids of the string constants that open a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def test_no_orphan_definitions():
    src = sorted((ROOT / "src" / "equichar").glob("*.py"))
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    defined = {}
    for path in src + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    used.update(re.findall(r"\w+", node.value))
            elif path in src and isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    orphans = {n: where for n, where in defined.items() if n not in used}
    assert not orphans, f"defined but never named elsewhere: {orphans}"
