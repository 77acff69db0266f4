"""Every function and class in the package has a caller or a reader.

A definition that nothing in the package, the benchmark scripts or the
README's code names is code that only its own tests keep alive.  What
counts as naming it:

- in the package and the benchmark scripts, an identifier, an attribute
  access `.name`, or a string constant that is an identifier or a dotted
  path of identifiers (the benchmark patches layers by dotted name), but
  not a docstring, which describes code rather than uses it, and nothing
  in `__init__.py`, whose re-exports only pass a name on;
- in the README, a word inside a code span or a fenced block, not prose.

A method counts only as an attribute (`x.name`, `"Class.name"`), so a
function, a local or a label that shares its name does not keep it alive.
Dunder methods, and methods that override one inherited from outside the
package, are exempt: the language or that base class calls them.  No two
package modules define the same top-level name, so one definition cannot
hide behind another.  Every budget or limit constant is named in a row of
the README's Budgets table, and none has a per-call override.
"""

import argparse
import ast
import importlib
import pathlib
import re

import equichar
from equichar.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equichar"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (ast.FunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
README_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _docstrings(tree) -> set[int]:
    """ids of the string constants that open a module, class or function."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _readme_code() -> str:
    """The README's code spans and fenced blocks, one per line."""
    return "\n".join(README_CODE.findall((ROOT / "README.md").read_text()))


def _uses(tree, names: set, attrs: set) -> None:
    """Add the identifiers a module names to names, and the attributes it
    reads (`.x`, or the tail of a dotted string "a.x") to attrs."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings \
                and DOTTED.fullmatch(node.value):
            head, *tail = node.value.split(".")
            names.add(head)
            attrs.update(tail)


def _definitions(tree):
    """(name, line, owner) for every non-dunder function and class; the
    owner is the class name for a method, else None."""
    owner = {id(f): c.name for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, DEFS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno, owner.get(id(node))


def _inherited(module: str, owner: str, name: str) -> bool:
    """Whether the class inherits name from a base outside the package."""
    cls = getattr(importlib.import_module(f"equichar.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("equichar"))


def test_no_orphan_definitions():
    names, attrs = set(), set()
    for word in re.finditer(r"(\.?)(\w+)", _readme_code()):
        (attrs if word[1] else names).add(word[2])
    src = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text()) for p in src}
    for path in sorted((ROOT / "bench").glob("*.py")):
        _uses(ast.parse(path.read_text()), names, attrs)
    for tree in trees.values():
        _uses(tree, names, attrs)
    orphans, top = [], {}
    for path, tree in trees.items():
        for name, line, owner in _definitions(tree):
            if not (name in attrs or (name in names if owner is None else
                                      _inherited(path.stem, owner, name))):
                orphans.append(f"{path.name}:{line} {name}")
        for node in tree.body:
            if isinstance(node, DEFS):
                top.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
    orphans += [f"{name} defined at {', '.join(places)}"
                for name, places in top.items() if len(places) > 1]
    assert not orphans, f"unnamed or defined twice: {orphans}"


def test_every_export_is_documented():
    documented = set(re.findall(r"\w+", _readme_code()))
    missing = sorted(set(equichar.__all__) - documented)
    assert not missing, f"exported but not named in README code: {missing}"


def test_every_budget_is_in_the_readme_table():
    """Every module-level *_BUDGET or *_LIMIT constant of the package is
    named, as a code span, in a row of the README's Budgets table."""
    section = (ROOT / "README.md").read_text().split("\n## Budgets\n")[1]
    rows = re.findall(r"^\|.*", section.split("\n## ")[0], re.M)
    named = set(re.findall(r"`(\w+)`", "\n".join(rows)))
    constants = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            constants.update(t.id for t in targets if isinstance(t, ast.Name)
                             and re.fullmatch(r"\w+_(BUDGET|LIMIT)", t.id))
    assert "HOM_CHECK_BUDGET" in constants
    missing = sorted(constants - named)
    assert not missing, f"not in the README Budgets table: {missing}"


def test_budgets_have_no_per_call_overrides():
    """A budget is set one way, by its module constant: no package
    function takes a parameter that defaults to a *_BUDGET or *_LIMIT
    constant, and no CLI option's dest starts with max_."""
    budget = re.compile(r"\w+_(BUDGET|LIMIT)")
    overrides = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]
                overrides += [
                    f"{path.name}:{node.lineno} {node.name}"
                    for d in defaults for n in ast.walk(d)
                    if budget.fullmatch(getattr(n, "id", None)
                                        or getattr(n, "attr", ""))]
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if action.dest.startswith("max_"):
                overrides.append(f"{parser.prog} {action.option_strings}")
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert not overrides, f"per-call budget overrides: {overrides}"


def test_no_module_imports_the_package_root():
    """The root loads a module only when one of its names is asked for, so
    a package module that imported from the root (`import equichar`,
    `from equichar import ...`, `from . import <public name>`) would load
    modules it does not use.  Importing a sibling module stays allowed."""
    public = set(equichar.__all__)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                bad = [a.name for a in node.names if a.name == "equichar"]
            elif isinstance(node, ast.ImportFrom):
                root = (node.level, node.module) in ((0, "equichar"),
                                                     (1, None))
                bad = [a.name for a in node.names if root and (
                    node.level == 0 or a.name in public or a.name == "*")]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in bad]
    assert not offenders, f"imports from the package root: {offenders}"
