"""Only `io.read` names an input file.

Every `--input` verb reads through `io.read(path, parse)`, which prefixes
the file name once to any usage or budget error raised while the file is
loaded or parsed.  So no other function in the package takes a `path`, and
outside `io` the `--input` value is used only as the path handed to
`io.read`, never formatted into a message."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "equichar"


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_only_read_and_load_json_take_a_path():
    takers = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if p is not None]
                if "path" in names:
                    takers.add((module, getattr(node, "name", "<lambda>")))
    assert takers == {("io.py", "read"), ("io.py", "load_json")}


def test_input_flag_only_reaches_io_read():
    """Each `<x>.input` outside io.py is the first argument of `io.read`."""
    stray = []
    for module, tree in _trees():
        if module == "io.py":
            continue
        read_paths = {id(node.args[0]) for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and node.args
                      and ast.unparse(node.func) == "io.read"}
        stray += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "input"
                  and id(node) not in read_paths]
    assert not stray, f"--input used outside io.read: {stray}"
