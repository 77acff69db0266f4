"""List the lines of src/equichar that tier-1 never runs.

    python3 tools/trace_lines.py

Run from anywhere; it takes about two minutes.  It runs the tier-1 suite
in this process under a sys.settrace line tracer, leaving out criterion 2
for time (leaving tests out can only make the check stricter), then prints
every executable line of src/equichar that no test ran.  It exits 1 if
any of them lies outside a `__repr__` body, else 0.

pytest's own result is reported on a line of its own and does not decide
the exit code: under the tracer's 3-4x slowdown, a test that bounds its
wall-clock time can fail without any line going unrun.
"""

import ast
import os
import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equichar"
LEFT_OUT = "tests/test_acceptance.py::test_criterion_2_theorem1_grid"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Every line some instruction of the module's code objects sits on."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def repr_lines(path: pathlib.Path) -> set[int]:
    """The body lines of every __repr__ in the module."""
    return {line for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "__repr__"
            for line in range(node.body[0].lineno, node.end_lineno + 1)}


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code over tier-1 and the lines run in each file."""
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            hits.setdefault(name, set())
            return local
        return None

    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider", "--deselect", LEFT_OUT])
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = run_traced()
    unrun = outside = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        reprs = repr_lines(path)
        source = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for line in sorted(executable_lines(path) - ran):
            unrun += 1
            tag = "__repr__" if line in reprs else "unrun"
            outside += line not in reprs
            print(f"{path.relative_to(ROOT)}:{line}: {tag}: "
                  f"{source[line - 1].strip()}")
    print(f"{unrun} unrun lines, {outside} outside __repr__ bodies")
    print(f"pytest exit code {code} (reported only; it does not set the "
          "exit code)")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
