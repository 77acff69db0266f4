"""List the lines of src/equichar that tier-1 never runs.

    python3 tools/trace_lines.py

Run from anywhere; it takes about two minutes.  It runs the tier-1 suite
in this process under a sys.settrace line tracer, leaving out criterion 2
for time (leaving tests out can only make the check stricter), then prints
every executable line of src/equichar that no test ran.  It exits 1 if
there is any, else 0.

Lines are counted per code object (file, qualified name, first line), so
a lambda or generator expression whose body never runs is listed even
though the line that makes it ran.  It needs Python 3.11 or later.

pytest's own result is reported on a line of its own and does not decide
the exit code: under the tracer's 3-4x slowdown, a test that bounds its
wall-clock time can fail without any line going unrun.
"""

import dis
import os
import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equichar"
LEFT_OUT = "tests/test_acceptance.py::test_criterion_2_theorem1_grid"


def key(code: types.CodeType) -> tuple[str, str, int]:
    return code.co_filename, code.co_qualname, code.co_firstlineno


def executable_lines(path: pathlib.Path) -> dict[tuple, set[int]]:
    """The lines of each of the module's code objects that hold its body:
    the instructions after the first RESUME, as the prologue before it
    sits on the def line and fires no line event."""
    out, stack = {}, [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        body = list(dis.get_instructions(code))
        start = [i.opname for i in body].index("RESUME") + 1
        out.setdefault(key(code), set()).update(
            i.positions.lineno for i in body[start:] if i.positions.lineno)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return out


def run_traced() -> tuple[int, dict[tuple, set[int]]]:
    """pytest's exit code over tier-1 and the lines run in each code
    object of the package."""
    import pytest

    prefix = str(SRC) + os.sep
    hits: dict[tuple, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[key(frame.f_code)].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.setdefault(key(frame.f_code), set())
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
    # read before the run, so a source edited while it runs is not
    # reported as unrun
    sources = {path: (path.read_text().splitlines(), executable_lines(path))
               for path in sorted(SRC.glob("*.py"))}
    code, hits = run_traced()
    unrun = 0
    print()
    for path, (source, executable) in sources.items():
        missed = sorted((line, k[1]) for k, lines in executable.items()
                        for line in lines - hits.get(k, set()))
        for line, name in missed:
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: unrun in {name}: "
                  f"{source[line - 1].strip()}")
    print(f"{unrun} unrun lines")
    print(f"pytest exit code {code} (reported only; it does not set the "
          "exit code)")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
