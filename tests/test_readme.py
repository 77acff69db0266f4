"""The README's examples run as written.

Each fenced `sh` block under `## CLI` runs in a fresh directory: a
`cat > FILE <<'EOF'` heredoc writes FILE, and an `equichar ...` line runs
through `cli.main` and must exit 0.  A line that ends in a comment, such
as `# 3`, must print exactly that.  Any other line fails the test, so
every line of these blocks is run.  The `python` block under
`## Library use` runs as it stands."""

import pathlib
import re
import shlex

import pytest

from equichar import cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()
HEREDOC = re.compile(r"cat > (\S+) <<'EOF'")


def _blocks(section: str, lang: str) -> list[str]:
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```$", body, re.S | re.M)


CLI_BLOCKS = _blocks("CLI", "sh")


def test_the_sections_hold_examples():
    assert len(CLI_BLOCKS) >= 5 and len(_blocks("Library use", "python")) == 1


@pytest.mark.parametrize("block", CLI_BLOCKS,
                         ids=[f"block{i}" for i in range(len(CLI_BLOCKS))])
def test_cli_block_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(block.splitlines())
    for line in lines:
        if not line.strip():
            continue
        heredoc = HEREDOC.fullmatch(line)
        if heredoc:
            text = "".join(f"{x}\n" for x in iter(lines.__next__, "EOF"))
            pathlib.Path(heredoc[1]).write_text(text)
            continue
        command, _, expected = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "equichar", f"not an equichar command: {line}"
        code = cli.main(argv[1:])
        out, err = capsys.readouterr()
        assert code == 0, f"{line}\n{err}"
        if expected:
            assert out.strip() == expected.strip(), line


def test_library_block_runs():
    [code] = _blocks("Library use", "python")
    exec(compile(code, "README.md", "exec"), {})
