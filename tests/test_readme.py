"""The command lines in the README run and exit 0, and its Library example
gives the values its comments state."""

import ast
import shlex
from pathlib import Path

import pytest

from lcsideals.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("lcsideals ")]


def test_readme_has_command_lines():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, capsys):
    assert main(shlex.split(line)[1:]) == 0
    capsys.readouterr()


def test_readme_library_block_values():
    # each expression line ends in a comment stating its value: "# True"
    src = README.read_text().split("## Library", 1)[1].split("```python", 1)[1]
    src = src.split("```", 1)[0]
    lines = src.splitlines()
    ns: dict = {}
    stated = []
    for stmt in ast.parse(src).body:
        code = ast.get_source_segment(src, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, ns)
            continue
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        assert comment.startswith("#"), code
        stated.append(comment[1:].strip())
        assert repr(eval(code, ns)) == stated[-1], code
    assert stated == ["True", "False", "3"]
