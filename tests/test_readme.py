"""The command lines in the README run and exit 0."""

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
