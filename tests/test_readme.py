"""The README's transcripts are outputs of the current code: every
`$ sharp-weights ...` line of "Command line" prints its block, and every
commented value of "Library use" is what its expression returns."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from sharpweights import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def transcripts():
    """(argv, expected stdout) for each command of "Command line"."""
    for block in fenced(section("Command line"), "text"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            yield pytest.param(shlex.split(command)[1:], output, id=command)


def normalized(text):
    # the README wraps long records for display
    return " ".join(text.split())


@pytest.mark.parametrize("argv, expected", list(transcripts()))
def test_command_line_transcript(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert normalized(capsys.readouterr().out) == normalized(expected)


def test_library_use_values():
    (block,) = fenced(section("Library use"), "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].split()
        if isinstance(stmt, ast.Expr) and comment:
            assert repr(eval(source, namespace)) == comment[0], source
            checked += 1
        else:
            exec(source, namespace)
    assert checked == 4
