"""The README's examples run as written.

The ``## Library`` python block runs as a script, and each command of the
``## CLI`` sh block runs through ``python -m sqcka.cli`` in a temporary
directory, without its bracketed optional arguments and its comment.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sqcka

README = Path(__file__).parents[1] / "README.md"
SRC = Path(sqcka.__file__).parents[1]


def code_block(section: str, language: str) -> str:
    """The first ``language`` code block after the heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n{section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def cli_commands() -> list[list[str]]:
    commands = []
    for line in code_block("## CLI", "sh").splitlines():
        line = re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0])
        if line.strip():
            argv = shlex.split(line)
            assert argv[0] == "sqcka", line
            commands.append(argv[1:])
    return commands


def run(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_library_example(tmp_path):
    script = tmp_path / "example.py"
    script.write_text(code_block("## Library", "python"), encoding="utf-8")
    proc = run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("(101, 101)")


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: argv[0])
def test_cli_example(tmp_path, argv):
    proc = run(["-m", "sqcka.cli", *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
