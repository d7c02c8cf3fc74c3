"""Fuzz the input boundaries: one line of a valid attack file, tally snapshot
or config file is replaced, truncated or duplicated.

Each mutated input must either parse or raise a ``ValidationError``,
``DomainError`` or ``CapacityError`` that names a line of the input.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from sqcka import cli, estimation
from sqcka.attacks import (DepolarizingParams, depolarizing_attack, dump_attack_file,
                           load_attack_file)
from sqcka.qmath import CapacityError, DomainError, ValidationError

#: ``file:12:``, ``file:12-15:`` or ``line 12:``
LOCATED = re.compile(r"(?::|line )(\d+)(?:-(\d+))?:")

TOKENS = ("0", "1", "2", "3", "-1", "0.5", "0.1", "1.5", "-0.5", "1e400", "1e-300",
          "nan", "inf", "-inf", "99999999999999999999", "0,1", "1,3", "1,0,1", "x",
          "#", "=", "FORWARD", "BACKWARD", "GRAM", "tally", "n", "ghz", "pass",
          "total", "zctrl", "sift", "rounds", "seed", "q", "qtilde", "ctrl_count")

#: One line of text: tokens of the three formats, or any characters that do
#: not break a line.
LINE = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=24))


@st.composite
def mutated(draw, text: str) -> tuple[str, int]:
    """``text`` with one line replaced, truncated or duplicated; and the
    number of lines of the result."""
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("replace", "truncate", "duplicate")))
    if kind == "replace":
        new = [draw(LINE)]
    elif kind == "truncate":
        new = [lines[k][:draw(st.integers(0, max(len(lines[k]) - 1, 0)))]]
    else:
        new = [lines[k], lines[k]]
    out = lines[:k] + new + lines[k + 1:]
    return "\n".join(out) + "\n", len(out)


def parse_or_locate(parse, text: str, num_lines: int) -> None:
    try:
        parse(text)
    except (ValidationError, DomainError, CapacityError) as exc:
        found = LOCATED.search(str(exc))
        assert found, f"no line number in {exc!r}"
        assert all(1 <= int(g) <= num_lines for g in found.groups() if g), str(exc)


def through_file(load):
    def parse(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_text(text, encoding="utf-8")
            return load(path)
    return parse


def _attack_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "depol.attack"
        dump_attack_file(depolarizing_attack(DepolarizingParams(0.1, 0.2, 1)), path)
        return path.read_text(encoding="utf-8")


ATTACK = _attack_text()
TALLY = estimation.tally_to_text(estimation.TallyCounts(
    n=2, ghz_pass=7, ghz_total=9, z_ctrl_counts=np.array([[3, 0, 1, 0], [0, 2, 0, 4]]),
    sift_joint_counts=np.array([[5, 1, 0, 0], [0, 0, 2, 6]]), sift_total=14))
CONFIG = "# run\nn = 2\nq = 0.1\nqtilde = 0.2\nrounds = 100\nseed = 3\nctrl_count = 10\n"


def test_valid_inputs_parse():
    assert through_file(load_attack_file)(ATTACK).n == 1
    assert estimation.tally_to_text(estimation.tally_from_text(TALLY)) == TALLY
    assert through_file(cli.load_run_config)(CONFIG).rounds == 100


@settings(max_examples=300, deadline=None)
@given(mutated(ATTACK))
def test_attack_file_lines(case):
    parse_or_locate(through_file(load_attack_file), *case)


@settings(max_examples=300, deadline=None)
@given(mutated(TALLY))
def test_tally_snapshot_lines(case):
    parse_or_locate(estimation.tally_from_text, *case)


@settings(max_examples=300, deadline=None)
@given(mutated(CONFIG))
def test_config_file_lines(case):
    parse_or_locate(through_file(cli.load_run_config), *case)
