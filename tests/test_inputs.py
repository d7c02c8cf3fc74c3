"""Fuzz the input boundaries: attack files, tally snapshots and config files.

In the first tests one line of a valid input is replaced, truncated or
duplicated, and the input must either parse or raise a ``ValidationError``,
``DomainError`` or ``CapacityError`` that names a line of the input.  The
mutation tests work on the bytes: fields are replaced, lines inserted,
deleted and duplicated and tokens appended, with tokens that include bytes
that are not UTF-8, NUL, ``nan``, ``1e400``, huge integers and non-ASCII
digits.  Each mutated input must be accepted, or refused with a
``ValidationError`` that names a line or with a ``CapacityError``; a few of
them also go through the command line, which must exit 2 with one line.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import numpy as np
from hypothesis import example, given, settings, strategies as st

import sqcka
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


#: The tokens of ``TOKENS`` as bytes, and bytes that no line of a valid input
#: holds: not UTF-8, NUL, non-finite and huge numbers, non-ASCII digits.
BYTE_TOKENS = tuple(t.encode() for t in TOKENS) + (
    b"\xff", b"\xc3", b"0.5\xfe", b"\x00", b"1\x002", b"1e400", b"-1e400", b"NaN",
    b"9" * 40, b"1" + b"0" * 5000, "\u0661\u0662".encode(), "\u0663".encode(),
    "\u0667".encode(), "\uff11".encode(), "\u0660.\u0665".encode())

MUTATIONS = ("field", "insert", "delete", "duplicate", "append")


def mutate(data: bytes, kind: str, k: int, token: bytes, field: int) -> bytes:
    """``data`` with one mutation at its line k (modulo the line count): field
    ``field`` of the line replaced by ``token``, a line ``token`` inserted
    before it, the line deleted or duplicated, or ``token`` appended to it."""
    lines = data.split(b"\n")[:-1] or [b""]
    k %= len(lines)
    if kind == "field":
        fields = lines[k].split() or [b""]
        fields[field % len(fields)] = token
        new = [b" ".join(fields)]
    else:
        new = {"insert": [token, lines[k]], "delete": [], "duplicate": [lines[k]] * 2,
               "append": [lines[k] + b" " + token]}[kind]
    return b"".join(line + b"\n" for line in lines[:k] + new + lines[k + 1:])


MUTATION = st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 99),
                     st.sampled_from(BYTE_TOKENS), st.integers(0, 9))


@st.composite
def mutated_bytes(draw, text: str) -> bytes:
    """``text`` as UTF-8 with one to three mutations applied in turn."""
    data = text.encode()
    for args in draw(st.lists(MUTATION, min_size=1, max_size=3)):
        data = mutate(data, *args)
    return data


def accepted_or_located(parse, data: bytes) -> None:
    """``parse(data)`` accepts, or refuses with a ``ValidationError`` naming a
    line of ``data`` or with a ``CapacityError``; nothing else escapes."""
    try:
        parse(data)
    except ValidationError as exc:
        found = LOCATED.search(str(exc))
        assert found, f"no line number in {exc!r}"
        last = max(data.count(b"\n"), 1)
        assert all(1 <= int(g) <= last for g in found.groups() if g), str(exc)
    except CapacityError:
        pass


def from_bytes(load):
    def parse(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(data)
            return load(path)
    return parse


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(ATTACK))
@example(mutate(ATTACK.encode(), "delete", 1, b"", 0))  # no FORWARD header
@example(mutate(ATTACK.encode(), "field", 16, b"9" * 40, 5))  # a huge GRAM index
@example(mutate(ATTACK.encode(), "field", 7, b"\x00", 3))
def test_attack_file_mutations(data):
    accepted_or_located(from_bytes(load_attack_file), data)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(TALLY))
@example(mutate(TALLY.encode(), "field", 0, b"-1", 2))  # the tally n line
@example(mutate(TALLY.encode(), "field", 0, b"0", 2))
@example(mutate(TALLY.encode(), "field", 0, b"9" * 40, 2))
def test_tally_snapshot_mutations(data):
    # a snapshot is parsed from text; a byte that is not UTF-8 reaches it as
    # the lone surrogate that decoding with "surrogateescape" leaves
    accepted_or_located(
        lambda raw: estimation.tally_from_text(raw.decode("utf-8", "surrogateescape")), data)


@settings(max_examples=300, deadline=None)
@given(mutated_bytes(CONFIG))
@example(mutate(CONFIG.encode(), "field", 1, b"9" * 40, 2))  # n past its cap
@example(mutate(CONFIG.encode(), "field", 5, b"-1", 2))  # a negative seed
@example(mutate(CONFIG.encode(), "field", 4, b"1" + b"0" * 5000, 2))
def test_config_file_mutations(data):
    accepted_or_located(from_bytes(cli.load_run_config), data)


@pytest.mark.parametrize("flag,text,mutation,where", [
    ("--attack-file", ATTACK, ("field", 3, b"\xff", 1), ":4: byte 0xff is not UTF-8"),
    ("--attack-file", ATTACK, ("field", 4, b"nan", 2), ":5: value 'nan' is not finite"),
    ("--attack-file", ATTACK, ("field", 7, b"1e400", 3), ":8: value '1e400' is not finite"),
    ("--attack-file", ATTACK, ("field", 7, "\u0667".encode(), 2),
     ":8: index (0, 0, 7) outside (2, 2, 2)"),
    ("--attack-file", ATTACK, ("append", 16, b"\x00", 0), ":17: cannot parse"),
    ("--config", CONFIG, ("field", 1, "\u0663\u0663".encode(), 2), ":2: an attack for n=33"),
    ("--config", CONFIG, ("field", 4, b"1" + b"0" * 5000, 2), ":5: bad rounds"),
    ("--config", CONFIG, ("insert", 2, b"q = 0.1\xc3", 0), ":3: byte 0xc3 is not UTF-8"),
], ids=["attack-not-utf8", "attack-nan", "attack-1e400", "attack-non-ascii-digit",
        "attack-nul", "config-non-ascii-digits", "config-huge-integer", "config-not-utf8"])
def test_mutated_files_through_the_cli(tmp_path, flag, text, mutation, where):
    path = tmp_path / "mutated"
    path.write_bytes(mutate(text.encode(), *mutation))
    env = dict(os.environ, PYTHONPATH=str(Path(sqcka.__file__).parents[1]))
    argv = ["simulate", "--n", "1", "--rounds", "10", flag, str(path),
            "--out", str(tmp_path / "t.txt")]
    proc = subprocess.run([sys.executable, "-m", "sqcka.cli", *argv], capture_output=True,
                          env=env, timeout=120)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert err.startswith(f"sqcka: error: {path}") and err.count("\n") == 1, err
    assert where in err
    assert not (tmp_path / "t.txt").exists()
