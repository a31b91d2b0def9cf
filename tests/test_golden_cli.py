"""Byte-for-byte golden outputs of the command line.

Every command in COMMANDS runs in-process through `corrgap.cli.main`; its exit
code and full stdout must equal the copy stored in tests/golden/cli.json, and
it must never enter the orbit regime (core.orbit_classes), so that the golden
outputs pin the 2^n engines. Regenerate that file only for an intended output
change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

import corrgap.core as core
from corrgap.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

_INSTANCES = [
    ["--builtin", "example2"],
    ["--builtin", "example2", "--k", "2"],
    ["--builtin", "example3"],
    ["--builtin", "example3", "--n", "5"],
    ["--builtin", "coverage_random"],
    ["--builtin", "coverage_random", "--seed", "3", "--n", "4"],
    ["--builtin", "integrality_gap"],
]
_SPACES = [
    ["--builtin", "example1"],
    ["--builtin", "example1", "--n", "6"],
    ["--builtin", "example2_two_stage"],
    ["--builtin", "example2_two_stage", "--k", "2"],
    ["--builtin", "ufl_random"],
    ["--builtin", "ufl_random", "--seed", "4"],
]
_WELFARE = [
    ["--builtin", "integrality_gap"],
    ["--builtin", "example2", "--k", "2"],
    ["--builtin", "example2", "--k", "3"],
]
_SPLIT = [
    ["--builtin", "example2"],  # 18 copies: over the split cap, exit 3
    ["--builtin", "example2", "--k", "2"],
    ["--builtin", "example3", "--counts", "1,2,3"],
    ["--builtin", "coverage_random", "--seed", "3", "--n", "4"],
    ["--builtin", "integrality_gap", "--counts", "2,1,1,2,1,1"],
]
_CERTIFY = [
    ["--builtin", "example2"],  # n = 9: over the certification cap, exit 3
    ["--builtin", "example2", "--k", "2"],
    ["--builtin", "example3", "--n", "4"],
    ["--builtin", "coverage_random", "--seed", "3", "--n", "4"],
    ["--builtin", "integrality_gap"],
]


def _commands() -> list[list[str]]:
    per_format = (
        [["gap", *src] for src in _INSTANCES]
        + [["gap", "--builtin", "example3", "--n", "4", "--eta", "1.5", "--beta", "1"]]
        + [["worst-case", *src] for src in _INSTANCES]
        + [["robust", *src] for src in _SPACES]
        + [["welfare", *src] for src in _WELFARE]
        + [["split-verify", *src] for src in _SPLIT]
        + [["certify-scheme", *src] for src in _CERTIFY]
        + [["verify", "--all"]]
    )
    commands = [argv + ["--format", fmt] for argv in per_format for fmt in ("json", "csv")]
    return commands + [
        ["gap", "--builtin", "coverage_random", "--samples", "4000", "--seed", "11"],
        ["gap", "--builtin", "example1"],  # a space where an instance is needed, exit 2
        ["robust", "--builtin", "example3"],  # an instance where a space is needed, exit 2
        ["welfare", "--builtin", "example3"],  # no --k, exit 2
        ["list-instances"],
        ["--list-instances"],
    ]


COMMANDS = _commands()


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@functools.cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_command_list():
    assert [entry["argv"] for entry in _golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=lambda i: " ".join(COMMANDS[i]))
def test_output_is_byte_identical(index, orbit_entries):
    result = run(COMMANDS[index])
    assert orbit_entries == [], f"entered the orbit regime at n = {orbit_entries}; the golden outputs pin the 2^n engines"
    assert result == _golden()[index]


def test_the_orbit_guard_sees_an_entry(orbit_entries):
    assert run(["gap", "--builtin", "example3", "--n", str(core._ORBIT_FROM_N)])["exit"] == 0
    assert orbit_entries == [core._ORBIT_FROM_N] * 2


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in COMMANDS], indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(COMMANDS)} commands to {GOLDEN}\n")
