"""Golden outputs of the command-line interface.

Each command's stdout was recorded once into ``data/cli_golden.json``.  The
test reruns it and compares keys, CSV rows and structure exactly, and floats
to a relative 1e-12, so refactors of the CLI plumbing and the kernel
construction cannot move an output unnoticed.

Re-record (only when an output is meant to change) with:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from algdiff.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "cli_golden.json"
REL = 1e-12

_MC = ["--trials", "1000", "--seed", "7", "--T", "1.0", "--m", "100", "--t0", "2.0"]
_SURFACE = ["--points", "6"]

COMMANDS = {
    "kernel-n1-m4": ["kernel", "--n", "1", "--T", "1.0", "--beta", "1", "--m", "4"],
    "kernel-n2-q1": ["kernel", "--n", "2", "--q", "1", "--mu", "-0.4", "--kappa", "0.25",
                     "--xi", "0.3", "--T", "1", "--m", "400"],
    "kernel-f-rule": ["kernel", "--n", "1", "--kappa", "-0.79", "--F", "0.1",
                      "--T", "0.15", "--m", "30"],
    **{
        f"experiment-{preset}": ["experiment", preset, "--seed", "3"]
        for preset in ("table1-a", "table1-b", "table2-a", "table2-b")
    },
    "mc-wiener": ["mc", "--model", "wiener", "--sigma2", "0.5", "--n", "1", *_MC],
    "mc-poisson-q1": ["mc", "--model", "poisson", "--nu", "1.5", "--n", "1", "--q", "1",
                      "--xi", "0.276", *_MC],
    "mc-white": ["mc", "--model", "white", "--sigma2", "2.0", "--n", "2",
                 "--kappa", "-0.5", *_MC],
    **{
        f"surface-{quantity}": ["surface", quantity, *_SURFACE]
        for quantity in ("delay", "xi", "variance_minimal", "variance_affine")
    },
    "surface-variance_minimal-n2": ["surface", "variance_minimal", "--n", "2", *_SURFACE],
}


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(text: str) -> list[list]:
    return [[_parse_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def assert_same(got, want, where: str = "$") -> None:
    """Structure, keys and strings exactly; floats to a relative REL."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _parsed(stdout: str):
    return json.loads(stdout) if stdout.startswith("{") else _csv_rows(stdout)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)
    for name, argv in COMMANDS.items():
        assert golden[name]["argv"] == argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(golden, name):
    rc, stdout = run(COMMANDS[name])
    want = golden[name]
    assert rc == want["rc"] == 0
    assert_same(_parsed(stdout), _parsed(want["stdout"]))


def record() -> None:
    document = {}
    for name, argv in COMMANDS.items():
        rc, stdout = run(argv)
        document[name] = {"argv": argv, "rc": rc, "stdout": stdout}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    record()
