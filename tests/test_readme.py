"""README examples run as written and print what README shows."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from algdiff.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def shell_examples() -> dict[str, str]:
    """``$ command`` -> the output README prints under it."""
    examples = {}
    for lang, body in BLOCKS:
        if lang == "sh" and body.startswith("$ "):
            command, _, output = body[2:].partition("\n")
            examples[command] = output
    return examples


def test_quick_start_prints_the_commented_values():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    want = re.findall(r"^print\(.*#\s*(\S+)$", code, re.MULTILINE)
    assert want == ["0.0268", "0.0807"]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(want)
    for line, value in zip(printed, want):
        assert line.endswith(" " + value), (line, value)


@pytest.mark.parametrize(
    "command,stream",
    [
        ("algdiff kernel --n 1 --T 1.0 --beta 1 --m 4", "stdout"),
        ("algdiff experiment table1-a --seed 3", "stderr"),
    ],
)
def test_shell_example_output(command, stream):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(shlex.split(command)[1:]) == 0
    got = {"stdout": out, "stderr": err}[stream].getvalue()
    assert got == shell_examples()[command]


def test_imported_names_resolve():
    imports = re.findall(r"^from (algdiff[\w.]*) import (.+)$", README, re.MULTILINE)
    assert imports
    for module, names in imports:
        mod = importlib.import_module(module)
        for name in names.split(","):
            assert hasattr(mod, name.strip()), f"{module}.{name.strip()}"
