"""Every `dmlbench ...` command in the README's code blocks is one the CLI
parser accepts, and the quick ones run, in order, as written. The grid and
report lines train for minutes to hours, and the acceptance gate already
runs the bare `gradcheck`: those are parsed only. The README's promise
that the library imports no test dependency is checked here too."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dmlbench.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
OUTPUT_FLAGS = ("out", "out_encoder", "out_proxies", "out_log")


def readme_commands() -> list[str]:
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "dmlbench":
                commands.append(" ".join(words))
    return commands


def test_readme_has_commands_for_every_subcommand():
    used = {shlex.split(c)[1] for c in readme_commands()}
    assert used == {"synth", "folds", "gradcheck", "train", "eval", "grid", "report"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command, capsys):
    try:
        args = build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"the CLI rejects {command!r}: {capsys.readouterr().err.strip()}")
    assert args.command == shlex.split(command)[1]


def runs_end_to_end(command: str) -> bool:
    words = shlex.split(command)
    return words[1] not in ("grid", "report") and words != ["dmlbench", "gradcheck"]


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [c for c in readme_commands() if runs_end_to_end(c)]
    assert [shlex.split(c)[1] for c in commands] == [
        "synth", "folds", "gradcheck", "train", "eval", "eval"
    ]
    for command in commands:
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, (command, capsys.readouterr().err)
        args = build_parser().parse_args(argv)
        for flag in OUTPUT_FLAGS:
            if getattr(args, flag, None):
                assert (tmp_path / getattr(args, flag)).is_file(), (command, flag)


def test_runtime_imports_no_test_dependency():
    code = (
        "import sys, dmlbench, dmlbench.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
