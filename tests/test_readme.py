"""Every `dmlbench ...` command in the README's code blocks is one the CLI
parser accepts. The commands are parsed, not run."""

import re
import shlex
from pathlib import Path

import pytest

from dmlbench.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
