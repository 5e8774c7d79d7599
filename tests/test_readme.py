"""README's examples work against the sources: the library quick start runs,
and every `trapquad` command line parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from trapquad.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def cli_commands() -> list[list[str]]:
    """Each `trapquad ...` line of the sh blocks, continuation lines joined."""
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["trapquad"]:
                commands.append(words[1:])
    return commands


def test_library_quick_start_runs(tmp_path):
    section = README[README.index("## Quick start (library)"):]
    script = code_blocks("python")[0]
    assert script in section   # the first python block is the quick start
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_all_six_commands_are_found():
    assert len(cli_commands()) == 6


@pytest.mark.parametrize("argv", cli_commands(),
                         ids=lambda argv: " ".join(argv[:3]))
def test_command_parses(argv, capsys):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {capsys.readouterr().err}")
    assert args.command == argv[0]
