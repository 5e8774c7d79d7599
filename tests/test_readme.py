"""README's examples work against the sources: the library quick start runs,
and every `trapquad` command line parses and runs as written, with the trap
files of README's JSON blocks and a scan drawn by simulate_counts."""

import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trapquad.cli import build_parser
from trapquad.dynamics import RwaSystem
from trapquad.inference import NoiseModel, simulate_counts

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
_TOOLS = ROOT / "tools"
sys.path.insert(0, str(_TOOLS))
_SPEC = importlib.util.spec_from_file_location("same_answers",
                                               _TOOLS / "same_answers.py")
same_answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_answers)
COMMANDS = same_answers.readme_commands(README)


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


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
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_command_parses(argv, capsys):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {capsys.readouterr().err}")
    assert args.command == argv[0]


def test_every_command_runs_as_written(tmp_path):
    # each JSON block follows the line that names its file
    traps = dict(re.findall(r"`([\w-]+\.json)`:\n\n```json\n(.*?)^```",
                            README, re.M | re.S))
    assert sorted(traps) == ["ba-trap.json", "lu-trap.json"]
    for name, text in traps.items():
        (tmp_path / name).write_text(text)
    # the fit line's scan.csv: 40 points over +-1.5 omega_q at 18 nT
    tau, omega_q = 1.2e-3, 2.0 * math.pi * 1.7e3
    deltas = np.linspace(-1.5, 1.5, 40) * omega_q
    counts = simulate_counts(RwaSystem(omega_q, math.pi / tau),
                             NoiseModel(sigma_b=18e-9), deltas, tau, 300,
                             np.random.default_rng(0))
    rows = [f"{float(d) / (2.0 * math.pi)!r},{c},300" for d, c in zip(deltas, counts)]
    (tmp_path / "scan.csv").write_text(
        "\n".join(["delta_hz,excited_counts,shots", *rows]) + "\n")
    for argv in COMMANDS:       # in README's order: the fit writes fit.json
        proc = subprocess.run([sys.executable, "-m", "trapquad.cli", *argv],
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, (argv, proc.stderr)
