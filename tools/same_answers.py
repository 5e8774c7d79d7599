"""The same answers from a parent commit and from this tree.

    python3 tools/same_answers.py --parent fc24aa0
    python3 tools/same_answers.py --parent fc24aa0 --expect-change fit/150nT/Delta=0

One manifest of outputs is collected in each tree, in a fresh process with
that tree's src/ on PYTHONPATH and BLAS on one thread:

- cli/...: the six steps of perfbench's cli_session and its typo step, then
  readme/...: each `trapquad` line of README's sh blocks, run in the
  session's directory with its ba.json as ba-trap.json, its lu.json as
  lu-trap.json and its counts.csv as scan.csv; exit code, stdout, stderr
  and output file;
- demo/...: each demo's exit code, stderr and stdout, with demo 06's
  "(... ms)" timings removed;
- counts/... and fit/...: simulate_counts and FitResult.to_dict() at
  sigma_B = 0, 18, 50 and 150 nT with default_rng(0..5), at Delta = 0 and
  Delta = 0.3 omega_q (tau = 1.2 ms, 40 points over +-1.5 omega_q, 300
  shots); a fit that raises gives its error;
- round/...: the outputs of one ba_theta_measurement round (seed 9) and the
  (pairs, derivatives) of each transfer_probabilities call it makes;
- lu/clock-budget: for the Lu+ levels 3D1, 3D2 and 1D2 at three orientations
  from default_rng(23) in lu_clock_budget's trap, H_Q over the level, the
  clock shift of each F, their hyperfine average, and the sideband index
  and the off-resonant shift (g_F = 1.2, omega_z = 2*pi*100 kHz) of every
  state;
- wigner/3j-6j: every 3j symbol with all 2j <= 12 and every 6j symbol with
  all 2j <= 6;
- angular/entry-forms: every D2 element at three seeded orientations, and its
  real part at alpha = 0 (d2),
  and every 3j symbol with all j <= 2 and every 6j symbol with all j <= 1
  (integers, so that each has an int form),
  each called with its quantum numbers as HalfInts, as ints and as floats;
  and the reduced table of every level of both bundled species, read with
  theta_matrix_element at Theta = 1 and alpha = beta = 0.

The manifest is this file's: the cli_session steps come from this tree's
perfbench/workloads.py and the README lines from this tree's README.md; the
demos are each tree's own.  The parent is extracted with
tools/bench_pairs.py's `extract`.  Each entry is reported as identical, or
with the largest relative difference of its numbers, or with where its text
differs.  The exit status is 1 if an entry differs that no --expect-change
names.  numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from bench_pairs import ROOT, extract

IDENTICAL = "identical"
_NUMBER = re.compile(r"NaN|-?Infinity|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_TIMING = re.compile(r"\(\d+(?:\.\d+)? ms\)")


# -- comparison -------------------------------------------------------------------
def split(value) -> tuple[str, list[float]]:
    """The value's JSON text with each number replaced by #, and the numbers."""
    text = json.dumps(value, sort_keys=True, ensure_ascii=False)
    return _NUMBER.sub("#", text), [float(t) for t in _NUMBER.findall(text)]


def relative(a: float, b: float) -> float:
    """|a - b| over the larger magnitude, which is 2 for x against -x and so
    also for 0.0 against -0.0; 0 for the same number or two NaNs."""
    if a == b:
        return 0.0 if math.copysign(1.0, a) == math.copysign(1.0, b) else 2.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def verdict(parent, change) -> str:
    """identical, the largest relative difference of the numbers, or the
    first place where the text around them differs."""
    if json.dumps(parent) == json.dumps(change):
        return IDENTICAL
    form_p, numbers_p = split(parent)
    form_c, numbers_c = split(change)
    if form_p != form_c:
        at = next((i for i, (p, c) in enumerate(zip(form_p, form_c)) if p != c),
                  min(len(form_p), len(form_c)))
        return (f"text differs: {form_p[max(at - 30, 0):at + 30]!r} against "
                f"{form_c[max(at - 30, 0):at + 30]!r}")
    return ("largest relative difference "
            f"{max(map(relative, numbers_p, numbers_c)):.3g}")


def compare(parent: dict, change: dict) -> dict[str, str]:
    """Each entry's verdict, in the manifest's order."""
    verdicts = {}
    for name in [*parent, *(name for name in change if name not in parent)]:
        if name not in change:
            verdicts[name] = "only in the parent"
        elif name not in parent:
            verdicts[name] = "only in this tree"
        else:
            verdicts[name] = verdict(parent[name], change[name])
    return verdicts


def unexpected(verdicts: dict[str, str], expected: list[str]) -> list[str]:
    """The entries that differ and that no --expect-change names."""
    return [name for name, v in verdicts.items()
            if v != IDENTICAL and name not in expected]


# -- the manifest, collected in one tree ------------------------------------------
def scrub(stdout: str) -> str:
    """Demo output without its wall-clock timings."""
    return _TIMING.sub("(ms)", stdout)


def readme_commands(readme: str) -> list[list[str]]:
    """Each `trapquad ...` line of README's sh blocks, continuation lines joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["trapquad"]:
                commands.append(words[1:])
    return commands


def cli_entries(tree: Path, workdir: Path) -> dict:
    import workloads
    session = workloads.CliSession(
        SimpleNamespace(root=tree, out_dir=workdir), seed=0)
    cwd = session.cli.workdir
    (cwd / "ba-trap.json").write_text((cwd / "ba.json").read_text())
    (cwd / "lu-trap.json").write_text((cwd / "lu.json").read_text())
    (cwd / "scan.csv").write_text((cwd / "counts.csv").read_text())
    readme = readme_commands((ROOT / "README.md").read_text())
    runs = [(f"cli/{name.replace(' ', '-')}", argv) for name, argv in session.steps]
    runs += [(f"readme/{i}-{argv[0]}", argv) for i, argv in enumerate(readme, 1)]
    entries = {}
    for name, argv in runs:
        out = cwd / argv[argv.index("-o") + 1] if "-o" in argv else None
        if out is not None and out.exists():
            out.unlink()
        proc = subprocess.run([sys.executable, "-m", "trapquad.cli", *argv],
                              cwd=cwd, env=session.cli.env, capture_output=True,
                              text=True, timeout=300)
        entries[name] = {"exit": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr,
                         "output": out.read_text() if out and out.exists() else None}
    return entries


def demo_entries(tree: Path, workdir: Path) -> dict:
    entries = {}
    for demo in sorted((tree / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=workdir,
                              capture_output=True, text=True, timeout=300)
        entries[f"demo/{demo.stem}"] = {"exit": proc.returncode,
                                        "stdout": scrub(proc.stdout),
                                        "stderr": proc.stderr}
    return entries


def fit_entries() -> dict:
    import numpy as np
    from trapquad.dynamics import RwaSystem
    from trapquad.errors import (FitError, InvalidInputError,
                                 QuadratureConvergenceError)
    from trapquad.inference import (FitConfig, NoiseModel, fit_spectrum,
                                    simulate_counts)
    tau, omega_q = 1.2e-3, 2.0 * math.pi * 1.70e3
    deltas = np.linspace(-1.5, 1.5, 40) * omega_q
    entries = {}
    for sigma_nt in (0, 18, 50, 150):
        for name, delta_rf in (("Delta=0", 0.0), ("Delta=0.3wq", 0.3 * omega_q)):
            system = RwaSystem(omega_q, math.pi / tau, delta_rf, 0.0)
            counts, fits = [], []
            for seed in range(6):
                drawn = simulate_counts(system, NoiseModel(sigma_b=sigma_nt * 1e-9),
                                        deltas, tau, 300, np.random.default_rng(seed))
                counts.append(drawn)
                try:
                    fits.append(fit_spectrum(deltas, drawn, 300,
                                             FitConfig(tau=tau)).to_dict())
                except (FitError, InvalidInputError,
                        QuadratureConvergenceError) as exc:
                    fits.append({"error": f"{type(exc).__name__}: {exc}"})
            entries[f"counts/{sigma_nt}nT/{name}"] = counts
            entries[f"fit/{sigma_nt}nT/{name}"] = fits
    return entries


def round_entries() -> dict:
    import numpy as np
    import workloads
    from trapquad import dynamics, inference, trap
    from trapquad.species import load_species
    two_pi = 2.0 * math.pi
    est = trap.secular_consistency(two_pi * 990e3, two_pi * 895e3, two_pi * 112e3)
    ctx = SimpleNamespace(inference=inference, dynamics=dynamics,
                          ba_trap=trap.TrapConfig.ideal_linear(
                              load_species("ba138").mass_kg, two_pi * 20.585e6,
                              est.omega_s, est.uncertainty))
    pairs = []

    def counted(*args, **kwargs):
        shape = np.broadcast_shapes(*(np.shape(args[i]) for i in (0, 2, 3)))
        pairs.append([math.prod(shape), kwargs.get("derivatives", False)])
        return transfer_probabilities(*args, **kwargs)

    transfer_probabilities = inference.transfer_probabilities
    inference.transfer_probabilities = counted
    try:
        results = {}
        for name, operation in workloads.BaThetaMeasurement(ctx, 9).operations():
            results[name] = operation(results)
    finally:
        inference.transfer_probabilities = transfer_probabilities
    return {"round/ba_theta_measurement": results,
            "round/transfer-pairs": pairs}


def lu_entries() -> dict:
    import numpy as np
    from trapquad import coupling, effects, trap
    from trapquad.angular import EulerAngles
    from trapquad.species import load_species
    two_pi = 2.0 * math.pi
    lu = load_species("lu176")
    base = trap.TrapConfig.ideal_linear(lu.mass_kg, two_pi * 33e6, two_pi * 1e6)
    zeeman = effects.ZeemanConfig.from_splitting(1.2, two_pi * 100e3)
    rng = np.random.default_rng(23)
    budget = []
    for _ in range(3):
        angles = float(rng.uniform(0.0, two_pi)), float(rng.uniform(0.0, math.pi))
        trap_ = base.with_orientation(EulerAngles(*angles))
        for term in ("3D1", "3D2", "1D2"):
            level = lu.level(term)
            fs = level.f_values()
            h = coupling.hq_matrix(level, trap_, fs)
            clock = {f: effects.clock_shift(level, f, trap_) for f in fs}
            budget.append({
                "angles": angles, "term": term,
                "H": [h.amplitude.real, h.amplitude.imag],
                "clock": list(clock.values()),
                "average": effects.hyperfine_average(clock, level),
                "sideband": [effects.sideband_index(level, s.F, s.m, trap_)
                             for s in h.basis],
                "offresonant": [effects.offresonant_zeeman_shift(
                    level, s.F, s.m, trap_, zeeman) for s in h.basis]})
    return {"lu/clock-budget": budget}


def wigner_entries() -> dict:
    import itertools

    from trapquad.angular import wigner_3j, wigner_6j
    values = []
    for a, b, c in itertools.product(range(13), repeat=3):
        for ma in range(-a, a + 1, 2):
            for mb in range(-b, b + 1, 2):
                if abs(ma + mb) <= c and (a + b + c) % 2 == 0:
                    values.append(wigner_3j(a / 2, b / 2, c / 2,
                                            ma / 2, mb / 2, -(ma + mb) / 2))
    for js in itertools.product(range(7), repeat=6):
        values.append(wigner_6j(*(j / 2 for j in js)))
    return {"wigner/3j-6j": values}


def entry_form_entries() -> dict:
    import itertools

    import numpy as np
    from trapquad.angular import EulerAngles, HalfInt, wigner_3j, wigner_6j, wigner_D2
    from trapquad.coupling import LevelSpec, reduced_table, theta_matrix_element
    from trapquad.species import BUNDLED, load_species
    forms = {"HalfInt": HalfInt, "int": int, "float": float}
    rng = np.random.default_rng(26)
    angles = [EulerAngles(*map(float, rng.uniform(-7.0, 7.0, 2))) for _ in range(3)]
    rotations = list(itertools.product(range(-2, 3), repeat=2))
    three = [(*js, ma, mb, -ma - mb)
             for js in itertools.product(range(3), repeat=3)
             for ma in range(-js[0], js[0] + 1) for mb in range(-js[1], js[1] + 1)
             if abs(ma + mb) <= js[2]]
    six = list(itertools.product(range(2), repeat=6))
    by_form = {}
    for name, form in forms.items():
        d = [wigner_D2(form(mp), form(m), ang) for ang in angles for mp, m in rotations]
        by_form[name] = {
            "D2": [[z.real, z.imag] for z in d],
            "d2": [wigner_D2(form(mp), form(m), EulerAngles(0.0, ang.beta)).real
                   for ang in angles for mp, m in rotations],
            "3j": [wigner_3j(*map(form, q)) for q in three],
            "6j": [wigner_6j(*map(form, q)) for q in six]}
    def reduced(level):
        # the table in units of Theta, read the same way in either tree:
        # <bra|T_dmu|ket> at alpha = beta = 0, where D2_{dmu,dmu} is 1
        unit, zero = LevelSpec(level.nuclear_spin, level.electronic_j, 1.0), EulerAngles(0, 0)
        states = reduced_table(unit).states
        return [[theta_matrix_element(unit, bra, ket, (bra.m.twice - ket.m.twice) // 2,
                                      zero).real
                 if abs(bra.m.twice - ket.m.twice) <= 4 else 0.0 for ket in states]
                for bra in states]

    tables = {f"{name} {term}": reduced(level)
              for name in BUNDLED
              for term, level in load_species(name).levels.items()}
    return {"angular/entry-forms": {"forms": by_form, "reduced": tables}}


def collect(tree: Path) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        workdir = Path(tmp)
        return {**cli_entries(tree, workdir), **demo_entries(tree, workdir),
                **fit_entries(), **round_entries(), **lu_entries(),
                **wigner_entries(), **entry_form_entries()}


def run_collect(tree: Path, out: Path) -> dict:
    """The manifest of `tree`, collected by a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"), "1")}
    subprocess.run([sys.executable, __file__, "--collect", str(tree), str(out)],
                   env=env, check=True)
    return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the commit to compare against")
    parser.add_argument("--expect-change", action="append", default=[],
                        metavar="ENTRY", help="an entry that may differ")
    parser.add_argument("--collect", nargs=2, type=Path, metavar=("TREE", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.collect:
        tree, out = args.collect
        # numpy arrays and integers as JSON lists and numbers
        out.write_text(json.dumps(collect(tree.resolve()),
                                  default=lambda value: value.tolist()))
        return 0
    if not args.parent:
        parser.error("--parent is required")

    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        parent = Path(tmp) / "parent"
        extract(args.parent, parent)
        verdicts = compare(run_collect(parent, Path(tmp) / "parent.json"),
                           run_collect(ROOT, Path(tmp) / "change.json"))
    unknown = sorted(set(args.expect_change) - set(verdicts))
    if unknown:
        parser.error(f"no such entry: {', '.join(unknown)}")
    for name, v in verdicts.items():
        print(f"{name}: {v}")
    bad = unexpected(verdicts, args.expect_change)
    print(f"{len(verdicts)} entries, {sum(v != IDENTICAL for v in verdicts.values())}"
          f" differ, {len(bad)} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
