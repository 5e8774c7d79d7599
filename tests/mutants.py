"""Mutation check of the noise-average rule, the transfer kernel, the
fit's Jacobian, the grouping of the points by |delta| in the fit and in
simulate_counts, the fit's memory of its passes, the solver's gtol test and
the peak search: each mutant is one small fault, and the tests named with
it must fail when it is applied.

    python tests/mutants.py              # every mutant
    python tests/mutants.py one-node-start endpoint-dropped

For each mutant, src/, tests/ and pyproject.toml are copied to a temporary
directory, the mutant's old text (which must occur exactly once in its file)
is replaced by its new text, and each named test id runs there in its own
pytest process.  A mutant is killed when every named id fails; the exit
status is 1 if any mutant survives.  The script uses the standard library
only, and pytest does not collect it; tests/test_mutants.py checks in the
Tier-1 suite that each old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600      # a test that runs longer counts as failed (a hang)


class Mutant(NamedTuple):
    name: str
    path: str                # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]  # pytest ids that must fail


_INFERENCE = "src/trapquad/inference.py"
_DYNAMICS = "src/trapquad/dynamics.py"
_TI = "tests/test_inference.py::"
_TD = "tests/test_dynamics.py::"

MUTANTS = (
    # the noise-average rule
    Mutant("coarse-sum-not-halved", _INFERENCE,
           "fine = 0.5 * coarse + average(2 * n - 1, True)",
           "fine = coarse + average(2 * n - 1, True)",
           (_TI + "TestNoiseAveragedSignal::test_golden_curve_at_paper_parameters",)),
    Mutant("even-nodes-taken-as-new", _INFERENCE,
           "x = x[1::2]", "x = x[0::2]",
           (_TI + "TestNoiseAveragedSignal::test_refinement_passes_only_the_new_nodes",
            _TI + "TestNoiseAveragedSignal::test_uniform_rule_is_computed_once_and_read_only")),
    Mutant("start-rule-twice-too-coarse", _INFERENCE,
           "while 2.0 * _HALF_WIDTH / (n - 1) * spread > math.pi:",
           "while 2.0 * _HALF_WIDTH / (n - 1) * spread > 2.0 * math.pi:",
           (_TI + "TestNoiseAveragedSignal::test_start_rule_is_the_coarsest_that_resolves"
            "[0.0059-4e-08-193]",)),
    Mutant("no-cap-at-the-start", _INFERENCE,
           "if 2 * n - 1 > _MAX_NODES:", "if False:",
           (_TI + "TestNoiseAveragedSignal::test_convergence_check_raises_when_underresolved",)),
    Mutant("weights-over-n", _INFERENCE,
           "w = 2.0 * _HALF_WIDTH / (n - 1) * np.exp",
           "w = 2.0 * _HALF_WIDTH / n * np.exp",
           (_TI + "TestNoiseAveragedSignal::test_golden_curve_at_paper_parameters",)),
    Mutant("endpoint-dropped", _INFERENCE,
           "x = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n)",
           "x = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n, endpoint=False)",
           (_TD + "TestScanSpectrum::test_symmetric_at_zero_rf_detuning",
            _TI + "TestFitSpectrum::test_mirrored_spectrum_gives_the_same_fit")),
    Mutant("range-5-sigma", _INFERENCE,
           "_HALF_WIDTH = 6.0", "_HALF_WIDTH = 5.0",
           (_TI + "TestNoiseAveragedSignal::test_order_is_worked_out_at_100nt",
            _TI + "TestNoiseAveragedSignal::test_converges_where_gauss_hermite_failed"
            "[1.5e-07-0.0012]",
            _TI + "TestNoiseAveragedSignal::test_converges_where_gauss_hermite_failed"
            "[2e-07-0.0012]",
            _TI + "TestNoiseAveragedSignal::test_converges_where_gauss_hermite_failed"
            "[4e-08-0.0059]",
            _TI + "TestNoiseAveragedSignal::test_converges_where_gauss_hermite_failed"
            "[1e-07-0.0059]")),
    Mutant("one-node-start", _INFERENCE,
           "    if spread == 0.0:\n        return 1\n", "",
           (_TI + "TestNoiseAveragedSignal::test_zero_sigma_reduces_to_bare_scan",
            "tests/test_cli.py::TestSpectrum::test_noiseless_has_no_diagnostics")),
    Mutant("one-node-weight", _INFERENCE,
           "x, w = np.zeros(1), np.ones(1)", "x, w = np.zeros(1), np.full(1, 0.5)",
           (_TI + "TestNoiseAveragedSignal::test_zero_sigma_reduces_to_bare_scan",)),
    # the transfer kernel's derivatives and the fit's Jacobian
    Mutant("variance-term-dropped", _INFERENCE,
           "dr_dp = -(1.0 + 0.5 * (fractions - p) * slope / var) / np.sqrt(var)",
           "dr_dp = -1.0 / np.sqrt(var)",
           (_TI + "TestFitSpectrum::test_jacobian_matches_central_differences[1.8e-08]",)),
    Mutant("sigma-column-weighted-by-w", _INFERENCE,
           "dp_sigma @ (w * x)", "dp_sigma @ w",
           (_TI + "TestFitSpectrum::test_jacobian_matches_central_differences[1.8e-08]",
            _TI + "TestFitSpectrum::test_same_fit_as_evaluating_every_point")),
    # the fit's grouping of the points by |delta|
    Mutant("magnitudes-signed", _INFERENCE,
           "np.abs(detunings)", "detunings",
           (_TI + "TestFitSpectrum::test_18nt_fit_passes_at_most_10000_pairs",)),
    # merging within 29 rad/s on the fit's grids: each point still takes the
    # value at its own group's smallest |delta|, and the fit tests' nearest
    # magnitudes lie 214 rad/s apart, so only the unit test sees it
    Mutant("magnitudes-merged", _INFERENCE,
           "> 8 * np.spacing(", "> 8e12 * np.spacing(",
           (_TI + "TestDistinctMagnitudes::test_magnitudes_16_ulps_apart_stay_distinct",)),
    Mutant("counts-grouped-off-the-carrier", _INFERENCE,
           "if sys.detuning_rf == 0.0:", "if True:",
           (_TI + "TestSimulateCounts::test_passes_each_distinct_magnitude_once_on_the"
            "_carrier[off-carrier]",
            _TI + "TestSimulateCounts::test_counts_are_drawn_from_the_noise_averaged"
            "_signal[1.8e-08-off-carrier]")),
    # the fit's memory of its passes: keyed on x alone, the refined solver's
    # first pass would return the pass on the coarser rule
    Mutant("memo-keyed-on-x-alone", _INFERENCE,
           "key = (float(x[0]), float(x[1]), n)", "key = (float(x[0]), float(x[1]))",
           (_TI + "TestFitSpectrum::test_each_refinement_starts_with_a_pass_on_its_rule",)),
    # the solver's stopping tests
    Mutant("gtol-test-dropped", _INFERENCE,
           "        if np.all(np.abs(g) <= _TOL * norms, where=norms > 0):\n"
           "            return stop(1)\n", "",
           (_TI + "TestLeastSquares::test_zero_residual_at_the_start_stops_on_gtol",)),
    Mutant("ddelta-rf-sign-flipped", _DYNAMICS,
           "zsz(2, 2) - zsz(0, 0)", "zsz(0, 0) - zsz(2, 2)",
           (_TD + "TestTransferProbabilities::test_derivatives_match_central_differences",)),
    Mutant("sinc-argument-off-by-pi", _DYNAMICS,
           "* (0.5 * tau / math.pi))", "* (0.5 * tau))",
           (_TD + "TestTransferProbabilities::test_derivatives_match_central_differences",
            _TD + "TestTransferProbabilities::test_mirror_of_both_detunings")),
    Mutant("omega-q-term-contracts-1-1", _DYNAMICS,
           "2.0 * _B_COEFF * zsz(1, 2)", "2.0 * _B_COEFF * zsz(1, 1)",
           (_TD + "TestTransferProbabilities::test_mirror_of_both_detunings",
            _TD + "TestTransferProbabilities::test_even_in_omega_q")),
    # the peak search
    Mutant("prominence-from-the-lower-base", _DYNAMICS,
           "max(y[lo:i + 1].min(), y[i:hi].min())",
           "min(y[lo:i + 1].min(), y[i:hi].min())",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
    Mutant("height-strict", _DYNAMICS,
           "if y[i] >= height and", "if y[i] > height and",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text, which must occur once, under `root`."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def fails(test_id: str, root: Path) -> bool:
    """Whether pytest reports `test_id` failed under `root`: exit status 1.
    A test that is not found exits 4 or 5, and is an error here."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_id],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {proc.returncode} on {test_id}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 1


def run(mutant: Mutant) -> list[str]:
    """The named ids that pass with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="trapquad-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        return [test_id for test_id in mutant.killers if not fails(test_id, root)]


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in (known[n] for n in names) if names else MUTANTS:
        passed = run(mutant)
        survivors += bool(passed)
        verdict = f"SURVIVED, passing: {', '.join(passed)}" if passed else "killed"
        print(f"{mutant.name}: {len(mutant.killers)} ids, {verdict}", flush=True)
    print(f"{len(names) or len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
