"""Mutation check of the noise-average rule, the transfer kernel and its
agreement with the single-matrix propagator, the fit's Jacobian, the
grouping of the points by |delta| in the fit and in noise_averaged_signal,
the fit's memory of its passes, the weights and the chi^2 that the fit's
objective shares, the seed's one-node omega_q grid and the one laser
detuning per pair of every model pass, the solver's stopping tests and its
step back from the bound, the one rule for sigma_B at its bound, the peak
search at its two thresholds, the reduced table's build (its mirror and its
walk over each column's partners), the explicit-drive oracle, the schema
checker, the detuning grid's, the fit's input-shape, the CLI's and the trap
config's own checks, e*a0^2 from the CODATA 2018 constants, the code that
each rule written once shares, the key of the cached channel factors, H_Q's
Theta and channel factors, hq_matrix's numpy product and the element reads'
row lookup, the off-resonant partner window and its skip of uncoupled
partners, the entry rule of every angular momentum (angular.doubled: its
float range, NaN, its 1e-9 tolerance, its "n/2" text, text too long for
int() and an int too long for repr), a JSON object that repeats a key, a
JSON input nested too deep for the parser, an unreadable input file and an
unwritable output path, the kernel's working memory, the clock-shift grid,
the one "every F once" check, the angular-momentum rules that angular and
coupling share, and the input checks of HalfInt's equality, EulerAngles,
LevelSpec, the schema checker's oneOf and the fit's error step: each mutant
is one small fault, and the tests named with it must fail when it is
applied.

    python tests/mutants.py              # every mutant
    python tests/mutants.py one-node-start endpoint-dropped

For each mutant, src/, tests/, tools/ and pyproject.toml are copied to a
temporary directory, the mutant's old text (which must occur exactly once in
its file) is replaced by its new text, and each named test id runs there in
its own pytest process.  A mutant is killed when every named id fails; the
exit status is 1 if any mutant survives.  The script uses the standard library
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
_ANGULAR = "src/trapquad/angular.py"
_COUPLING = "src/trapquad/coupling.py"
_EFFECTS = "src/trapquad/effects.py"
_SPECIES = "src/trapquad/species.py"
_TRAP = "src/trapquad/trap.py"
_ERRORS = "src/trapquad/errors.py"
_CLI = "src/trapquad/cli.py"
_TI = "tests/test_inference.py::"
_TD = "tests/test_dynamics.py::"
_TA = "tests/test_angular.py::"
_TCP = "tests/test_coupling.py::"
_TE = "tests/test_effects.py::"
_TC = "tests/test_cli.py::"

MUTANTS = (
    # the noise-average rule
    Mutant("coarse-sum-not-halved", _INFERENCE,
           "fine = 0.5 * coarse + average(2 * n - 1, True)",
           "fine = coarse + average(2 * n - 1, True)",
           (_TI + "TestNoiseAveragedSignal::test_golden_curve_at_paper_parameters",)),
    Mutant("even-nodes-taken-as-new", _INFERENCE,
           "x = x[1::2]", "x = x[0::2]",
           (_TI + "TestNoiseAveragedSignal::test_refinement_passes_only_the_new_nodes",
            _TI + "TestNoiseAveragedSignal::test_uniform_rule_nodes_weights_and_new_nodes")),
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
           "dr_dp = -(1.0 + 0.5 * (self.fractions - p) * slope / var) / sd",
           "dr_dp = -1.0 / sd",
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
           "if sys.detuning_rf == 0.0", "if True",
           (_TI + "TestSimulateCounts::test_passes_each_distinct_magnitude_once_on_the"
            "_carrier[off-carrier]",
            _TI + "TestNoiseAveragedSignal::test_carrier_spectrum_is_even_for_half_the"
            "_pairs[1.8e-08-nodes1]",
            _TI + "TestNoiseAveragedSignal::test_zero_sigma_reduces_to_bare_scan")),
    # the fit's memory of its passes: keyed on x alone, the refined solver's
    # first pass would return the pass on the coarser rule
    Mutant("memo-keyed-on-x-alone", _INFERENCE,
           "key = (float(x[0]), float(x[1]), n)", "key = (float(x[0]), float(x[1]))",
           (_TI + "TestFitSpectrum::test_each_refinement_starts_with_a_pass_on_its_rule",)),
    # the solver's stopping tests
    Mutant("gtol-test-dropped", _INFERENCE,
           "        if np.all(np.abs(g) <= _TOL * norms, where=norms > 0):\n"
           "            return _Solution(x, cost, jac, 1)\n", "",
           (_TI + "TestLeastSquares::test_zero_residual_at_the_start_stops_on_gtol",)),
    Mutant("ddelta-rf-sign-flipped", _DYNAMICS,
           "vtv(v[2], v[2]) - vtv(v[0], v[0])", "vtv(v[0], v[0]) - vtv(v[2], v[2])",
           (_TD + "TestTransferProbabilities::test_derivatives_match_central_differences",)),
    Mutant("sinc-argument-off-by-pi", _DYNAMICS,
           "evals[:, _L[4:]]) * (0.5 * tau)", "evals[:, _L[4:]]) * (0.5 * math.pi * tau)",
           (_TD + "TestTransferProbabilities::test_derivatives_match_central_differences",
            _TD + "TestTransferProbabilities::test_derivatives_agree_with_exact_arithmetic"
                  "[random-1]")),
    Mutant("omega-q-term-contracts-1-1", _DYNAMICS,
           "u = _A_COEFF * v[0] + _B_COEFF * v[2]", "u = _A_COEFF * v[0] + _B_COEFF * v[1]",
           (_TD + "TestTransferProbabilities::test_mirror_of_both_detunings",
            _TD + "TestTransferProbabilities::test_even_in_omega_q")),
    Mutant("off-pairs-not-doubled", _DYNAMICS,
           "t[:, 4:] *= 2.0 * np.divide(", "t[:, 4:] *= np.divide(",
           (_TD + "TestTransferProbabilities::test_derivatives_match_central_differences",
            _TD + "TestTransferProbabilities::test_derivatives_agree_with_exact_arithmetic"
                  "[random-1]")),
    Mutant("degenerate-sinc-is-zero", _DYNAMICS,
           "out=np.ones_like(x), where=x != 0.0", "out=np.zeros_like(x), where=x != 0.0",
           (_TD + "TestTransferProbabilities::test_derivatives_in_any_basis_of_a_degenerate_pair",)),
    # the peak search
    Mutant("prominence-from-the-lower-base", _DYNAMICS,
           "max(y[lo:i + 1].min(), y[i:hi].min())",
           "min(y[lo:i + 1].min(), y[i:hi].min())",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
    Mutant("height-strict", _DYNAMICS,
           "if y[i] >= PEAK_HEIGHT and", "if y[i] > PEAK_HEIGHT and",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
    Mutant("prominence-strict", _DYNAMICS,
           "_prominence(y, i) >= PEAK_PROMINENCE", "_prominence(y, i) > PEAK_PROMINENCE",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
    Mutant("plateau-peak-at-its-start", _DYNAMICS,
           "(starts[top] + ends[top]) // 2", "starts[top]",
           (_TD + "TestFindSpectrumPeaks::test_agrees_with_scipy_on_plateaus_and_noise",)),
    # the explicit-drive oracle: the rotating-wave factor 1/2 applied twice,
    # the convergence test loosened, the Floquet states taken at the edge of
    # the harmonic space (a shift by one zone is a symmetry, not a fault),
    # and the sign of the harmonics' phase
    Mutant("oracle-couplings-halved-twice", _DYNAMICS,
           "= 0.5 * q_a, 0.5 * q_b", "= 0.25 * q_a, 0.25 * q_b",
           (_TD + "TestFloquetOracle::test_agrees_with_rwa_across_detuning_grid",
            _TD + "TestFloquetOracle::test_time_reversal")),
    Mutant("harmonic-tol-loosened", _DYNAMICS,
           "_HARMONIC_TOL = 1e-10", "_HARMONIC_TOL = 1e-6",
           (_TD + "TestFloquetOracle::test_doubles_the_harmonics_until_two_agree_to_1e_10",)),
    Mutant("floquet-states-off-centre", _DYNAMICS,
           "np.sum(vecs[k::size] ** 2, axis=0)", "np.sum(vecs[0::size] ** 2, axis=0)",
           (_TD + "TestFloquetOracle::test_agrees_with_direct_integration[300.37-fracs0]",)),
    Mutant("harmonic-phase-sign-flipped", _DYNAMICS,
           "np.exp(1j * harmonics * tau)", "np.exp(-1j * harmonics * tau)",
           (_TD + "TestFloquetOracle::test_agrees_with_direct_integration[300.37-fracs0]",)),
    # the solver's ftol and xtol tests, and its step back from the bound
    Mutant("ftol-test-dropped", _INFERENCE,
           "ftol = (abs(cost - cost_new)", "ftol = False and (abs(cost - cost_new)",
           (_TI + "TestLeastSquares::test_interior_optimum_is_the_normal_equations",)),
    Mutant("xtol-test-dropped", _INFERENCE,
           "xtol = np.linalg.norm(d * step)", "xtol = False and np.linalg.norm(d * step)",
           (_TI + "TestLeastSquares::test_interior_optimum_is_the_normal_equations",
            _TI + "TestLeastSquares::test_interior_optimum_past_a_vanishing_column")),
    Mutant("step-back-to-the-bound", _INFERENCE,
           "_BACK = 0.005", "_BACK = 0.0",
           (_TI + "TestLeastSquares::test_bound_holds_the_second_parameter_at_zero",
            _TI + "TestLeastSquares::test_interior_optimum_past_a_vanishing_column")),
    # the schema checker
    Mutant("unknown-keys-allowed", _ERRORS,
           "if extra is False:", "if False:",
           ("tests/test_errors.py::test_agrees_with_jsonschema_on_single_field_edits",
            _TC + "TestConfigHandling::test_misspelt_trap_key_is_config_error")),
    Mutant("required-keys-unchecked", _ERRORS,
           "            if key not in value:\n", "            if False:\n",
           ("tests/test_errors.py::test_agrees_with_jsonschema_on_single_field_edits",)),
    Mutant("exclusive-minimum-inclusive", _ERRORS,
           'value <= schema["exclusiveMinimum"]', 'value < schema["exclusiveMinimum"]',
           ("tests/test_errors.py::test_agrees_with_jsonschema_on_single_field_edits",)),
    # the CLI's and the trap config's own checks
    Mutant("mass-mismatch-accepted", _CLI,
           'if not math.isclose(block["mass_u"], species_u, rel_tol=1e-6):', "if False:",
           (_TC + "TestConfigHandling::test_mass_u_disagreeing_with_species_is_config_error",)),
    Mutant("two-trap-descriptions-accepted", _CLI,
           '+ has_fields != 1:', '+ has_fields > 2:',
           (_TC + "TestConfigHandling::test_both_secular_and_fields_rejected",
            _TC + "TestConfigHandling::test_secular_block_and_omega_s_rejected")),
    Mutant("uncertainty-without-omega-s-accepted", _CLI,
           'if "omega_s_unc_hz" in block and "omega_s_hz" not in block:', "if False:",
           (_TC + "TestConfigHandling::test_secular_uncertainty_without_omega_s_is_config"
            "_error[secular_hz]",
            _TC + "TestConfigHandling::test_secular_uncertainty_without_omega_s_is_config"
            "_error[A-epsilon]")),
    Mutant("preset-with-fields-accepted", _CLI,
           'if "preset" in block and has_fields:', "if False:",
           (_TC + "TestConfigHandling::test_preset_with_explicit_fields_is_config_error",)),
    Mutant("no-mass-unchecked", _CLI,
           'if "mass_u" not in block:', "if False:",
           (_TC + "TestConfigErrorMessages::test_exits_2_with_message[no-mass]",)),
    Mutant("negative-grid-accepted", _CLI,
           "if args.grid < 0:", "if False:",
           (_TC + "TestClockShift::test_negative_grid_is_config_error",)),
    Mutant("zero-ratio-unchecked", _CLI,
           "if omega_0 <= 0:", "if False:",
           (_TC + "TestConfigErrorMessages::test_exits_2_with_message[zero-ratio]",)),
    Mutant("zero-omega-q-unchecked", _CLI,
           "if omega_q == 0:", "if False:",
           (_TC + "TestConfigErrorMessages::test_exits_2_with_message[zero-omega-q]",)),
    Mutant("points-and-span-unchecked", _CLI,
           "if args.points < 1 or not 0.0 < args.span < math.inf:", "if False:",
           (_TC + "TestSpectrum::test_bad_number_is_config_error[points]",
            _TC + "TestConfigErrorMessages::test_exits_2_with_message[zero-span]")),
    Mutant("error-count-unchecked", _CLI,
           "if len(values) != len(errors):", "if False:",
           (_TC + "TestConfigErrorMessages::test_exits_2_with_message[error-count]",)),
    # each rule written once: a fault in the shared code that no exception
    # would show
    Mutant("counts-from-the-whole-grid", _INFERENCE,
           "noise.sigma_b, points, tau, m, new)",
           "noise.sigma_b, detunings, tau, m, new)",
           (_TI + "TestSimulateCounts::test_passes_each_distinct_magnitude_once_on_the"
            "_carrier[carrier]",
            _TI + "TestNoiseAveragedSignal::test_carrier_spectrum_is_even_for_half_the"
            "_pairs[0.0-nodes0]",
            _TI + "TestNoiseAveragedSignal::test_zero_sigma_reduces_to_bare_scan")),
    Mutant("triangle-coefficient-without-plus-1", _ANGULAR,
           "fac((a + b + c) // 2 + 1))", "fac((a + b + c) // 2))",
           (_TA + "TestWigner3j::test_agrees_with_exact_oracle_j_up_to_10",
            _TA + "TestWigner6j::test_agrees_with_exact_oracle_j_up_to_10")),
    Mutant("extra-f-ignored", _COUPLING,
           "if missing or extra:", "if missing:",
           (_TCP + "TestLevelSpec::test_extra_energy_named_in_error",
            _TE + "TestHyperfineAverage::test_f_outside_the_level_rejected[42-42]")),
    Mutant("equal-weight-check-dropped", _EFFECTS,
           "if len(fs) != level.electronic_j.twice + 1:", "if False:",
           (_TE + "TestHyperfineAverage::test_level_with_i_below_j_rejected",
            _TC + "TestClockShift::test_missing_hyperfine_energies_named")),
    Mutant("lookup-lists-the-levels", _SPECIES,
           "available: {sorted(table)}", "available: {sorted(self.levels)}",
           ("tests/test_species.py::TestParsing::test_unknown_level_or_transition_lists"
            "_what_there_is",)),
    Mutant("quadrupole-preset-keeps-epsilon", _TRAP,
           "replace(linear, A=linear.epsilon, epsilon=0.0)",
           "replace(linear, A=linear.epsilon)",
           ("tests/test_trap.py::TestTrapConfig::test_ideal_quadrupole_preset",
            _TE + "TestHyperfineAverage::test_dm0_only_couplings_average_to_zero")),
    # e*a0^2, computed once from the constants: the product regrouped moves
    # its last bit
    Mutant("e-a0-squared-regrouped", _TRAP,
           "elementary_charge * bohr_radius**2",
           "elementary_charge * bohr_radius * bohr_radius",
           ("tests/test_trap.py::TestConstants::test_codata2018_bit_for_bit",)),
    Mutant("empty-manifold-accepted", _COUPLING,
           "if not fs:", "if False:",
           (_TCP + "TestHqMatrix::test_empty_manifold_rejected",
            _TC + "TestMatrixElements::test_empty_manifold_is_config_error")),
    # "every F once", the one check that the energy map, the shift map and
    # the manifold pass through
    Mutant("f-repeats-accepted", _COUPLING,
           "        if two_f in seen:\n", "        if False:\n",
           (_TCP + "TestLevelSpec::test_repeated_f_energy_named_in_error",
            _TE + "TestHyperfineAverage::test_repeated_f_rejected",
            "tests/test_species.py::TestDuplicateEntries::test_duplicate_is_named"
            "[hyperfine-F]",
            _TCP + "TestReducedTable::test_repeated_f_rejected",
            _TC + "TestMatrixElements::test_repeated_f_is_config_error")),
    # the satellites' checks
    Mutant("laser-detuning-unchecked", _INFERENCE,
           "if sys.detuning_laser != 0.0:", "if False:",
           (_TI + "TestNoiseAveragedSignal::test_laser_detuning_is_the_grid",)),
    Mutant("fractional-shots-accepted", _INFERENCE,
           " & (arr == np.floor(arr))", "",
           (_TI + "TestFitSpectrum::test_shots_follow_the_rule_of_simulate_counts[300.6]",
            _TI + "TestSimulateCounts::test_shots_must_be_a_whole_number_of_at_least_one"
            "[2.5]",
            _TC + "TestFitAndExtract::test_fractional_shots_are_config_error")),
    Mutant("shots-length-unchecked", _INFERENCE,
           "if arr.ndim and arr.shape != shape:", "if False:",
           (_TI + "TestFitSpectrum::test_shots_of_the_wrong_length_are_rejected",)),
    Mutant("non-finite-grid-accepted", _DYNAMICS,
           "np.all(np.isfinite(grid)) and ", "",
           (_TI + "TestNoiseAveragedSignal::test_bad_grid_is_rejected_before_any_eigh[inf]",
            _TI + "TestNoiseAveragedSignal::test_bad_grid_is_rejected_before_any_eigh"
            "[minus-inf]")),
    # the fit objective: the variance floor that chi^2 and the Jacobian's
    # variance term share, and the one chi^2 of the seed's omega_q grid, its
    # sigma_B scan and the upper limit
    Mutant("variance-floor-doubled", _INFERENCE,
           "self.floor = 1.0 / (4.0 * shots)", "self.floor = 1.0 / (2.0 * shots)",
           (_TI + "TestObjective::test_variance_floor_holds_in_chi2_and_in_the_jacobian",)),
    Mutant("slope-ignores-the-floor", _INFERENCE,
           "np.where(p * (1.0 - p) > self.floor,", "np.where(True,",
           (_TI + "TestObjective::test_variance_floor_holds_in_chi2_and_in_the_jacobian",)),
    Mutant("chi2-unweighted", _INFERENCE,
           "np.sum(self._weighted(p)[0] ** 2, axis=-1)",
           "np.sum((self.fractions - p) ** 2, axis=-1)",
           (_TI + "TestObjective::test_variance_floor_holds_in_chi2_and_in_the_jacobian",
            _TI + "TestFitSpectrum::test_sigma_b_at_bound_reports_upper_limit")),
    # one model function: the seed's noiseless grid is the 1-node rule, and
    # every pass hands the kernel one laser detuning per pair
    Mutant("seed-grid-on-25-nodes", _INFERENCE,
           "omegas, self.omega_0, 0.0, 0.0, self.magnitudes, self.tau, 1))",
           "omegas, self.omega_0, 0.0, 0.0, self.magnitudes, self.tau, 25))",
           (_TI + "TestFitSpectrum::test_18nt_fit_passes_at_most_10000_pairs",)),
    Mutant("laser-detuning-not-broadcast", _INFERENCE,
           "    d_l = np.broadcast_to(detunings[:, None] - SENSITIVITY_LASER * b[None, :],\n"
           "                          omega_q.shape[:-2] + (len(detunings), len(b)))\n",
           "    d_l = detunings[:, None] - SENSITIVITY_LASER * b[None, :]\n",
           (_TI + "TestFitSpectrum::test_18nt_fit_passes_at_most_10000_pairs",)),
    Mutant("one-dimensional-check-dropped", _INFERENCE,
           "if detunings.ndim != 1 or detunings.shape", "if detunings.shape",
           (_TI + "TestFitSpectrum::test_inputs_must_be_one_dimensional_of_one_shape[0-D]",
            _TI + "TestFitSpectrum::test_inputs_must_be_one_dimensional_of_one_shape[2-D]")),
    # the kernel against the single-matrix propagator
    Mutant("kernel-phase-halved", _DYNAMICS,
           "np.exp(-0.5j * tau * evals)", "np.exp(-0.25j * tau * evals)",
           (_TD + "TestTransferProbabilities::test_agrees_with_propagate_on_random_draws",)),
    # the kernel's working memory: a flat copy of a broadcast omega_q, and a
    # batch's Hamiltonian held through eigh's outputs and the gradient
    Mutant("broadcast-omega-q-copied", _DYNAMICS,
           "np.broadcast_to(np.asarray(a, dtype=float), shape).reshape(-1)",
           "np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()",
           (_TD + "TestTransferProbabilities::test_working_memory_is_bounded[False-0.28-5120]",
            _TD + "TestTransferProbabilities::test_working_memory_is_bounded[True-0.35-5120]")),
    Mutant("batch-hamiltonian-kept", _DYNAMICS,
           "        evals, evecs = np.linalg.eigh(_rwa_hamiltonians(\n"
           "            flat_wq[part], omega_0, flat_rf[part], flat_l[part]))\n",
           "        h = _rwa_hamiltonians(flat_wq[part], omega_0, flat_rf[part], flat_l[part])\n"
           "        evals, evecs = np.linalg.eigh(h)\n",
           (_TD + "TestTransferProbabilities::test_working_memory_is_bounded[True-0.35-512]",
            _TD + "TestTransferProbabilities::test_working_memory_is_bounded[True-0.35-5120]")),
    # the trap's cached channel factors, and H_Q, which is not cached: a key
    # without the orientation, and an H_Q matrix that keeps the Theta of the
    # first level of an (I, J) or the channel factors of the first trap
    # (written as the first value seen standing in for every later one, as a
    # cache keyed without it would hand back the first entry built); numpy's
    # product for hq_matrix regrouped, and the element reads' row lookup; the
    # off-resonant partner window and its skip of uncoupled partners, and the
    # checks the per-state reads rest on
    Mutant("theta-not-in-matrix-key", _COUPLING,
           "= level.theta_e_a02 * reduced * c[channel]",
           "= hq_matrix.__dict__.setdefault((level.nuclear_spin.twice, "
           "level.electronic_j.twice), level.theta_e_a02) * reduced * c[channel]",
           (_TCP + "TestReducedTable::test_levels_of_one_i_and_j_keep_their_own_theta",)),
    Mutant("orientation-not-in-matrix-key", _COUPLING,
           "np.array(_channel_factors(trap))",
           "np.array(hq_matrix.__dict__.setdefault('c', _channel_factors(trap)))",
           (_TCP + "TestReducedTable::test_orientations_keep_their_own_matrix",)),
    Mutant("orientation-not-in-channel-key", _COUPLING,
           "wigner_D2_twice(2 * dmu, 2 * q, trap.orientation)",
           "wigner_D2_twice(2 * dmu, 2 * q, _channel_factors.__dict__.setdefault("
           "'orientation', trap.orientation))",
           (_TCP + "TestReducedTable::test_orientations_keep_their_own_matrix",)),
    Mutant("channel-factors-per-level", _COUPLING,
           "@lru_cache(maxsize=8)\ndef _channel_factors", "def _channel_factors",
           (_TCP + "TestReducedTable::test_channel_factors_once_per_trap",)),
    Mutant("hq-matrix-product-regrouped", _COUPLING,
           "level.theta_e_a02 * reduced * c[channel]",
           "level.theta_e_a02 * (reduced * c[channel])",
           (_TCP + "TestReducedTable::test_hq_matrix_is_the_element_reads_bit_for_bit[lu176]",
            _TCP + "TestReducedTable::test_hq_matrix_is_the_element_reads_bit_for_bit"
            "[ba138]")),
    Mutant("element-read-ignores-its-row", _COUPLING,
           "if at == len(rows) or rows[at] != i:", "if at == len(rows):",
           (_TCP + "TestReducedTable::test_hq_matrix_is_the_element_reads_bit_for_bit[lu176]",
            _TCP + "TestReducedTable::test_hq_matrix_is_the_element_reads_bit_for_bit"
            "[ba138]")),
    # the reduced table's build: the mirror of each lower-triangle entry
    # without its sign or with its channel unflipped, and the walk over each
    # column's partners narrowed at either edge of |dmu| <= 2
    Mutant("mirror-sign-dropped", _COUPLING,
           "(k, value * (-1.0) ** dmu, 2 - dmu)", "(k, value, 2 - dmu)",
           (_TCP + "TestReducedTable::test_matches_exact_element_formula",
            _TCP + "TestHqMatrix::test_hermitian_and_traceless_random")),
    Mutant("mirror-channel-unflipped", _COUPLING,
           "(k, value * (-1.0) ** dmu, 2 - dmu)", "(k, value * (-1.0) ** dmu, dmu + 2)",
           (_TCP + "TestReducedTable::test_matches_exact_element_formula",
            _TCP + "TestHqMatrix::test_hermitian_and_traceless_random")),
    Mutant("partner-walk-narrowed-above", _COUPLING,
           "min(ket_m + 4, bra_f)", "min(ket_m + 2, bra_f)",
           (_TCP + "TestReducedTable::test_matches_exact_element_formula",
            _TCP + "TestReducedTable::test_rotation_covariance[Lu+ 3D2]")),
    Mutant("partner-walk-narrowed-below", _COUPLING,
           "max(ket_m - 4, -bra_f)", "max(ket_m - 2, -bra_f)",
           (_TCP + "TestReducedTable::test_matches_exact_element_formula",
            _TCP + "TestReducedTable::test_rotation_covariance[Lu+ 3D2]")),
    Mutant("partner-window-one-row", _EFFECTS,
           "amplitudes(level, trap, k, k - 2, k + 2)",
           "amplitudes(level, trap, k, k - 1, k + 1)",
           (_TE + "TestPerStateReadsMatchHqMatrix::test_offresonant_shift_is_the_column_sum"
            "[3D2]",
            _TE + "TestOffResonantShift::test_matches_explicit_second_order_sum"
            "[Ba+ D5/2-angles0]")),
    Mutant("window-without-its-last-row", _COUPLING,
           "bisect_right(rows, last)", "bisect_left(rows, last)",
           (_TE + "TestPerStateReadsMatchHqMatrix::test_offresonant_shift_is_the_column_sum"
            "[3D2]",
            _TCP + "TestReducedTable::test_writes_never_reach_a_later_read")),
    Mutant("zero-coupling-partner-kept", _EFFECTS,
           " or dm == 0 or a2 == 0.0:", " or dm == 0:",
           (_TE + "TestOffResonantShift::test_resonance_guard",)),
    # the angular-momentum rules that angular and coupling share: the
    # triangle rule's parity (validate_f and the 6j), the projection rule's
    # parity (the 3j and HyperfineState), the 3j's integer prefactor and its
    # phase on the shared Racah closing step, and the -0.0 inputs that a cache
    # key cannot tell apart
    Mutant("validate-f-parity-dropped", _ANGULAR,
           " and (a + b + c) % 2 == 0", "",
           (_TCP + "TestLevelSpec::test_validate_f_checks_range_and_parity",
            _TCP + "TestSharedRules::test_validate_f_accepts_exactly_the_f_values[14-2]",
            _TA + "TestWigner6j::test_agrees_with_exact_oracle_j_up_to_10")),
    Mutant("projection-parity-dropped", _ANGULAR,
           " or (j - m) % 2:", ":",
           (_TA + "TestWigner3j::test_invalid_input_raises",
            _TCP + "TestSharedRules::test_projection_rule_is_the_same_for_every_caller"
            "[HyperfineState]",
            _TCP + "TestSharedRules::test_projection_rule_is_the_same_for_every_caller"
            "[wigner_3j]")),
    Mutant("3j-numerator-factorial-dropped", _ANGULAR,
           "for f in jm:", "for f in jm[1:]:",
           (_TA + "TestWigner3j::test_agrees_with_exact_oracle_j_up_to_10",)),
    Mutant("racah-phase-dropped", _ANGULAR,
           "(-1.0) ** (t + phase)", "(-1.0) ** t",
           (_TA + "TestWigner3j::test_agrees_with_exact_oracle_j_up_to_10",)),
    Mutant("theta-minus-zero-kept", _COUPLING,
           "float(theta_e_a02) + 0.0", "float(theta_e_a02)",
           (_TCP + "TestReducedTable::test_signed_zero_inputs_read_one_matrix[theta]",)),
    Mutant("angles-minus-zero-kept", _ANGULAR,
           '        object.__setattr__(self, "alpha", self.alpha + 0.0)\n'
           '        object.__setattr__(self, "beta", self.beta + 0.0)\n', "",
           (_TCP + "TestReducedTable::test_signed_zero_inputs_read_one_matrix[angles]",)),
    # the entry rule, angular.doubled: the float range (infinities and ints
    # past it), NaN, the 1e-9 tolerance both ways, the half-integer check,
    # and the "n/2" text that species files and --manifold use
    Mutant("half-int-overflow-uncaught", _ANGULAR,
           "if not abs(twice) <= sys.float_info.max:  # also NaN",
           "if twice != twice:  # NaN only",
           (_TA + "TestHalfInt::test_non_finite_values[inf]",
            _TA + "TestHalfInt::test_non_finite_values[1e308]")),
    Mutant("huge-int-accepted", _ANGULAR,
           "abs(twice) <= sys.float_info.max", "abs(twice) <= math.inf",
           (_TA + "TestHalfInt::test_non_finite_values[10**400]",)),
    Mutant("nan-accepted", _ANGULAR,
           "if not abs(twice) <= sys.float_info.max:",
           "if abs(twice) > sys.float_info.max:",
           (_TA + "TestHalfInt::test_non_finite_values[nan]",)),
    Mutant("tolerance-exact", _ANGULAR,
           "if abs(twice - rounded) > 1e-9:", "if abs(twice - rounded) > 0.0:",
           (_TA + "TestHalfInt::test_tolerance_is_1e_9_on_twice_the_value",)),
    Mutant("tolerance-loosened", _ANGULAR,
           "if abs(twice - rounded) > 1e-9:", "if abs(twice - rounded) > 1e-7:",
           (_TA + "TestHalfInt::test_tolerance_is_1e_9_on_twice_the_value",)),
    Mutant("non-half-integer-accepted", _ANGULAR,
           "if abs(twice - rounded) > 1e-9:", "if False:",
           (_TA + "TestHalfInt::test_rejects_non_half_integers",
            _TA + "TestHalfInt::test_tolerance_is_1e_9_on_twice_the_value")),
    Mutant("n-over-2-read-as-n", _ANGULAR,
           "int(match[1]) * (1 if match[2] else 2)", "int(match[1]) * (2 if match[2] else 1)",
           ("tests/test_species.py::TestParsing::test_half_int_strings",
            _TC + "TestMatrixElements::test_ba_beta_zero_has_dm2_only")),
    Mutant("any-denominator-accepted", _ANGULAR,
           'r"(-?[0-9]+)(/2)?"', 'r"(-?[0-9]+)(/[0-9])?"',
           ("tests/test_species.py::TestParsing::test_half_int_strings",)),
    Mutant("over-long-text-uncaught", _ANGULAR,
           "        except ValueError:  # int() reads",
           "        except OverflowError:  # int() reads",
           (_TA + "TestHalfInt::test_over_long_text_is_invalid_input",
            "tests/test_species.py::TestParsing::test_over_long_number_is_invalid_input[j]",
            _TC + "TestMatrixElements::test_over_long_manifold_number_is_config_error")),
    # checks that no other test reached
    Mutant("text-equals-half-int", _ANGULAR,
           "        return NotImplemented\n", "        return self.twice == doubled(other)\n",
           (_TA + "TestHalfInt::test_equals_numbers_only",)),
    Mutant("non-finite-angles-accepted", _ANGULAR,
           "if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):", "if False:",
           (_TA + "TestRank2Rotation::test_euler_angles_must_be_finite[nan-alpha]",
            _TA + "TestRank2Rotation::test_euler_angles_must_be_finite[inf-beta]",
            _TA + "TestRank2Rotation::test_rejects_non_finite_beta[nan]")),
    Mutant("negative-momentum-accepted", _COUPLING,
           "if two_i < 0 or two_j < 0:", "if False:",
           (_TCP + "TestLevelSpec::test_negative_momentum_rejected[negative-I]",
            _TCP + "TestLevelSpec::test_negative_momentum_rejected[negative-J]")),
    Mutant("non-finite-theta-accepted", _COUPLING,
           "if not math.isfinite(theta_e_a02):", "if False:",
           (_TCP + "TestLevelSpec::test_non_finite_theta_rejected[nan]",
            _TCP + "TestLevelSpec::test_non_finite_theta_rejected[inf]")),
    # JSON input: an object that repeats a key; and an int too long for the
    # message's repr
    Mutant("repeated-json-key-kept", _ERRORS,
           "if len(doc := dict(pairs)) < len(pairs):", "if (doc := dict(pairs)) is None:",
           (_TC + "TestConfigHandling::test_repeated_key_in_species_file_is_config_error",
            _TC + "TestConfigHandling::test_repeated_key_in_run_config_is_config_error")),
    # an input file that cannot be read as UTF-8 text or nests its JSON too
    # deep for the parser, and an output path that cannot be written
    Mutant("unreadable-file-uncaught", _ERRORS,
           "except (OSError, UnicodeDecodeError) as exc:",
           "except (FileNotFoundError, UnicodeDecodeError) as exc:",
           (_TC + "TestFitAndExtract::test_missing_data_file_is_config_error",)),
    Mutant("non-utf-8-file-uncaught", _ERRORS,
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:",
           (_TC + "TestFitAndExtract::test_missing_data_file_is_config_error",)),
    Mutant("deep-json-uncaught", _ERRORS,
           "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
           (_TC + "TestConfigHandling::test_deeply_nested_json_is_config_error",)),
    Mutant("unwritable-output-uncaught", _CLI,
           "except OSError as exc:", "except FileNotFoundError as exc:",
           (_TC + "TestFitAndExtract::test_output_to_a_directory_is_config_error",)),
    Mutant("over-long-int-in-repr", _ANGULAR,
           "if isinstance(value, int) else repr(value)", "if False else repr(value)",
           (_TA + "TestHalfInt::test_over_long_int_is_invalid_input",)),
    # the clock-shift grid in Python floats, numpy's linspace point for point
    Mutant("grid-as-fractions-of-the-span", _CLI,
           "[i * step + start for i in range(n - 1)]",
           "[start + (stop - start) * (i / (n - 1)) for i in range(n - 1)]",
           (_TC + "TestClockShift::test_grid_is_numpys_linspace_bit_for_bit",)),
    Mutant("grid-of-one-point-divides-by-zero", _CLI,
           "if n > 1 else [start] * n", "if n > 0 else []",
           (_TC + "TestClockShift::test_grid_is_numpys_linspace_bit_for_bit",)),
    Mutant("one-of-overlap-accepted", _ERRORS,
           'if len(errors) < len(schema["oneOf"]) - 1:', "if False:",
           ("tests/test_errors.py::test_one_of_rejects_a_value_matching_two_forms",)),
    Mutant("flat-omega-q-accepted", _INFERENCE,
           "if jtj[0, 0] <= 0:", "if False:",
           (_TI + "TestLeastSquares::test_zero_omega_q_column_is_a_degenerate_covariance",)),
    # the one rule for sigma_B at its bound: no larger than its own error
    Mutant("bound-rule-dropped", _INFERENCE,
           "np.all(np.isfinite(errs)) and errs[1] < sigma_b", "np.all(np.isfinite(errs))",
           (_TI + "TestFitSpectrum::test_sigma_b_at_bound_reports_upper_limit",
            _TI + "TestFitSpectrum::test_upper_limit_point_is_not_evaluated_again")),
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
        for name in ("src", "tests", "tools"):
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
