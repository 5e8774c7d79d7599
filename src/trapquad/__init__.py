"""Oscillating quadrupole (trap rf) effects on trapped-ion energy levels.

Calculators for quadrupole coupling matrix elements, sideband indices,
resonant Zeeman couplings, clock shifts with hyperfine averaging, resonant
Autler-Townes spectroscopy, quasi-static-noise lineshape fitting, and
quadrupole-moment extraction.

Each exported name is imported from its submodule on first use (PEP 562),
so `import trapquad` loads no submodule and no numpy.
"""

import importlib

_EXPORTS = {
    "angular": ("EulerAngles", "HalfInt", "wigner_3j", "wigner_6j", "wigner_D2"),
    "coupling": ("HyperfineState", "LevelSpec", "QuadCouplingMatrix", "c2_coefficient",
                 "gradient_components", "hq_matrix", "theta_matrix_element"),
    "dynamics": ("RWA_BASIS", "RwaSystem", "SpectrumScan", "build_rwa_hamiltonian",
                 "floquet_oracle_from_rwa", "propagate"),
    "effects": ("ClockTransition", "ShiftDecomposition", "ZeemanConfig", "clock_shift",
                "hyperfine_average", "offresonant_zeeman_shift", "orientation_f1",
                "orientation_f2", "resonant_coupling", "shift_decomposition",
                "sideband_index"),
    "errors": ("FitError", "IntegrationError", "InvalidInputError",
               "QuadratureConvergenceError", "ResonanceError"),
    "inference": ("FitConfig", "FitResult", "fit_spectrum", "noise_averaged_signal",
                  "simulate_counts"),
    "trap": ("CODATA2018", "SecularEstimate", "TrapConfig",
             "epsilon_from_secular", "secular_consistency", "NoiseModel",
             "ThetaEstimate", "combine_runs", "extract_theta"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # A submodule's own name is not in the table: the AttributeError lets
    # `from trapquad import angular` fall back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
