"""Oscillating quadrupole (trap rf) effects on trapped-ion energy levels.

Calculators for quadrupole coupling matrix elements, sideband indices,
resonant Zeeman couplings, clock shifts with hyperfine averaging, resonant
Autler-Townes spectroscopy, quasi-static-noise lineshape fitting, and
quadrupole-moment extraction.
"""

from .angular import EulerAngles, HalfInt, wigner_3j, wigner_6j, wigner_D2, wigner_d2
from .coupling import (
    HyperfineState,
    LevelSpec,
    QuadCouplingMatrix,
    c2_coefficient,
    gradient_components,
    hq_matrix,
    theta_matrix_element,
)
from .dynamics import (
    RWA_BASIS,
    RwaSystem,
    SpectrumScan,
    build_rwa_hamiltonian,
    floquet_oracle_from_rwa,
    propagate,
    scan_spectrum,
)
from .effects import (
    ClockTransition,
    ShiftDecomposition,
    ZeemanConfig,
    clock_shift,
    hyperfine_average,
    offresonant_zeeman_shift,
    orientation_f1,
    orientation_f2,
    resonant_coupling,
    shift_decomposition,
    sideband_index,
)
from .errors import (
    FitError,
    IntegrationError,
    InvalidInputError,
    QuadratureConvergenceError,
    ResonanceError,
)
from .inference import (
    FitConfig,
    FitResult,
    NoiseModel,
    ThetaEstimate,
    combine_runs,
    extract_theta,
    fit_spectrum,
    noise_averaged_signal,
    simulate_counts,
)
from .trap import (
    CODATA2018,
    PhysicalConstants,
    SecularEstimate,
    TrapConfig,
    epsilon_from_secular,
    secular_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "EulerAngles", "HalfInt", "wigner_3j", "wigner_6j", "wigner_D2", "wigner_d2",
    "HyperfineState", "LevelSpec", "QuadCouplingMatrix", "c2_coefficient",
    "gradient_components", "hq_matrix", "theta_matrix_element",
    "RWA_BASIS", "RwaSystem", "SpectrumScan", "build_rwa_hamiltonian",
    "floquet_oracle_from_rwa", "propagate", "scan_spectrum",
    "ClockTransition", "ShiftDecomposition", "ZeemanConfig", "clock_shift",
    "hyperfine_average", "offresonant_zeeman_shift", "orientation_f1",
    "orientation_f2", "resonant_coupling", "shift_decomposition", "sideband_index",
    "FitError", "IntegrationError", "InvalidInputError",
    "QuadratureConvergenceError", "ResonanceError",
    "FitConfig", "FitResult", "NoiseModel", "ThetaEstimate", "combine_runs",
    "extract_theta", "fit_spectrum", "noise_averaged_signal", "simulate_counts",
    "CODATA2018", "PhysicalConstants", "SecularEstimate", "TrapConfig",
    "epsilon_from_secular", "secular_consistency",
]
