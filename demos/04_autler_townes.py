"""Resonant quadrupole spectroscopy: dressed-state spectra.

Scans the clock-laser detuning across the |S,1/2> -> |D,1/2> line while the
trap rf resonantly dresses the upper state.  On resonance (Delta = 0) the
spectrum shows two lines at +-sqrt(7)/5 * wq; detuning the Zeeman splitting
reveals the full three-line pattern.  Each panel is the noise average at
sigma_B = 0, which is the noiseless spectrum on a single node.  Panels are
written to out/autler_townes.csv; pass --plot to draw them if matplotlib is
available.
"""

import math
import sys
from pathlib import Path

import numpy as np

from trapquad import NoiseModel, RwaSystem, noise_averaged_signal
from trapquad.dynamics import (
    default_detuning_grid,
    dressed_splitting,
    find_spectrum_peaks,
)

TWO_PI = 2 * math.pi
WQ = TWO_PI * 1.7e3

grid = default_detuning_grid(WQ, 801)
panels = {}
for omega0_frac in (0.05, 0.3):
    for delta_frac in (0.0, 0.25, 0.5):
        sys_ = RwaSystem(WQ, omega0_frac * WQ, delta_frac * WQ, 0.0)
        scan = noise_averaged_signal(sys_, NoiseModel(0.0), grid,
                                     math.pi / sys_.omega_0)
        panels[(omega0_frac, delta_frac)] = scan
        peaks = find_spectrum_peaks(scan)
        print(f"Omega0 = {omega0_frac:4.2f} wq, Delta = {delta_frac:4.2f} wq: "
              f"{len(peaks)} lines at {np.round(peaks / WQ, 3)} wq")

print(f"\nouter dressed states sit at +-sqrt(7)/5 = "
      f"+-{dressed_splitting(WQ) / WQ:.4f} wq")
print("on resonance the middle dressed state carries no |D,1/2> weight, "
      "so only two lines appear")

out = Path("out")
out.mkdir(exist_ok=True)
with open(out / "autler_townes.csv", "w") as fh:
    fh.write("omega0_over_wq,delta_rf_over_wq,delta_over_omegaQ,"
             "transfer_probability\n")
    for (w0, dr), scan in panels.items():
        for d, p in zip(scan.detunings, scan.transfer):
            fh.write(f"{w0},{dr},{d / WQ:.6f},{p:.8f}\n")
print("wrote out/autler_townes.csv")

if "--plot" in sys.argv:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plot")
    else:
        fig, axes = plt.subplots(3, 2, figsize=(8, 8), sharex=True)
        for col, w0 in enumerate((0.05, 0.3)):
            for row, dr in enumerate((0.0, 0.25, 0.5)):
                scan = panels[(w0, dr)]
                ax = axes[row][col]
                ax.plot(scan.detunings / WQ, scan.transfer, lw=0.8)
                ax.set_title(f"$\\Omega_0={w0}\\,\\omega_Q$, "
                             f"$\\Delta={dr}\\,\\omega_Q$", fontsize=9)
        for ax in axes[-1]:
            ax.set_xlabel(r"$\delta/\omega_Q$")
        for row in axes:
            row[0].set_ylabel("transfer")
        fig.tight_layout()
        fig.savefig(out / "autler_townes.png", dpi=150)
        print("wrote out/autler_townes.png")
