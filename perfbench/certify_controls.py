"""Certify the control-frequency rule used by the seq-spectrum workload.

    python3 perfbench/certify_controls.py

Controls must never be reported as atoms, whatever the seed.  Thue-Morse
and Rudin-Shapiro have no atoms anywhere, so only period-doubling needs
a certificate.  This script evaluates the period-doubling +-1 intensity
I_N(k) at the workload's schedule sizes on a grid of 2^22 frequencies
(zero-padded FFTs, 60 grid points per 1/N at N = 2^16), applies
detect_atoms' rule (rel_tol 0.05, min_intensity 1e-6) at every grid
point, and checks that none of the frequencies the control rule accepts
is an atom, and that the largest accepted intensity stays below the
1e-6 floor.  Exit code 0 when the rule is certified, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import CERT_DIST, CERT_LEVELS, PM, SeqSpectrum  # noqa: E402

from diffspec import fixed_point_window, rule_by_name  # noqa: E402

GRID = 2**22
REL_TOL = 0.05
MIN_INTENSITY = 1e-6


def main() -> int:
    z = SeqSpectrum.FULL
    win = fixed_point_window(rule_by_name("period-doubling"), 0, z.half, weights=PM)
    y = win.values()[-win.lo:]  # sites 0, 1, ... as intensity_symbolic sums them
    last = [np.abs(np.fft.fft(y[:n], GRID)) ** 2 / n**2 for n in z.schedule[-3:]]
    rel = np.maximum(
        np.abs(last[1] - last[0]) / np.maximum(np.maximum(last[0], last[1]), 1e-300),
        np.abs(last[2] - last[1]) / np.maximum(np.maximum(last[1], last[2]), 1e-300),
    )
    atom = (rel <= REL_TOL) & (last[2] >= MIN_INTENSITY)
    k = np.arange(GRID) / GRID
    accepted = np.ones(GRID, dtype=bool)
    for j in range(CERT_LEVELS + 1):
        scaled = k * 2.0**j
        accepted &= np.abs(scaled - np.round(scaled)) >= CERT_DIST
    worst = float(last[2][accepted].max())
    false_atoms = int(np.count_nonzero(atom & accepted))
    print(f"accepted share {accepted.mean():.3f}, atoms among accepted {false_atoms}, "
          f"max accepted intensity {worst:.3g} (floor {MIN_INTENSITY:g})")
    return 0 if false_atoms == 0 and worst < MIN_INTENSITY else 1


if __name__ == "__main__":
    sys.exit(main())
