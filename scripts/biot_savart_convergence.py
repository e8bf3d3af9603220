#!/usr/bin/env python3
"""Convergence study of the truncated current-integral quadrature.

Prints, for a few field points, the error against the closed form as a
function of the truncation half-length and of the azimuthal per-panel order
n_phi (the axial integral is exact), plus the extrapolated value.  Writes a
CSV next to the printed table.
"""

import csv
import sys
from pathlib import Path

import numpy as np

from abgauge import (QuadratureConfig, SolenoidSpec, SolenoidTransverseField,
                     numeric_potential)

POINTS = [(0.5, 0.0, 0.0), (1.1, 0.0, 0.3), (2.0, 0.0, 0.0), (5.0, 0.0, 0.0)]
HALF_LENGTHS = (8.0, 16.0, 32.0, 64.0)
ORDERS = (8, 16, 32, 64)
S = SolenoidSpec(1.0, 1.0)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("biot_savart_convergence.csv")
    rows = []
    for p in POINTS:
        exact = SolenoidTransverseField(S)(p)
        scale = float(np.max(np.abs(exact))) or 1.0

        cfg = QuadratureConfig(n_phi=64, half_lengths=HALF_LENGTHS)
        res = numeric_potential(p, S, cfg)
        print(f"\npoint {p}  |A| = {scale:.6f}")
        print("  truncation sweep (n_phi = 64):")
        for L, v in zip(res.half_lengths, res.per_length):
            err = float(np.max(np.abs(v - exact))) / scale
            print(f"    L = {L:5.1f}R   rel err = {err:.3e}")
            rows.append({"point": p, "mode": "half_length", "value": L,
                         "rel_err": err})
        ext_err = float(np.max(np.abs(res.value - exact))) / scale
        print(f"    extrapolated rel err = {ext_err:.3e} "
              f"(estimate {res.error_estimate:.1e})")
        rows.append({"point": p, "mode": "extrapolated", "value": 0,
                     "rel_err": ext_err})

        print("  n_phi sweep (fixed L = 64R, no extrapolation):")
        for n in ORDERS:
            cfg_n = QuadratureConfig(n_phi=n, half_lengths=(64.0,))
            v = numeric_potential(p, S, cfg_n).per_length[0]
            err = float(np.max(np.abs(v - exact))) / scale
            print(f"    n_phi = {n:3d}   rel err = {err:.3e}")
            rows.append({"point": p, "mode": "order", "value": n, "rel_err": err})

    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["point", "mode", "value", "rel_err"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
