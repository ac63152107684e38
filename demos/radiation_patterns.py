#!/usr/bin/env python3
"""Beam steering on a 16x16 binary-phase surface.

Computes the radiation pattern of the all-zero configuration (a
broadside beam) and of a greedily optimized configuration steered to
(elevation 25, azimuth 120), then renders both as coarse ASCII heatmaps
and reports the peak directions.

Run:  python3 demos/radiation_patterns.py
"""

import numpy as np

from risopt import (
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    radiation_pattern,
)
from risopt.optimizers import im_optimize

SHADES = " .:-=+*#%@"


def ascii_heatmap(pattern, row_stride=4, col_stride=6):
    """Downsampled dB map mapped onto a 10-level character ramp."""
    p = pattern.power_db[::row_stride, ::col_stride]
    lo, hi = p.max() - 40.0, p.max()
    idx = np.clip((p - lo) / (hi - lo), 0.0, 1.0) * (len(SHADES) - 1)
    lines = []
    for r, el in zip(idx.astype(int), pattern.elevations[::row_stride]):
        lines.append(f"{el:+6.0f} deg |" + "".join(SHADES[i] for i in r))
    return "\n".join(lines)


def describe_peak(pattern, label):
    i, j = np.unravel_index(np.argmax(pattern.power_db), pattern.power_db.shape)
    print(f"{label}: peak {pattern.power_db[i, j]:.2f} dB at "
          f"elevation {pattern.elevations[i]:+.0f}, azimuth {pattern.azimuths[j]:.0f}")


def main():
    geom = RisGeometry.half_wavelength(16, 16, 5e9)
    tx = TxSpec(1.0)
    h = compute_illumination(geom, tx)
    elevations = np.arange(-60.0, 61.0, 1.0)
    azimuths = np.arange(0.0, 181.0, 1.0)

    broadside = PhaseConfig(np.zeros((16, 16), dtype=np.int64))
    pat0 = radiation_pattern(geom, h, broadside, elevations, azimuths)

    target = RxSpec(10.0, 25.0, 120.0)
    ch = compute_channels(geom, h, target)
    steered_cfg, trace = im_optimize(ch)
    pat1 = radiation_pattern(geom, h, steered_cfg, elevations, azimuths)

    print("All-zero configuration (specular broadside beam):")
    print(ascii_heatmap(pat0))
    describe_peak(pat0, "broadside")
    print()
    print(f"Optimized for elevation +25, azimuth 120 "
          f"({trace.steps} configure-and-measure steps):")
    print(ascii_heatmap(pat1))
    describe_peak(pat1, "steered")


if __name__ == "__main__":
    main()
