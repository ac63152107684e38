#!/usr/bin/env python3
"""Greedy search quality versus the exhaustive optimum.

On surfaces small enough to enumerate (here 3x3, 512 configs) the
element-wise greedy sweep usually lands on the true optimum and the
stripe-based search trades a little power for far fewer steps. This
script makes that concrete over a batch of random receiver placements,
then shows the step-count arithmetic for the full 40x40 surface where
enumeration is hopeless (2^1600 configs).

Run:  python3 demos/optimizer_comparison.py
"""

import numpy as np

from risopt import RisGeometry, RxSpec, TxSpec, compute_channels, compute_illumination, objective
from risopt.evaluate import power_db
from risopt.optimizers import (
    combine_stripes,
    exhaustive_optimize,
    gim_optimize,
    im_optimize,
    step_count,
)


def main():
    geom = RisGeometry.half_wavelength(3, 3, 5e9)
    tx = TxSpec(0.3)
    h = compute_illumination(geom, tx)
    rng = np.random.default_rng(11)

    print("3x3 surface, 30 random receiver placements")
    print(f"{'el':>6} {'az':>6} | {'exhaustive':>10} {'IM':>8} {'G-IM':>8}  (dB)")
    im_hits = 0
    for _ in range(30):
        el = rng.uniform(-60, 60)
        az = rng.uniform(0, 180)
        ch = compute_channels(geom, h, RxSpec(5.0, el, az))

        best_cfg, _ = exhaustive_optimize(ch)
        im_cfg, _ = im_optimize(ch)
        h_states, _ = gim_optimize(ch, orientation="horizontal")
        v_states, _ = gim_optimize(ch, orientation="vertical")
        gim_cfg = combine_stripes(h_states, v_states)

        p_best = power_db(objective(ch, best_cfg))
        p_im = power_db(objective(ch, im_cfg))
        p_gim = power_db(objective(ch, gim_cfg))
        if abs(p_best - p_im) < 1e-9:
            im_hits += 1
        print(f"{el:6.1f} {az:6.1f} | {p_best:10.3f} {p_im:8.3f} {p_gim:8.3f}")

    print(f"\nIM matched the exhaustive optimum in {im_hits}/30 runs")
    print("\nMeasurement budget (binary phases):")
    for m, n in ((3, 3), (16, 16), (40, 40)):
        im_steps = step_count("IM", m, n, 2)
        gim_steps = step_count("GIM", m, n, 2)
        print(f"  {m:>2}x{n:<2}  IM {im_steps:>5} steps   stripes {gim_steps:>4} steps "
              f"({im_steps / gim_steps:.1f}x fewer)")


if __name__ == "__main__":
    main()
