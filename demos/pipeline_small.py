#!/usr/bin/env python3
"""Miniature end-to-end run of the full pipeline.

Generates a coarse dataset on a 12x12 surface, trains the prediction
network for a handful of epochs, and prints the received-power gaps of
the stripe combination and the network prediction against the
element-wise reference. Everything is seeded; rerunning reproduces the
numbers bit for bit. Takes about ten seconds on one core.

Eight epochs on 149 training samples is a wiring check, not a converged
model, so expect the network to trail the stripe baseline here. The
desk-scale acceptance test and demos/full_scale.py show trained runs
where the prediction closes that gap.

Run:  python3 demos/pipeline_small.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from risopt import RisGeometry, TxSpec
from risopt.cnn import TrainConfig, make_model, train
from risopt.data import AngularGrid, generate_dataset, load_arrays, load_splits
from risopt.evaluate import evaluate_split


def main():
    t0 = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix="ris_demo_"))
    geom = RisGeometry.half_wavelength(12, 12, 5e9)
    grid = AngularGrid(step_deg=10.0)  # 19 x 13 = 247 angles

    print(f"writing dataset to {workdir}")
    manifest = generate_dataset(geom, TxSpec(1.0), 10.0, grid, workdir, split_seed=0)
    print(f"  {manifest.counts['total']} samples "
          f"({manifest.counts['train']}/{manifest.counts['val']}/"
          f"{manifest.counts['test']} train/val/test) "
          f"in {time.perf_counter() - t0:.0f} s")

    inputs, targets = load_arrays(workdir)
    splits = load_splits(workdir)
    model = make_model(0, dtype=np.float32)
    cfg = TrainConfig(batch_size=4, max_epochs=8, rng_seed=0, lr=3e-3)
    print(f"training {sum(p.size for p in model.parameters())} parameters, "
          f"{cfg.max_epochs} epochs, batch {cfg.batch_size}")
    trained, history = train(model,
                             (inputs[splits["train"]], targets[splits["train"]]),
                             (inputs[splits["val"]], targets[splits["val"]]),
                             cfg)
    for epoch, train_loss, val_loss in history:
        print(f"  epoch {epoch:2d}  train {train_loss:.4f}  val {val_loss:.4f}")

    report = evaluate_split(workdir, trained, "test")
    print("\ntest-split gaps vs the element-wise reference (dB):")
    for method in ("gim", "cnn"):
        s = report.summary[method]
        print(f"  {method:>3}: median {s['median_gap_db']:.2f}  "
              f"mean {s['mean_gap_db']:.2f}  max {s['max_gap_db']:.2f}")
    print(f"\ntotal {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
