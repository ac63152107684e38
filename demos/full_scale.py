#!/usr/bin/env python3
"""Full 1-degree reproduction run (hours of compute; not for CI).

Sweeps the complete 181x121 receiver grid on the default 40x40 surface
(21,901 samples), trains the network, and writes the evaluation report
plus a per-angle gap CSV suitable for heatmap plotting. Dataset
generation of the 21,901 angles took 15 s and peaked at 471 MiB RSS on
a 2-core Xeon VM (numpy 2.4); training takes several hours on one core. All stages are seeded. The run is not
resumable: it reuses only a complete dataset directory (manifest.json
is written last), and an interrupted stage starts over.

Run:  python3 demos/full_scale.py [workdir]
"""

import sys
import time
from pathlib import Path

import numpy as np

from risopt import RisGeometry, TxSpec
from risopt.cnn import TrainConfig, make_model, save_model, train
from risopt.data import AngularGrid, generate_dataset, load_arrays, load_manifest, load_splits
from risopt.evaluate import evaluate_split


def main():
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("full_scale_run")
    workdir.mkdir(parents=True, exist_ok=True)
    geom = RisGeometry.half_wavelength(40, 40, 5e9)

    t0 = time.perf_counter()
    if (workdir / "manifest.json").exists():
        manifest = load_manifest(workdir)
        print(f"reusing dataset in {workdir} ({manifest.counts['total']} samples)")
    else:
        print(f"generating 21,901 samples into {workdir} (takes a while)")
        def tick(done, total):
            if done % 1000 == 0:
                rate = (time.perf_counter() - t0) / done
                print(f"  {done}/{total} ({rate * 1000:.0f} ms/sample)")

        manifest = generate_dataset(geom, TxSpec(1.0), 10.0, AngularGrid(),
                                    workdir, split_seed=0, progress=tick)
    print(f"dataset ready at {time.perf_counter() - t0:.0f} s")

    inputs, targets = load_arrays(workdir)
    splits = load_splits(workdir)
    cfg = TrainConfig(batch_size=8, max_epochs=30, patience=10, rng_seed=0, lr=3e-3)
    print(f"training: {len(splits['train'])} samples, batch {cfg.batch_size}, "
          f"lr {cfg.lr}, up to {cfg.max_epochs} epochs")
    trained, history = train(make_model(0, dtype=np.float32),
                             (inputs[splits["train"]], targets[splits["train"]]),
                             (inputs[splits["val"]], targets[splits["val"]]),
                             cfg)
    for epoch, train_loss, val_loss in history:
        print(f"  epoch {epoch:3d}  train {train_loss:.4f}  val {val_loss:.4f}")
    save_model(workdir / "weights.rist", trained)

    report = evaluate_split(workdir, trained, "test")
    report.to_csv(workdir / "report.csv")
    report.save_summary(workdir / "report_summary.json")
    print("\ntest-split gaps vs the element-wise reference (dB):")
    for method in ("gim", "cnn"):
        s = report.summary[method]
        print(f"  {method:>3}: median {s['median_gap_db']:.2f}  mean {s['mean_gap_db']:.2f}  "
              f"max {s['max_gap_db']:.2f}  band45 mean {s['band45_mean_gap_db']:.2f}")
    print(f"\nreport written to {workdir / 'report.csv'}")
    print(f"total {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
