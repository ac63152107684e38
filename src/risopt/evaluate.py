"""Received-power comparison of the three optimization pipelines.

For every sample of a chosen split the reference element-wise config,
the combined stripe config, and the network-predicted config are scored
by noiseless received power, 20*log10 of the cascade-gain magnitude.
The gaps (reference minus cheaper method, in dB) quantify how much power
the cheap pipelines give up; summaries report max, mean, median, and the
mean restricted to |elevation| <= 45 degrees, the band where stripe
methods are expected to track the reference closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from risopt.cnn import Model, _check_shape, pm1_to_states, predict_config, stripe_states
from risopt.data import SPLIT_NAMES, load_arrays, load_manifest, load_splits
from risopt.optimizers import combine_stripes
from risopt.physics import (
    PhaseConfig,
    RxSpec,
    compute_channels,
    compute_illumination,
    objective,
    power_db,
    received_power_db,
    simulate_received_signal,
)

CSV_COLUMNS = ("azimuth_deg", "elevation_deg", "p_im_db", "p_gim_db",
               "p_cnn_db", "gap_gim_db", "gap_cnn_db")

BAND_ELEVATION_DEG = 45.0


@dataclass(frozen=True)
class EvalReport:
    """Per-sample power rows plus per-method gap summaries."""

    rows: list
    summary: dict

    def to_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(float(row[c])) for c in CSV_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summarize(rows: list) -> dict:
    elev = np.array([r["elevation_deg"] for r in rows])
    band = np.abs(elev) <= BAND_ELEVATION_DEG
    summary = {}
    for method in ("gim", "cnn"):
        gaps = np.array([r[f"gap_{method}_db"] for r in rows])
        # the keys in the order cmd_eval prints them
        summary[method] = {
            "max_gap_db": float(gaps.max()),
            "mean_gap_db": float(gaps.mean()),
            "median_gap_db": float(np.median(gaps)),
            "band45_mean_gap_db": float(gaps[band].mean()) if band.any() else None,
        }
    summary["num_samples"] = len(rows)
    return summary


def evaluate_split(data_dir, model: Model, split: str = "test",
                   *, noise_snr_db: float | None = None,
                   noise_seed: int = 0) -> EvalReport:
    """Score one split of a dataset directory with a trained model.

    The model scores each stored input image as it is; the stripe pair
    for the combined config is decoded from that image and the reference
    config from the stored target.  Channels are recomputed from the
    manifest's geometry at its grid's angles, sample i at point i.  With
    ``noise_snr_db`` set, powers come from a seeded noisy link simulation
    (1000 unit symbols at that SNR relative to the reference config)
    instead of the noiseless formula.  The split name, then the model's
    fit to the surface, then the split's size are checked before any
    record is read.
    """
    if split not in SPLIT_NAMES:
        raise ValueError(f"unknown split {split!r}; expected one of {', '.join(SPLIT_NAMES)}")
    manifest = load_manifest(data_dir)
    geom = manifest.geometry
    _check_shape(model, (geom.n_rows, geom.m_cols, 2))
    splits = load_splits(data_dir)
    if not splits[split]:
        raise ValueError(f"split {split!r} of {data_dir} has no samples to score")
    points = list(manifest.grid.points())  # sample i is the grid's point i
    inputs, targets = load_arrays(data_dir)

    h = compute_illumination(geom, manifest.tx, flat_tx_phase=manifest.flat_tx_phase)

    rows = []
    for idx in splits[split]:
        az, el = points[idx]
        ch = compute_channels(geom, h, RxSpec(manifest.rx_distance_m, el, az))
        # the reference, stripe and predicted configs, in CSV_COLUMNS' order
        configs = (PhaseConfig(pm1_to_states(targets[idx])),
                   combine_stripes(*stripe_states(inputs[idx])),
                   predict_config(model, inputs[idx]))
        if noise_snr_db is None:
            p_im, p_gim, p_cnn = (power_db(objective(ch, cfg)) for cfg in configs)
        else:
            sigma = objective(ch, configs[0]) * 10.0 ** (-noise_snr_db / 20.0)
            x = np.ones(1000)
            p_im, p_gim, p_cnn = (
                received_power_db(simulate_received_signal(
                    ch, cfg, x, sigma, noise_seed + 3 * int(idx) + k))
                for k, cfg in enumerate(configs)
            )
        rows.append(dict(zip(CSV_COLUMNS, (az, el, p_im, p_gim, p_cnn,
                                           p_im - p_gim, p_im - p_cnn))))
    return EvalReport(rows, _summarize(rows))
