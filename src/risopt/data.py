"""Angular-sweep dataset generation, splitting, and on-disk layout.

For every receiver direction on an inclusive angular grid the generator
runs the stripe search in both orientations (the cheap measurement) and
the element-wise search (the expensive reference), then stores the
stripe pair as a 2-channel +1/-1 input image and the reference config as
the target map.  A dataset directory holds:

    inputs.rist   one (H, W, 2) float32 record per sample
    targets.rist  one (H, W) float32 record per sample
    samples.json  per-sample angles and float64 objectives
    splits.json   train/val/test index lists
    manifest.json geometry, transmitter, grid, split and count metadata

Samples are ordered azimuth-major: the azimuth sweep is the slow axis,
elevation the fast one.  Everything is deterministic for fixed inputs,
so regeneration is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from risopt.cnn import states_to_pm1
from risopt.optimizers import StripeConfig, combine_stripes, gim_optimize, im_optimize
from risopt.physics import (
    DEFAULT_PHASE_TABLE,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    objective,
)
from risopt.tensorfile import save_tensors

MANIFEST_VERSION = 1

DEFAULT_SPLIT = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class AngularGrid:
    """Inclusive rectangular sweep of receiver angles."""

    azimuth_start: float = 0.0
    azimuth_stop: float = 180.0
    elevation_start: float = -60.0
    elevation_stop: float = 60.0
    step_deg: float = 1.0

    def __post_init__(self):
        if self.step_deg <= 0:
            raise ValueError("grid step must be > 0")
        if self.azimuth_stop < self.azimuth_start:
            raise ValueError("azimuth range is empty")
        if self.elevation_stop < self.elevation_start:
            raise ValueError("elevation range is empty")
        # checked on the grid points themselves, as RxSpec will see them
        el, az = self.elevation_values(), self.azimuth_values()
        if not (-90.0 <= el[0] and el[-1] <= 90.0):
            raise ValueError(f"grid elevation {el[0]}..{el[-1]} must lie in [-90, 90] degrees")
        if not (0.0 <= az[0] and az[-1] < 360.0):
            raise ValueError(f"grid azimuth {az[0]}..{az[-1]} must lie in [0, 360) degrees")

    def azimuth_values(self) -> np.ndarray:
        n = int(math.floor((self.azimuth_stop - self.azimuth_start) / self.step_deg + 1e-9)) + 1
        return self.azimuth_start + self.step_deg * np.arange(n)

    def elevation_values(self) -> np.ndarray:
        n = int(math.floor((self.elevation_stop - self.elevation_start) / self.step_deg + 1e-9)) + 1
        return self.elevation_start + self.step_deg * np.arange(n)

    @property
    def num_points(self) -> int:
        return len(self.azimuth_values()) * len(self.elevation_values())

    def points(self):
        """(azimuth, elevation) pairs, azimuth-major raster order."""
        for az in self.azimuth_values():
            for el in self.elevation_values():
                yield float(az), float(el)


@dataclass(frozen=True)
class Sample:
    """One receiver direction with its stripe and reference solutions."""

    h_cfg: StripeConfig
    v_cfg: StripeConfig
    ref_cfg: PhaseConfig
    elevation_deg: float
    azimuth_deg: float
    objective_im: float
    objective_gim: float

    def __post_init__(self):
        n_rows, m_cols = self.ref_cfg.shape
        if len(self.h_cfg.states) != n_rows or len(self.v_cfg.states) != m_cols:
            raise ValueError("stripe lengths do not match the reference config")


@dataclass(frozen=True)
class DatasetManifest:
    geometry: RisGeometry
    tx: TxSpec
    rx_distance_m: float
    grid: AngularGrid
    split_ratios: tuple
    split_seed: int
    counts: dict
    phase_table: tuple = DEFAULT_PHASE_TABLE
    flat_tx_phase: bool = False
    format_version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        g = self.geometry
        return {
            "format_version": self.format_version,
            "geometry": {"m_cols": g.m_cols, "n_rows": g.n_rows, "dx": g.dx,
                         "dy": g.dy, "carrier_freq": g.carrier_freq},
            "tx": {"distance": self.tx.distance,
                   "elevation_deg": self.tx.elevation_deg,
                   "azimuth_deg": self.tx.azimuth_deg,
                   "tx_power_amp": self.tx.tx_power_amp},
            "rx_distance_m": self.rx_distance_m,
            "grid": {"azimuth_start": self.grid.azimuth_start,
                     "azimuth_stop": self.grid.azimuth_stop,
                     "elevation_start": self.grid.elevation_start,
                     "elevation_stop": self.grid.elevation_stop,
                     "step_deg": self.grid.step_deg},
            "split": {"ratios": list(self.split_ratios), "seed": self.split_seed},
            "counts": dict(self.counts),
            "phase_table": list(self.phase_table),
            "flat_tx_phase": self.flat_tx_phase,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        if d.get("format_version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {d.get('format_version')!r}")
        return cls(
            geometry=RisGeometry(**d["geometry"]),
            tx=TxSpec(**d["tx"]),
            rx_distance_m=float(d["rx_distance_m"]),
            grid=AngularGrid(**d["grid"]),
            split_ratios=tuple(d["split"]["ratios"]),
            split_seed=int(d["split"]["seed"]),
            counts=dict(d["counts"]),
            phase_table=tuple(d["phase_table"]),
            flat_tx_phase=bool(d["flat_tx_phase"]),
        )


def _write_json(path: Path, payload) -> None:
    # sorted keys + fixed separators keep regenerated files byte-identical
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def split_dataset(manifest_or_count, ratios=DEFAULT_SPLIT, seed: int = 0) -> dict:
    """Seeded uniform shuffle split into train/val/test index lists.

    Sizes are the floors of ratio * count; any remainder goes to train.
    The three lists are disjoint and cover every index.
    """
    if isinstance(manifest_or_count, DatasetManifest):
        count = int(manifest_or_count.counts["total"])
    else:
        count = int(manifest_or_count)
    if count < 1:
        raise ValueError("nothing to split")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("need three non-negative ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    n_val = int(math.floor(ratios[1] * count))
    n_test = int(math.floor(ratios[2] * count))
    n_train = count - n_val - n_test  # floor(train) plus all remainders

    perm = np.random.default_rng(seed).permutation(count)
    return {
        "train": [int(i) for i in perm[:n_train]],
        "val": [int(i) for i in perm[n_train:n_train + n_val]],
        "test": [int(i) for i in perm[n_train + n_val:]],
    }


def encode_sample(sample: Sample):
    """Sample to network tensors: (H, W, 2) stripe input, (H, W) target.

    State 0 maps to +1 and state 1 to -1 in every channel.
    """
    shape = sample.ref_cfg.shape
    x = np.stack([
        states_to_pm1(sample.h_cfg.expand(shape).states),
        states_to_pm1(sample.v_cfg.expand(shape).states),
    ], axis=-1)
    y = states_to_pm1(sample.ref_cfg.states)
    return x, y


def generate_sample(geom, illum, rx: RxSpec, phase_table=DEFAULT_PHASE_TABLE,
                    *, flat_tx_phase: bool = False) -> Sample:
    """Run both stripe searches and the element-wise reference at one angle."""
    ch = compute_channels(geom, illum, rx, flat_tx_phase=flat_tx_phase)
    h_cfg, _ = gim_optimize(ch, phase_table, "horizontal")
    v_cfg, _ = gim_optimize(ch, phase_table, "vertical")
    ref_cfg, _ = im_optimize(ch, phase_table)
    combined = combine_stripes(h_cfg, v_cfg, phase_table)
    return Sample(
        h_cfg=h_cfg,
        v_cfg=v_cfg,
        ref_cfg=ref_cfg,
        elevation_deg=rx.elevation_deg,
        azimuth_deg=rx.azimuth_deg,
        objective_im=objective(ch, ref_cfg),
        objective_gim=objective(ch, combined),
    )


def generate_dataset(
    geom: RisGeometry,
    tx: TxSpec,
    rx_distance: float,
    grid: AngularGrid,
    out_dir,
    *,
    phase_table=DEFAULT_PHASE_TABLE,
    split_ratios=DEFAULT_SPLIT,
    split_seed: int = 0,
    flat_tx_phase: bool = False,
    progress=None,
) -> DatasetManifest:
    """Sweep the grid, optimize every receiver position, write the dataset.

    ``progress`` may be a callable taking (done, total) for long runs.
    Returns the manifest that was written to ``out_dir/manifest.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rx_distance <= 0:
        raise ValueError("rx distance must be > 0")

    illum = compute_illumination(geom, tx)
    total = grid.num_points
    inputs, targets, rows = [], [], []
    for i, (az, el) in enumerate(grid.points()):
        sample = generate_sample(geom, illum, RxSpec(rx_distance, el, az),
                                 phase_table, flat_tx_phase=flat_tx_phase)
        x, y = encode_sample(sample)
        inputs.append(x)
        targets.append(y)
        rows.append({
            "azimuth_deg": sample.azimuth_deg,
            "elevation_deg": sample.elevation_deg,
            "objective_im": sample.objective_im,
            "objective_gim": sample.objective_gim,
        })
        if progress is not None:
            progress(i + 1, total)

    splits = split_dataset(total, split_ratios, split_seed)
    manifest = DatasetManifest(
        geometry=geom,
        tx=tx,
        rx_distance_m=float(rx_distance),
        grid=grid,
        split_ratios=tuple(split_ratios),
        split_seed=split_seed,
        counts={"total": total, "train": len(splits["train"]),
                "val": len(splits["val"]), "test": len(splits["test"])},
        phase_table=tuple(float(v) for v in phase_table),
        flat_tx_phase=flat_tx_phase,
    )

    save_tensors(out_dir / "inputs.rist", inputs)
    save_tensors(out_dir / "targets.rist", targets)
    _write_json(out_dir / "samples.json", rows)
    _write_json(out_dir / "splits.json", splits)
    _write_json(out_dir / "manifest.json", manifest.to_dict())
    return manifest


# ------------------------------------------------------------------ loading

def load_manifest(data_dir) -> DatasetManifest:
    path = Path(data_dir) / "manifest.json"
    return DatasetManifest.from_dict(json.loads(path.read_text(encoding="utf-8")))


def load_splits(data_dir) -> dict:
    return json.loads((Path(data_dir) / "splits.json").read_text(encoding="utf-8"))


def load_sample_rows(data_dir) -> list:
    return json.loads((Path(data_dir) / "samples.json").read_text(encoding="utf-8"))


def load_arrays(data_dir):
    """Stacked float64 (N, H, W, 2) inputs and (N, H, W) targets."""
    from risopt.tensorfile import load_tensors

    data_dir = Path(data_dir)
    inputs = np.stack([t.astype(float) for t in load_tensors(data_dir / "inputs.rist")])
    targets = np.stack([t.astype(float) for t in load_tensors(data_dir / "targets.rist")])
    if len(inputs) != len(targets):
        raise ValueError("inputs and targets record counts differ")
    return inputs, targets
