"""Angular-sweep dataset generation, splitting, and on-disk layout.

For every receiver direction on an inclusive angular grid the generator
runs the stripe search in both orientations (the cheap measurement) and
the element-wise search (the expensive reference), then stores the
stripe pair as a 2-channel +1/-1 input image and the reference config as
the target map.  The searches run over chunks of angles at once
(``optimizers.batch_optimize``), with the same results as one angle at
a time.  A dataset directory holds:

    inputs.rist   one (H, W, 2) float32 record per sample
    targets.rist  one (H, W) float32 record per sample
    samples.json  per-sample angles and float64 objectives, for readers
    splits.json   train/val/test index lists
    manifest.json geometry, transmitter, grid, split and count metadata

Samples are ordered azimuth-major (the azimuth sweep is the slow axis),
so sample i lies at the grid's point i.  Everything is deterministic for
fixed inputs, so regeneration is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from risopt.cnn import states_to_pm1, stripe_image
from risopt.optimizers import batch_optimize, combine_stripes, gim_optimize, im_optimize
from risopt.physics import (
    PHASE_TABLE,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    _check_angles,
    compute_channels,
    compute_illumination,
    objective,
)
from risopt.tensorfile import save_tensors

MANIFEST_VERSION = 1

DEFAULT_SPLIT = (0.6, 0.2, 0.2)
SPLIT_NAMES = ("train", "val", "test")

# Angles per batched search.  A chunk of fewer than MIN_BATCH angles runs
# the scalar per-angle searches instead: at 40x40 those win up to about
# 13 angles and the batch from about 14.
BATCH_ANGLES = 128
MIN_BATCH = 14

MAX_GRID_POINTS = 10**7  # about 460x the 1-degree default sweep; pattern arrays and CSV near 2 GB
# the largest per-element array is a batched chunk's complex flips, 16 B x
# BATCH_ANGLES = 2 KiB per element: 2**18 elements (512x512) take 0.5 GiB
MAX_ELEMENTS = 2**18
# a dataset's float32 records take 12 B per element and sample (2 input
# values, 1 target), all held at once: the paper's 1-degree sweep at 40x40
# is 21,901 x 1,600 x 12 B = 420 MB, and 2**32 B (4.3 GB) is about 10x that
MAX_DATASET_BYTES = 2**32


def _count(start: float, stop: float, step: float) -> int:
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def _inclusive_range(start: float, stop: float, step: float) -> np.ndarray:
    return start + step * np.arange(_count(start, stop, step))


@dataclass(frozen=True)
class AngularGrid:
    """Inclusive rectangular sweep of receiver angles."""

    azimuth_start: float = 0.0
    azimuth_stop: float = 180.0
    elevation_start: float = -60.0
    elevation_stop: float = 60.0
    step_deg: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.step_deg) and self.step_deg > 0):
            raise ValueError(f"grid step must be finite and > 0, got {self.step_deg}")
        ends = (self.azimuth_start, self.azimuth_stop, self.elevation_start, self.elevation_stop)
        if not all(math.isfinite(v) for v in ends):
            raise ValueError(f"grid ranges must be finite, got azimuth {ends[0]}..{ends[1]}, "
                             f"elevation {ends[2]}..{ends[3]}")
        if self.azimuth_stop < self.azimuth_start:
            raise ValueError("azimuth range is empty")
        if self.elevation_stop < self.elevation_start:
            raise ValueError("elevation range is empty")
        # counted in floats before any array is built: a tiny step overflows to inf
        points = ((self.azimuth_stop - self.azimuth_start) / self.step_deg + 1) * (
            (self.elevation_stop - self.elevation_start) / self.step_deg + 1)
        if points > MAX_GRID_POINTS:
            raise ValueError(f"grid step {self.step_deg} gives more than the "
                             f"{MAX_GRID_POINTS} points a grid may hold")
        # checked on the grid points themselves, as RxSpec will see them
        el, az = self.elevation_values(), self.azimuth_values()
        _check_angles("grid", el[0], az[0])
        _check_angles("grid", el[-1], az[-1])

    def azimuth_values(self) -> np.ndarray:
        return _inclusive_range(self.azimuth_start, self.azimuth_stop, self.step_deg)

    def elevation_values(self) -> np.ndarray:
        return _inclusive_range(self.elevation_start, self.elevation_stop, self.step_deg)

    @property
    def num_points(self) -> int:
        return (_count(self.azimuth_start, self.azimuth_stop, self.step_deg)
                * _count(self.elevation_start, self.elevation_stop, self.step_deg))

    def points(self):
        """(azimuth, elevation) pairs, azimuth-major raster order."""
        for az in self.azimuth_values():
            for el in self.elevation_values():
                yield float(az), float(el)


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset metadata.  Every dataset uses the 0/180 table, the only one
    the package has; the file still names it."""

    geometry: RisGeometry
    tx: TxSpec
    rx_distance_m: float
    grid: AngularGrid
    split_ratios: tuple
    split_seed: int
    counts: dict
    flat_tx_phase: bool = False

    def __post_init__(self):
        if self.counts["total"] != self.grid.num_points:  # sample i is the grid's point i
            raise ValueError(f"manifest counts {self.counts['total']} samples, but its grid "
                             f"has {self.grid.num_points} points")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["split"] = {"ratios": d.pop("split_ratios"), "seed": d.pop("split_seed")}
        d["phase_table"] = list(PHASE_TABLE)
        d["format_version"] = MANIFEST_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        version = d.get("format_version") if isinstance(d, dict) else None
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        table = d.get("phase_table")
        if not isinstance(table, list) or tuple(table) != PHASE_TABLE:
            raise ValueError(f"unsupported phase table {table!r}; "
                             f"datasets use {list(PHASE_TABLE)}")
        return cls(
            geometry=_entry(d, "geometry", lambda g: RisGeometry(**g)),
            # older manifests also carry an unused tx_power_amp, which is ignored
            tx=_entry(d, "tx", lambda t: TxSpec(t["distance"], t["elevation_deg"],
                                               t["azimuth_deg"])),
            rx_distance_m=_entry(d, "rx_distance_m", lambda r: RxSpec(float(r)).distance),
            grid=_entry(d, "grid", lambda g: AngularGrid(**g)),
            split_ratios=_entry(d, "split", lambda s: tuple(s["ratios"])),
            split_seed=_entry(d, "split", lambda s: int(s["seed"])),
            counts=_entry(d, "counts", lambda c: {k: int(c[k]) for k in ("total", *SPLIT_NAMES)}),
            flat_tx_phase=_entry(d, "flat_tx_phase", bool),
        )


def _entry(d: dict, key: str, build):
    """``build(d[key])``; a missing or malformed manifest entry is a
    ``ValueError`` that names its key."""
    if key not in d:
        raise ValueError(f"manifest has no {key!r} entry")
    try:
        return build(d[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest entry {key!r} is malformed: {exc!r}") from None


def _write_json(path: Path, payload) -> None:
    # sorted keys + fixed separators keep regenerated files byte-identical
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def check_split_ratios(ratios) -> None:
    """The split rule: three finite ratios, each >= 0, summing to 1."""
    if len(ratios) != 3:
        raise ValueError(f"need three ratios, got {len(ratios)}")
    if not all(math.isfinite(r) and r >= 0 for r in ratios):
        raise ValueError(f"ratios must be finite and >= 0, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")


def split_dataset(count: int, ratios=DEFAULT_SPLIT, seed: int = 0) -> dict:
    """Seeded uniform shuffle split into train/val/test index lists.

    Sizes are the floors of ratio * count; any remainder goes to train.
    The three lists are disjoint and cover every index.
    """
    count = int(count)
    if count < 1:
        raise ValueError("nothing to split")
    ratios = tuple(float(r) for r in ratios)
    check_split_ratios(ratios)

    n_val = int(math.floor(ratios[1] * count))
    n_test = int(math.floor(ratios[2] * count))
    n_train = count - n_val - n_test  # floor(train) plus all remainders

    perm = np.random.default_rng(seed).permutation(count)
    return {
        "train": [int(i) for i in perm[:n_train]],
        "val": [int(i) for i in perm[n_train:n_train + n_val]],
        "test": [int(i) for i in perm[n_train + n_val:]],
    }


def encode_sample(h_states, v_states, ref_states):
    """Stripe and reference states to network tensors: (H, W, 2) stripe
    input, (H, W) target.  State 0 maps to +1 and state 1 to -1 in every
    channel.
    """
    return stripe_image(h_states, v_states), states_to_pm1(ref_states)


def generate_sample(geom, h, rx: RxSpec):
    """Run both stripe searches and the element-wise reference at one angle,
    on the Tx side ``h`` of ``compute_illumination``: ``(channels, row
    states, column states, reference states)``."""
    ch = compute_channels(geom, h, rx)
    h_states, _ = gim_optimize(ch, orientation="horizontal")
    v_states, _ = gim_optimize(ch, orientation="vertical")
    ref_cfg, _ = im_optimize(ch)
    return ch, h_states, v_states, ref_cfg.states


def _generate_chunk(geom, h, rxs) -> list:
    """:func:`generate_sample` at every receiver of ``rxs``, with the
    searches batched over the angles when there are enough of them."""
    if len(rxs) < MIN_BATCH:
        return [generate_sample(geom, h, rx) for rx in rxs]
    chs = [compute_channels(geom, h, rx) for rx in rxs]
    return list(zip(chs, *batch_optimize(chs)))


def generate_dataset(
    geom: RisGeometry,
    tx: TxSpec,
    rx_distance: float,
    grid: AngularGrid,
    out_dir,
    *,
    split_ratios=DEFAULT_SPLIT,
    split_seed: int = 0,
    flat_tx_phase: bool = False,
    progress=None,
) -> DatasetManifest:
    """Sweep the grid, optimize every receiver position, write the dataset.

    ``progress`` may be a callable taking (done, total) for long runs.
    Returns the manifest that was written to ``out_dir/manifest.json``.
    """
    total = grid.num_points
    splits = split_dataset(total, split_ratios, split_seed)

    h = compute_illumination(geom, tx, flat_tx_phase=flat_tx_phase)
    # float32, as save_tensors writes them
    inputs = np.empty((total, geom.n_rows, geom.m_cols, 2), dtype=np.float32)
    targets = np.empty((total, geom.n_rows, geom.m_cols), dtype=np.float32)
    rows = []
    points = grid.points()
    while chunk := [RxSpec(rx_distance, el, az) for az, el in islice(points, BATCH_ANGLES)]:
        for rx, (ch, h_states, v_states, ref) in zip(chunk, _generate_chunk(geom, h, chunk)):
            i = len(rows)
            inputs[i], targets[i] = encode_sample(h_states, v_states, ref)
            rows.append({
                "azimuth_deg": rx.azimuth_deg,
                "elevation_deg": rx.elevation_deg,
                "objective_im": objective(ch, PhaseConfig(ref)),
                "objective_gim": objective(ch, combine_stripes(h_states, v_states)),
            })
            if progress is not None:
                progress(i + 1, total)

    manifest = DatasetManifest(
        geometry=geom,
        tx=tx,
        rx_distance_m=float(rx_distance),
        grid=grid,
        split_ratios=tuple(split_ratios),
        split_seed=split_seed,
        counts={"total": total, "train": len(splits["train"]),
                "val": len(splits["val"]), "test": len(splits["test"])},
        flat_tx_phase=flat_tx_phase,
    )

    # created only now, so a rejected input or a failed sweep leaves no directory;
    # an old manifest goes first and the new one is written last, so an
    # interrupted regeneration never leaves a manifest over stale tensors
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
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
    """The train/val/test index lists, each index checked to be an integer
    below the manifest's sample count, and the lists checked to hold every
    sample once, in the sizes the manifest counts."""
    counts = load_manifest(data_dir).counts
    total = counts["total"]
    path = Path(data_dir) / "splits.json"
    splits = json.loads(path.read_text(encoding="utf-8"))
    for name in SPLIT_NAMES:
        idx = splits.get(name) if isinstance(splits, dict) else None
        if not (isinstance(idx, list) and all(type(i) is int and 0 <= i < total for i in idx)):
            raise ValueError(f"{path}: split {name!r} must list sample indices in [0, {total})")
    if (any(len(splits[name]) != counts[name] for name in SPLIT_NAMES)
            or sorted(i for name in SPLIT_NAMES for i in splits[name]) != list(range(total))):
        raise ValueError(f"{path}: the splits must hold each of the {total} samples once, "
                         f"in the manifest's counts {counts}")
    return splits


def load_arrays(data_dir):
    """The stored float32 records, stacked: (N, H, W, 2) inputs and
    (N, H, W) targets, checked against the manifest's count and surface.
    The model casts them to its own dtype."""
    from risopt.tensorfile import load_tensors

    def stacked(name):  # its record list dies on return, before the next file is read
        records = load_tensors(data_dir / name)
        return np.stack(records) if records else np.empty(0, "<f4")

    data_dir = Path(data_dir)
    inputs, targets = stacked("inputs.rist"), stacked("targets.rist")
    manifest = load_manifest(data_dir)
    total = manifest.counts["total"]
    if not len(inputs) == len(targets) == total:
        raise ValueError(f"{data_dir} holds {len(inputs)} input and {len(targets)} target "
                         f"records, but its manifest counts {total} samples")
    side = (manifest.geometry.n_rows, manifest.geometry.m_cols)
    if inputs.shape[1:] != (*side, 2) or targets.shape[1:] != side:
        raise ValueError(f"{data_dir}: tensor files do not match the manifest geometry "
                         f"({side[0]} rows, {side[1]} columns)")
    return inputs, targets
