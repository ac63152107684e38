"""Grid arithmetic, split bookkeeping, encoding, and on-disk determinism."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from risopt import data
from risopt.cli import main
from risopt.cnn import pm1_to_states, stripe_states
from risopt.data import (
    DEFAULT_SPLIT,
    MAX_GRID_POINTS,
    AngularGrid,
    DatasetManifest,
    encode_sample,
    generate_dataset,
    generate_sample,
    load_arrays,
    load_manifest,
    load_splits,
    split_dataset,
)
from risopt.optimizers import combine_stripes, im_optimize
from risopt.physics import (
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    objective,
)
from risopt.tensorfile import load_tensors, save_tensors

from oracles import expand_stripe


def small_setup(m_cols=4, n_rows=4):
    geom = RisGeometry.half_wavelength(m_cols, n_rows, 5e9)
    tx = TxSpec(1.0)
    return geom, tx


# ---------------------------------------------------------------- grid

def test_default_grid_point_count():
    grid = AngularGrid()
    assert len(grid.azimuth_values()) == 181
    assert len(grid.elevation_values()) == 121
    assert grid.num_points == 21_901


def test_five_degree_grid_count():
    grid = AngularGrid(step_deg=5.0)
    assert len(grid.azimuth_values()) == 37
    assert len(grid.elevation_values()) == 25
    assert grid.num_points == 925


def test_grid_endpoints_inclusive():
    grid = AngularGrid(0.0, 180.0, -60.0, 60.0, 1.0)
    az = grid.azimuth_values()
    el = grid.elevation_values()
    assert az[0] == 0.0 and az[-1] == 180.0
    assert el[0] == -60.0 and el[-1] == 60.0


def test_grid_points_azimuth_major():
    grid = AngularGrid(0.0, 10.0, 0.0, 5.0, 5.0)
    pts = list(grid.points())
    assert pts == [(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (5.0, 5.0),
                   (10.0, 0.0), (10.0, 5.0)]


def test_grid_validation():
    with pytest.raises(ValueError):
        AngularGrid(step_deg=0.0)
    for step in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="grid step must be finite"):
            AngularGrid(step_deg=step)
    for ends in ((float("nan"), 5.0, 0.0, 5.0), (0.0, float("inf"), 0.0, 5.0),
                 (0.0, 5.0, float("-inf"), 5.0)):
        with pytest.raises(ValueError, match="grid ranges must be finite"):
            AngularGrid(*ends, 1.0)
    with pytest.raises(ValueError):
        AngularGrid(azimuth_start=10.0, azimuth_stop=5.0)
    with pytest.raises(ValueError):
        AngularGrid(elevation_start=10.0, elevation_stop=5.0)
    # out-of-range angles fail at construction, before any sample is generated
    for bad in [dict(elevation_stop=95.0), dict(elevation_start=-91.0),
                dict(azimuth_start=-5.0), dict(azimuth_stop=360.0)]:
        with pytest.raises(ValueError, match="grid (elevation|azimuth)"):
            AngularGrid(**bad)
    assert AngularGrid(0.0, 360.0, -90.0, 90.0, 7.0).azimuth_values()[-1] == 357.0


def test_grid_point_cap_is_counted_before_any_array(monkeypatch):
    # a binary step keeps the count exact: 10,000 azimuths x 1,000 elevations
    step = 0.03125
    assert AngularGrid(0.0, 9999 * step, 0.0, 999 * step, step).num_points == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=f"more than the {MAX_GRID_POINTS} points"):
        AngularGrid(0.0, 10000 * step, 0.0, 999 * step, step)

    def no_arrays(*args):
        raise AssertionError("grid values built before the point count was checked")

    monkeypatch.setattr(data, "_inclusive_range", no_arrays)
    # about 2e12 directions; at 1e-300 the float ratio overflows to inf
    for step in (1e-4, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="points a grid may hold"):
            AngularGrid(step_deg=step)


def test_single_point_grid():
    grid = AngularGrid(90.0, 90.0, 30.0, 30.0, 1.0)
    assert grid.num_points == 1
    assert list(grid.points()) == [(90.0, 30.0)]


# ---------------------------------------------------------------- split

def test_split_ten_samples():
    splits = split_dataset(10, (0.6, 0.2, 0.2), seed=0)
    assert len(splits["train"]) == 6
    assert len(splits["val"]) == 2
    assert len(splits["test"]) == 2


def test_split_full_grid_counts():
    splits = split_dataset(21_901, (0.6, 0.2, 0.2), seed=0)
    assert len(splits["train"]) == 13_141  # remainder sample goes to train
    assert len(splits["val"]) == 4_380
    assert len(splits["test"]) == 4_380


def test_split_disjoint_and_exhaustive():
    splits = split_dataset(137, (0.6, 0.2, 0.2), seed=5)
    all_idx = splits["train"] + splits["val"] + splits["test"]
    assert len(all_idx) == 137
    assert sorted(all_idx) == list(range(137))


def test_split_seed_determinism():
    a = split_dataset(50, seed=3)
    b = split_dataset(50, seed=3)
    c = split_dataset(50, seed=4)
    assert a == b
    assert a != c


def test_split_is_shuffled():
    splits = split_dataset(1000, seed=0)
    assert splits["train"] != sorted(splits["train"])


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        split_dataset(10, (0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        split_dataset(10, (0.8, -0.2, 0.4))
    # NaN passes both a "< 0" test and the sum tolerance; the words are the CLI's
    for ratios in [(float("nan"), 0.5, 0.5), (0.5, 0.5, float("inf"))]:
        with pytest.raises(ValueError, match="ratios must be finite and >= 0"):
            split_dataset(10, ratios)
    with pytest.raises(ValueError, match="need three ratios, got 2"):
        split_dataset(10, (0.5, 0.5))
    with pytest.raises(ValueError):
        split_dataset(0)


# ---------------------------------------------------------------- encoding

def test_encode_all_zero_sample():
    x, y = encode_sample(np.zeros(3, dtype=int), np.zeros(3, dtype=int),
                         np.zeros((3, 3), dtype=int))
    np.testing.assert_array_equal(x, np.ones((3, 3, 2)))
    np.testing.assert_array_equal(y, np.ones((3, 3)))


def test_encode_hand_built_cell_by_cell():
    h_states, v_states = np.array([0, 1, 0]), np.array([1, 0, 1])
    ref_states = np.array([[0, 1, 0], [1, 0, 1], [0, 0, 1]])
    x, y = encode_sample(h_states, v_states, ref_states)
    for n in range(3):
        for m in range(3):
            assert x[n, m, 0] == (1.0 if h_states[n] == 0 else -1.0)
            assert x[n, m, 1] == (1.0 if v_states[m] == 0 else -1.0)
            assert y[n, m] == (1.0 if ref_states[n, m] == 0 else -1.0)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(6)
    h_states, v_states = rng.integers(0, 2, 4), rng.integers(0, 2, 4)
    ref_states = rng.integers(0, 2, (4, 4))
    x, y = encode_sample(h_states, v_states, ref_states)
    np.testing.assert_array_equal(pm1_to_states(x[:, :, 0]),
                                  expand_stripe(h_states, "horizontal", (4, 4)).states)
    np.testing.assert_array_equal(pm1_to_states(x[:, :, 1]),
                                  expand_stripe(v_states, "vertical", (4, 4)).states)
    np.testing.assert_array_equal(pm1_to_states(y), ref_states)


# ---------------------------------------------------------------- generation

def test_generate_single_point_matches_direct_run(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(120.0, 120.0, 25.0, 25.0, 1.0)
    manifest = generate_dataset(geom, tx, 10.0, grid, tmp_path)
    assert manifest.counts == {"train": 1, "val": 0, "test": 0}

    h = compute_illumination(geom, tx)
    ch = compute_channels(geom, h, RxSpec(10.0, 25.0, 120.0))
    ref, _ = im_optimize(ch)
    _, targets = load_arrays(tmp_path)
    np.testing.assert_array_equal(pm1_to_states(targets[0]), ref.states)


def test_generate_writes_all_files(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(80.0, 100.0, -10.0, 10.0, 10.0)  # 3 x 3 points
    manifest = generate_dataset(geom, tx, 10.0, grid, tmp_path)
    for name in ["inputs.rist", "targets.rist", "samples.json",
                 "splits.json", "manifest.json"]:
        assert (tmp_path / name).exists()
    assert sum(manifest.counts[k] for k in ("train", "val", "test")) == 9

    inputs, targets = load_arrays(tmp_path)
    assert inputs.shape == (9, 4, 4, 2)
    assert targets.shape == (9, 4, 4)
    assert inputs.dtype == targets.dtype == np.float32  # the stored records, not upcast
    for arrays, name in ((inputs, "inputs.rist"), (targets, "targets.rist")):
        for got, record in zip(arrays, load_tensors(tmp_path / name), strict=True):
            assert got.tobytes() == record.tobytes()
    assert set(np.unique(inputs)) <= {-1.0, 1.0}
    assert set(np.unique(targets)) <= {-1.0, 1.0}


def test_generated_rows_follow_grid_order(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(0.0, 20.0, 0.0, 10.0, 10.0)
    generate_dataset(geom, tx, 10.0, grid, tmp_path)
    rows = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    got = [(r["azimuth_deg"], r["elevation_deg"]) for r in rows]
    assert got == list(grid.points())


def test_stored_objectives_match_recomputation(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(60.0, 120.0, -20.0, 20.0, 20.0)
    generate_dataset(geom, tx, 10.0, grid, tmp_path)
    rows = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    inputs, targets = load_arrays(tmp_path)
    h = compute_illumination(geom, tx)
    for i, row in enumerate(rows):
        ch = compute_channels(geom, h,
                              RxSpec(10.0, row["elevation_deg"], row["azimuth_deg"]))
        ref = PhaseConfig(pm1_to_states(targets[i]))
        combined = combine_stripes(pm1_to_states(inputs[i, :, 0, 0]),
                                   pm1_to_states(inputs[i, 0, :, 1]))
        assert objective(ch, ref) == pytest.approx(row["objective_im"], rel=1e-9)
        assert objective(ch, combined) == pytest.approx(row["objective_gim"], rel=1e-9)


def test_stripe_channels_are_constant_along_stripes(tmp_path):
    geom, tx = small_setup(5, 3)
    grid = AngularGrid(45.0, 135.0, 0.0, 30.0, 45.0)
    generate_dataset(geom, tx, 10.0, grid, tmp_path)
    inputs, _ = load_arrays(tmp_path)
    # channel 0 rows constant, channel 1 columns constant
    assert np.all(inputs[:, :, :, 0] == inputs[:, :, :1, 0])
    assert np.all(inputs[:, :, :, 1] == inputs[:, :1, :, 1])


def test_generation_is_byte_deterministic(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(10.0, 40.0, -15.0, 15.0, 15.0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    generate_dataset(geom, tx, 10.0, grid, d1)
    generate_dataset(geom, tx, 10.0, grid, d2)
    for name in ["inputs.rist", "targets.rist", "samples.json",
                 "splits.json", "manifest.json"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_manifest_round_trip(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(90.0, 90.0, 0.0, 0.0, 1.0)
    manifest = generate_dataset(geom, tx, 10.0, grid, tmp_path,
                                split_seed=9, flat_tx_phase=True)
    back = load_manifest(tmp_path)
    assert back == manifest
    assert back.flat_tx_phase is True


def test_manifest_with_tx_power_amp_still_loads(tmp_path):
    # manifests written before the unused tx_power_amp field was dropped
    geom, tx = small_setup()
    manifest = generate_dataset(geom, TxSpec(1.5, 20.0, 30.0), 10.0,
                                AngularGrid(0.0, 0.0, 0.0, 0.0, 1.0), tmp_path)
    path = tmp_path / "manifest.json"
    old = json.loads(path.read_text(encoding="utf-8"))
    assert "tx_power_amp" not in old["tx"]
    old["tx"]["tx_power_amp"] = 1.0
    path.write_text(json.dumps(old), encoding="utf-8")
    assert load_manifest(tmp_path) == manifest


def test_interrupted_regeneration_leaves_no_manifest(tmp_path, monkeypatch):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 20.0, 0.0, 0.0, 20.0), tmp_path)
    load_manifest(tmp_path)

    real_save = data.save_tensors

    def save_fails_on_targets(path, tensors):
        if Path(path).name == "targets.rist":
            raise OSError("disk full")
        real_save(path, tensors)

    monkeypatch.setattr(data, "save_tensors", save_fails_on_targets)
    with pytest.raises(OSError, match="disk full"):
        generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 0.0, 20.0), tmp_path)
    # inputs.rist is new, targets.rist and samples.json are stale: no manifest
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path)


def test_manifest_version_check():
    with pytest.raises(ValueError):
        DatasetManifest.from_dict({"format_version": 99})


def test_manifest_names_the_binary_table(tmp_path):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 0.0, 0.0, 0.0, 1.0), tmp_path)
    path = tmp_path / "manifest.json"
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["phase_table"] == [0.0, 180.0]
    # the tensors hold +1/-1 stripes, so a manifest naming another table is refused
    for table in ([0.0, 90.0], [0.0, 90.0, 180.0, 270.0], 180.0):
        path.write_text(json.dumps({**written, "phase_table": table}), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported phase table"):
            load_manifest(tmp_path)
    del written["phase_table"]
    path.write_text(json.dumps(written), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported phase table None"):
        load_manifest(tmp_path)


def test_manifest_names_a_missing_or_malformed_entry(tmp_path):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 0.0, 0.0, 0.0, 1.0), tmp_path)
    path = tmp_path / "manifest.json"
    written = json.loads(path.read_text(encoding="utf-8"))
    counts = written.pop("counts")
    path.write_text(json.dumps(written), encoding="utf-8")
    with pytest.raises(ValueError, match="manifest has no 'counts' entry"):
        load_manifest(tmp_path)
    written["counts"] = counts
    written["geometry"]["element_size"] = 0.01
    path.write_text(json.dumps(written), encoding="utf-8")
    with pytest.raises(ValueError, match="manifest entry 'geometry' is malformed"):
        load_manifest(tmp_path)


def test_per_sample_files_must_match_the_manifest_count(tmp_path):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0), tmp_path)
    inputs = load_tensors(tmp_path / "inputs.rist")
    save_tensors(tmp_path / "inputs.rist", inputs[:5])
    save_tensors(tmp_path / "targets.rist", load_tensors(tmp_path / "targets.rist")[:5])
    with pytest.raises(ValueError, match="holds 5 input and 5 target records, but its "
                                         "manifest counts 6 samples"):
        load_arrays(tmp_path)


def test_splits_file_matches_split_function(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0)  # 3 x 2 = 6 samples
    generate_dataset(geom, tx, 10.0, grid, tmp_path, split_seed=4)
    assert load_splits(tmp_path) == split_dataset(6, DEFAULT_SPLIT, 4)


@pytest.mark.parametrize("edit", ["overlap", "moved", "missing"])
def test_splits_must_partition_the_samples_in_the_manifest_counts(tmp_path, edit):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0), tmp_path)
    splits = load_splits(tmp_path)  # 4 train, 1 val, 1 test
    if edit == "overlap":  # the counted sizes, with one sample twice
        splits["train"][0] = splits["test"][0]
    elif edit == "moved":  # every sample once, in other sizes
        splits["val"].append(splits["train"].pop())
    else:
        splits["train"].pop()
    (tmp_path / "splits.json").write_text(json.dumps(splits), encoding="utf-8")
    with pytest.raises(ValueError, match="the splits must hold each of the 6 samples once"):
        load_splits(tmp_path)


def test_record_shapes_must_match_the_manifest_surface(tmp_path):
    geom, tx = small_setup(5, 4)  # 4 rows, 5 columns
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0), tmp_path)
    for name in ("inputs.rist", "targets.rist"):
        records = load_tensors(tmp_path / name)
        save_tensors(tmp_path / name, [np.ascontiguousarray(r.swapaxes(0, 1)) for r in records])
    with pytest.raises(ValueError, match=re.escape("tensor files do not match the manifest "
                                                   "geometry (4 rows, 5 columns)")):
        load_arrays(tmp_path)


def test_generate_sample_orientations():
    geom, tx = small_setup(3, 5)
    h = compute_illumination(geom, tx)
    _, h_states, v_states, ref_states = generate_sample(geom, h, RxSpec(10.0, 10.0, 60.0))
    assert h_states.shape == (5,)  # one state per row
    assert v_states.shape == (3,)  # one state per column
    assert h_states.dtype == v_states.dtype == np.int64
    assert ref_states.shape == (5, 3)
    x, _ = encode_sample(h_states, v_states, ref_states)
    for got, want in zip(stripe_states(x), (h_states, v_states)):
        np.testing.assert_array_equal(got, want)


def test_generate_rejects_bad_rx_distance(tmp_path):
    geom, tx = small_setup()
    out = tmp_path / "d"
    with pytest.raises(ValueError, match="rx distance"):
        generate_dataset(geom, tx, 0.0, AngularGrid(), out)
    assert not out.exists()


def test_generate_rejects_bad_split_before_the_sweep(tmp_path):
    # the default grid would take minutes to sweep at this size
    geom, tx = small_setup()
    out = tmp_path / "d"
    with pytest.raises(ValueError, match="ratios must sum to 1"):
        generate_dataset(geom, tx, 10.0, AngularGrid(), out, split_ratios=(0.5, 0.2, 0.2))
    assert not out.exists()


def test_load_arrays_holds_no_file_twice(tmp_path):
    # each file is stacked before the next is read: the peak is the inputs
    # twice over (4/3 of the result) plus per-record objects, where reading
    # both files before stacking them peaks at twice the result
    geom, tx = small_setup(16, 16)
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 90.0, 0.0, 90.0, 10.0), tmp_path)
    tracemalloc.start()
    try:
        inputs, targets = load_arrays(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inputs) == 100
    assert peak <= 1.5 * (inputs.nbytes + targets.nbytes)


def test_load_arrays_names_an_empty_record_file(tmp_path, capsys):
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0), tmp_path)
    (tmp_path / "inputs.rist").write_bytes(b"")
    message = f"{tmp_path} holds 0 input and 6 target records, but its manifest counts 6 samples"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_arrays(tmp_path)
    assert main(["train", "--data", str(tmp_path), "--weights-out",
                 str(tmp_path / "net.rist")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["inputs.rist", "targets.rist"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, 0.5, -2.0])
def test_load_arrays_refuses_a_record_value_other_than_pm1(tmp_path, name, value):
    # a NaN in a test input once scored as a 14.955 dB gap, and one in a train
    # input failed only after train had replaced the earlier history
    geom, tx = small_setup()
    generate_dataset(geom, tx, 10.0, AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0), tmp_path)
    records = load_tensors(tmp_path / name)
    records[4].flat[5] = value
    save_tensors(tmp_path / name, records)
    message = f"{tmp_path / name}: record 4 holds a value other than +1 or -1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_arrays(tmp_path)


@pytest.mark.parametrize("count, flat", [
    pytest.param(count, flat, id=f"{count}-flat" if flat else str(count))
    for flat in (False, True)
    for count in (data.MIN_BATCH - 1, data.MIN_BATCH, data.BATCH_ANGLES + 1)])
def test_batched_sweep_writes_the_per_angle_bytes(tmp_path, count, flat):
    """Grids one angle below the batch crossover, exactly at it, and one
    chunk plus one angle write what generate_sample writes angle by angle,
    with the near-field and with the flat Tx side."""
    geom, tx = small_setup(7, 5)
    grid = AngularGrid(30.0, 30.0, -32.0, -32.0 + 0.5 * (count - 1), 0.5)
    ticks = []
    generate_dataset(geom, tx, 10.0, grid, tmp_path, flat_tx_phase=flat,
                     progress=lambda done, total: ticks.append((done, total)))
    assert ticks == [(i, count) for i in range(1, count + 1)]

    h = compute_illumination(geom, tx, flat_tx_phase=flat)
    samples = [generate_sample(geom, h, RxSpec(10.0, el, az)) for az, el in grid.points()]
    inputs, targets = zip(*(encode_sample(*s[1:]) for s in samples))
    save_tensors(tmp_path / "ref_inputs.rist", inputs)
    save_tensors(tmp_path / "ref_targets.rist", targets)
    for name in ("inputs", "targets"):
        ref = (tmp_path / f"ref_{name}.rist").read_bytes()
        assert (tmp_path / f"{name}.rist").read_bytes() == ref, name
    rows = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    assert [(r["objective_im"], r["objective_gim"]) for r in rows] == [
        (objective(ch, PhaseConfig(ref)), objective(ch, combine_stripes(h_states, v_states)))
        for ch, h_states, v_states, ref in samples]
