"""Grid arithmetic, split bookkeeping, encoding, and on-disk determinism."""

import numpy as np
import pytest

from risopt.cnn import pm1_to_states
from risopt.data import (
    AngularGrid,
    DatasetManifest,
    Sample,
    encode_sample,
    generate_dataset,
    generate_sample,
    load_arrays,
    load_manifest,
    load_sample_rows,
    load_splits,
    split_dataset,
)
from risopt.optimizers import StripeConfig, combine_stripes, im_optimize
from risopt.physics import (
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    objective,
)


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
    with pytest.raises(ValueError):
        split_dataset(0)


# ---------------------------------------------------------------- encoding

def _hand_sample(h_states, v_states, ref_states):
    table = (0.0, 180.0)
    return Sample(
        h_cfg=StripeConfig("horizontal", np.array(h_states)),
        v_cfg=StripeConfig("vertical", np.array(v_states)),
        ref_cfg=PhaseConfig(np.array(ref_states), table),
        elevation_deg=0.0,
        azimuth_deg=90.0,
        objective_im=1.0,
        objective_gim=0.5,
    )


def test_encode_all_zero_sample():
    s = _hand_sample([0, 0, 0], [0, 0, 0], np.zeros((3, 3), dtype=int))
    x, y = encode_sample(s)
    np.testing.assert_array_equal(x, np.ones((3, 3, 2)))
    np.testing.assert_array_equal(y, np.ones((3, 3)))


def test_encode_hand_built_cell_by_cell():
    s = _hand_sample([0, 1, 0], [1, 0, 1], [[0, 1, 0], [1, 0, 1], [0, 0, 1]])
    x, y = encode_sample(s)
    for n in range(3):
        for m in range(3):
            assert x[n, m, 0] == (1.0 if s.h_cfg.states[n] == 0 else -1.0)
            assert x[n, m, 1] == (1.0 if s.v_cfg.states[m] == 0 else -1.0)
            assert y[n, m] == (1.0 if s.ref_cfg.states[n, m] == 0 else -1.0)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(6)
    s = _hand_sample(rng.integers(0, 2, 4), rng.integers(0, 2, 4),
                     rng.integers(0, 2, (4, 4)))
    x, y = encode_sample(s)
    np.testing.assert_array_equal(pm1_to_states(x[:, :, 0]),
                                  s.h_cfg.expand((4, 4)).states)
    np.testing.assert_array_equal(pm1_to_states(x[:, :, 1]),
                                  s.v_cfg.expand((4, 4)).states)
    np.testing.assert_array_equal(pm1_to_states(y), s.ref_cfg.states)


def test_sample_dimension_validation():
    with pytest.raises(ValueError):
        _hand_sample([0, 0], [0, 0, 0], np.zeros((3, 3), dtype=int))


# ---------------------------------------------------------------- generation

def test_generate_single_point_matches_direct_run(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(120.0, 120.0, 25.0, 25.0, 1.0)
    manifest = generate_dataset(geom, tx, 10.0, grid, tmp_path)
    assert manifest.counts["total"] == 1

    illum = compute_illumination(geom, tx)
    ch = compute_channels(geom, illum, RxSpec(10.0, 25.0, 120.0))
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
    assert manifest.counts["total"] == 9
    assert sum(manifest.counts[k] for k in ("train", "val", "test")) == 9

    inputs, targets = load_arrays(tmp_path)
    assert inputs.shape == (9, 4, 4, 2)
    assert targets.shape == (9, 4, 4)
    assert set(np.unique(inputs)) <= {-1.0, 1.0}
    assert set(np.unique(targets)) <= {-1.0, 1.0}


def test_generated_rows_follow_grid_order(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(0.0, 20.0, 0.0, 10.0, 10.0)
    generate_dataset(geom, tx, 10.0, grid, tmp_path)
    rows = load_sample_rows(tmp_path)
    got = [(r["azimuth_deg"], r["elevation_deg"]) for r in rows]
    assert got == list(grid.points())


def test_stored_objectives_match_recomputation(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(60.0, 120.0, -20.0, 20.0, 20.0)
    generate_dataset(geom, tx, 10.0, grid, tmp_path)
    rows = load_sample_rows(tmp_path)
    inputs, targets = load_arrays(tmp_path)
    illum = compute_illumination(geom, tx)
    for i, row in enumerate(rows):
        ch = compute_channels(geom, illum,
                              RxSpec(10.0, row["elevation_deg"], row["azimuth_deg"]))
        ref = PhaseConfig(pm1_to_states(targets[i]))
        h_cfg = StripeConfig("horizontal", pm1_to_states(inputs[i, :, 0, 0]))
        v_cfg = StripeConfig("vertical", pm1_to_states(inputs[i, 0, :, 1]))
        combined = combine_stripes(h_cfg, v_cfg)
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
    assert back.split_seed == 9


def test_manifest_version_check():
    with pytest.raises(ValueError):
        DatasetManifest.from_dict({"format_version": 99})


def test_splits_file_matches_split_function(tmp_path):
    geom, tx = small_setup()
    grid = AngularGrid(0.0, 40.0, 0.0, 20.0, 20.0)  # 3 x 2 = 6 samples
    manifest = generate_dataset(geom, tx, 10.0, grid, tmp_path, split_seed=4)
    assert load_splits(tmp_path) == split_dataset(6, manifest.split_ratios, 4)


def test_generate_sample_orientations():
    geom, tx = small_setup(3, 5)
    illum = compute_illumination(geom, tx)
    s = generate_sample(geom, illum, RxSpec(10.0, 10.0, 60.0))
    assert s.h_cfg.orientation == "horizontal"
    assert s.v_cfg.orientation == "vertical"
    assert len(s.h_cfg.states) == 5  # one state per row
    assert len(s.v_cfg.states) == 3  # one state per column
    assert s.ref_cfg.shape == (5, 3)


def test_generate_rejects_bad_rx_distance(tmp_path):
    geom, tx = small_setup()
    with pytest.raises(ValueError):
        generate_dataset(geom, tx, 0.0, AngularGrid(), tmp_path)
