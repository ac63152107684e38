"""Tests for the pipeline comparison report.

The perfect-predictor fixture rewrites the stored reference configs to
the horizontal-stripe expansion so a center-tap model reproduces them
exactly; that pins the CNN gap at a bitwise 0.0 without any training.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from risopt import evaluate
from risopt.cnn import ConvLayer, Model, pm1_to_states
from risopt.data import AngularGrid, generate_dataset, load_arrays, load_manifest, load_splits
from risopt.evaluate import (
    CSV_COLUMNS,
    _summarize,
    evaluate_split,
)
from risopt.optimizers import combine_stripes
from risopt.physics import (
    DB_FLOOR,
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    objective,
    power_db,
)
from risopt.tensorfile import save_tensors

from oracles import load_report_csv

GEOM = RisGeometry.half_wavelength(6, 6, 10e9)
TX = TxSpec(0.6)
RX_DIST = 4.0
GRID = AngularGrid(0.0, 40.0, -20.0, 20.0, 20.0)  # 3 x 3 = 9 angles


def center_tap_model() -> Model:
    # passes input channel 0 through unchanged (tanh keeps the sign)
    w = np.zeros((3, 3, 2, 1))
    w[1, 1, 0, 0] = 1.0
    return Model([ConvLayer(w, np.zeros(1))])


@pytest.fixture(scope="module")
def real_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_real")
    generate_dataset(GEOM, TX, RX_DIST, GRID, out, split_seed=3)
    return out


@pytest.fixture(scope="module")
def perfect_dir(tmp_path_factory, real_dir):
    out = tmp_path_factory.mktemp("eval_perfect")
    for name in ("inputs.rist", "targets.rist", "samples.json",
                 "splits.json", "manifest.json"):
        shutil.copy(Path(real_dir) / name, Path(out) / name)
    inputs, _ = load_arrays(out)
    save_tensors(Path(out) / "targets.rist",
                 [inputs[i, :, :, 0] for i in range(len(inputs))])
    return out


def test_power_db_reference_points():
    assert power_db(1.0) == 0.0
    assert abs(power_db(10.0) - 20.0) < 1e-12
    assert power_db(0.0) == DB_FLOOR
    with pytest.raises(ValueError):
        power_db(-1.0)


def test_summarize_hand_example():
    rows = [
        {"elevation_deg": 0.0, "gap_gim_db": 1.0, "gap_cnn_db": 0.0},
        {"elevation_deg": 50.0, "gap_gim_db": 5.0, "gap_cnn_db": 2.0},
        {"elevation_deg": -10.0, "gap_gim_db": 3.0, "gap_cnn_db": 4.0},
    ]
    s = _summarize(rows)
    assert s["num_samples"] == 3
    assert s["gim"] == {"max_gap_db": 5.0, "mean_gap_db": 3.0,
                        "median_gap_db": 3.0, "band45_mean_gap_db": 2.0}
    assert s["cnn"]["max_gap_db"] == 4.0
    assert s["cnn"]["mean_gap_db"] == 2.0
    assert s["cnn"]["median_gap_db"] == 2.0
    assert s["cnn"]["band45_mean_gap_db"] == 2.0


def test_summarize_empty_band_is_none():
    rows = [{"elevation_deg": 50.0, "gap_gim_db": 1.0, "gap_cnn_db": 1.0}]
    s = _summarize(rows)
    assert s["gim"]["band45_mean_gap_db"] is None
    assert s["cnn"]["band45_mean_gap_db"] is None


def test_boundary_elevation_counts_as_in_band():
    rows = [{"elevation_deg": -45.0, "gap_gim_db": 2.0, "gap_cnn_db": 2.0}]
    assert _summarize(rows)["gim"]["band45_mean_gap_db"] == 2.0


def test_report_rows_cover_split(real_dir):
    report = evaluate_split(real_dir, center_tap_model(), "train")
    splits = load_splits(real_dir)
    assert len(report.rows) == len(splits["train"])
    assert report.summary["num_samples"] == len(splits["train"])
    for row in report.rows:
        assert set(row) == set(CSV_COLUMNS)
        assert row["gap_gim_db"] == row["p_im_db"] - row["p_gim_db"]
        assert row["gap_cnn_db"] == row["p_im_db"] - row["p_cnn_db"]


def test_reference_beats_or_matches_stripes_on_real_data(real_dir):
    # the element-wise reference never loses to the stripe combination
    # by construction of the stored dataset, so gaps stay non-negative
    # up to float rounding of the dB subtraction
    report = evaluate_split(real_dir, center_tap_model(), "train")
    for row in report.rows:
        assert row["gap_gim_db"] >= -1e-9


def test_perfect_predictor_gap_is_exactly_zero(perfect_dir):
    report = evaluate_split(perfect_dir, center_tap_model(), "train")
    assert report.rows
    for row in report.rows:
        assert row["p_cnn_db"] == row["p_im_db"]
        assert row["gap_cnn_db"] == 0.0
    assert report.summary["cnn"]["max_gap_db"] == 0.0
    assert report.summary["cnn"]["mean_gap_db"] == 0.0


def test_gap_recomputed_by_hand_matches_row(real_dir):
    report = evaluate_split(real_dir, center_tap_model(), "test")
    splits = load_splits(real_dir)
    manifest = load_manifest(real_dir)
    inputs, targets = load_arrays(real_dir)
    idx = splits["test"][0]
    row = report.rows[0]

    combined = combine_stripes(pm1_to_states(inputs[idx, :, 0, 0]),
                               pm1_to_states(inputs[idx, 0, :, 1]))
    ref = PhaseConfig(pm1_to_states(targets[idx]))

    h = compute_illumination(manifest.geometry, manifest.tx,
                             flat_tx_phase=manifest.flat_tx_phase)
    ch = compute_channels(manifest.geometry, h,
                          RxSpec(manifest.rx_distance_m,
                                 row["elevation_deg"], row["azimuth_deg"]))
    gap = power_db(objective(ch, ref)) - power_db(objective(ch, combined))
    assert abs(gap - row["gap_gim_db"]) < 1e-9


def test_csv_round_trip_and_determinism(real_dir, tmp_path):
    report = evaluate_split(real_dir, center_tap_model(), "train")
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    report.to_csv(path_a)
    report.to_csv(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = load_report_csv(path_a)
    assert len(loaded) == len(report.rows)
    for got, want in zip(loaded, report.rows):
        for col in CSV_COLUMNS:
            assert got[col] == float(want[col])


def test_summary_json_deterministic(real_dir, tmp_path):
    report = evaluate_split(real_dir, center_tap_model(), "train")
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    report.save_summary(path_a)
    report.save_summary(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_report_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("azimuth_deg,elevation_deg\n0.0,0.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_report_csv(path)


def test_load_report_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_report_csv(path)


def test_noisy_mode_is_seed_deterministic(real_dir):
    a = evaluate_split(real_dir, center_tap_model(), "test",
                       noise_snr_db=10.0, noise_seed=7)
    b = evaluate_split(real_dir, center_tap_model(), "test",
                       noise_snr_db=10.0, noise_seed=7)
    assert a.rows == b.rows

    c = evaluate_split(real_dir, center_tap_model(), "test",
                       noise_snr_db=10.0, noise_seed=8)
    assert any(x["p_im_db"] != y["p_im_db"] for x, y in zip(a.rows, c.rows))


def test_high_snr_approaches_noiseless(real_dir):
    clean = evaluate_split(real_dir, center_tap_model(), "test")
    noisy = evaluate_split(real_dir, center_tap_model(), "test",
                           noise_snr_db=200.0, noise_seed=1)
    for x, y in zip(clean.rows, noisy.rows):
        assert abs(x["p_im_db"] - y["p_im_db"]) < 1e-6
        assert abs(x["p_gim_db"] - y["p_gim_db"]) < 1e-6


def test_unknown_split_rejected(real_dir):
    with pytest.raises(ValueError):
        evaluate_split(real_dir, center_tap_model(), "holdout")


def test_empty_split_rejected_before_tensors_load(tmp_path, monkeypatch):
    generate_dataset(GEOM, TX, RX_DIST, AngularGrid(0.0, 20.0, 0.0, 20.0, 20.0), tmp_path,
                     split_ratios=(0.75, 0.25, 0.0))
    assert load_splits(tmp_path)["test"] == []

    def no_load(data_dir):
        raise AssertionError("tensors loaded for an empty split")

    monkeypatch.setattr(evaluate, "load_arrays", no_load)
    with pytest.raises(ValueError, match="split 'test' of .* has no samples"):
        evaluate_split(tmp_path, center_tap_model(), "test")


def test_wrong_input_channels_rejected(real_dir):
    w = np.zeros((3, 3, 1, 1))
    w[1, 1, 0, 0] = 1.0
    single = Model([ConvLayer(w, np.zeros(1))])
    with pytest.raises(ValueError):
        evaluate_split(real_dir, single, "test")


def test_geometry_mismatch_rejected(real_dir, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("inputs.rist", "targets.rist", "samples.json",
                 "splits.json", "manifest.json"):
        shutil.copy(Path(real_dir) / name, broken / name)
    inputs, _ = load_arrays(real_dir)
    save_tensors(broken / "inputs.rist",
                 [inputs[i, :-1, :, :] for i in range(len(inputs))])
    with pytest.raises(ValueError):
        evaluate_split(broken, center_tap_model(), "test")
