"""End-to-end tests of the command-line harness.

A module-scoped pipeline fixture runs generate, train, optimize, and
pattern once on a small 8x8 surface; individual tests then assert exit
codes, printed step counts, and file contents.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risopt import cli, cnn
from risopt.cli import build_parser, main, pattern_csv
from risopt.cnn import load_model
from risopt.data import DATASET_FILES, AngularGrid, generate_dataset, load_manifest, load_splits
from risopt.physics import (
    PatternGrid,
    PhaseConfig,
    RisGeometry,
    TxSpec,
    compute_illumination,
    radiation_pattern,
)
from risopt.tensorfile import load_tensors, save_tensors

from oracles import load_report_csv, num_parameters

BASE = ["--ris-m", "8", "--ris-n", "8", "--freq-ghz", "10",
        "--tx-dist", "0.6", "--rx-dist", "4.0"]

REPO = Path(__file__).resolve().parents[1]


def _fresh_process(argv, cwd):
    """``python -m risopt argv`` in a new interpreter: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "risopt", *argv], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = root / "dataset"
    weights = root / "net.rist"
    config = root / "config_im.rist"

    # leading-dash pair values need the = form, argparse reads a bare
    # "-20,20" as an unknown option
    assert main(["generate", *BASE, "--grid-az", "0,40", "--grid-el=-20,20",
                 "--grid-step", "20", "--out", str(ds)]) == 0
    assert main(["train", *BASE, "--data", str(ds), "--weights-out", str(weights),
                 "--max-epochs", "2", "--batch", "4", "--seed", "1"]) == 0
    assert main(["optimize", *BASE, "--method", "im", "--el", "20", "--az", "80",
                 "--config-out", str(config)]) == 0
    return {"root": root, "dataset": ds, "weights": weights, "config": config}


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["generate", "--frequency", "5"])
    assert err.value.code == 2


def test_generate_requires_out():
    with pytest.raises(SystemExit) as err:
        main(["generate"])
    assert err.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_generate_bad_split_sum(tmp_path, capsys):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as err:
        main(["generate", *BASE, "--grid-step", "20", "--split", "0.5,0.2,0.2",
              "--out", str(out)])
    assert err.value.code == 2
    assert "argument --split: ratios must sum to 1" in capsys.readouterr().err
    assert not out.exists()


def test_generate_bad_phase_states(tmp_path, capsys):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as err:
        main(["generate", *BASE, "--phase-states", "0",
              "--grid-step", "20", "--out", str(out)])
    assert err.value.code == 2
    assert "unrecognized arguments: --phase-states 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("states", ["1", "4"])
def test_generate_non_binary_phase_states_fails_fast(tmp_path, capsys, states):
    # every surface is 0/180; a request for another state count is refused
    # when the command line is parsed
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as err:
        main(["generate", *BASE, "--phase-states", states,
              "--grid-step", "20", "--out", str(out)])
    assert err.value.code == 2
    assert "--phase-states" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, angle", [
    (["--grid-el=-60,100"], "elevation"), (["--grid-az", "0,400"], "azimuth")])
def test_generate_out_of_range_grid_fails_fast(tmp_path, capsys, grid, angle):
    out = tmp_path / "d"
    code = main(["generate", *BASE, *grid, "--grid-step", "20", "--out", str(out)])
    assert code == 2
    assert f"grid {angle}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_wrote_full_dataset(pipeline):
    manifest = load_manifest(pipeline["dataset"])
    assert manifest.counts == {"train": 7, "val": 1, "test": 1}
    assert manifest.grid.num_points == 9
    assert manifest.geometry.m_cols == 8
    assert manifest.geometry.n_rows == 8
    written = json.loads((pipeline["dataset"] / "manifest.json").read_text(encoding="utf-8"))
    assert written["phase_table"] == [0.0, 180.0]
    # splits.json is the split and the grid counts the samples
    assert "split" not in written
    assert written["counts"] == {"train": 7, "val": 1, "test": 1}
    # the files the CLI keeps its outputs from overwriting, and no other
    assert sorted(p.name for p in pipeline["dataset"].iterdir()) == sorted(DATASET_FILES)


def test_train_wrote_weights_history_and_run(pipeline):
    model = load_model(pipeline["weights"])
    assert num_parameters(model) == 317_645

    history = (pipeline["root"] / "net_history.csv").read_text(encoding="utf-8")
    lines = history.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 1 + 2  # header + max-epochs rows
    assert lines[1].split(",")[0] == "1"

    run = json.loads((pipeline["root"] / "net_run.json").read_text(encoding="utf-8"))
    assert run["epochs_run"] == 2
    # the settings are TrainConfig's fields, under their own names
    assert {k: run[k] for k in ("batch_size", "max_epochs", "patience", "rng_seed", "lr")} == {
        "batch_size": 4, "max_epochs": 2, "patience": 10, "rng_seed": 1, "lr": 1e-3}
    assert "seed" not in run
    # 2 epochs over the 7 training samples
    assert run["train_seconds"] > 0
    assert run["samples_per_s"] == pytest.approx(2 * 7 / run["train_seconds"])
    assert run["numpy"] == np.__version__
    assert run["blas_threads"] == cnn.BLAS_THREADS
    assert run["conv_threads"] == cnn.CONV_THREADS in (1, 2)


def test_train_and_generate_report_progress_on_stderr(pipeline, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", *BASE, "--grid-az", "0,40", "--grid-el=-20,20",
                 "--grid-step", "20", "--out", str(ds)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"samples=9 train=7 val=1 test=1\nmanifest={ds / 'manifest.json'}\n"
    assert captured.err.splitlines() == [f"generated {i}/9 samples" for i in range(1, 10)]

    weights = tmp_path / "net.rist"
    assert main(["train", *BASE, "--data", str(ds), "--weights-out", str(weights),
                 "--max-epochs", "2", "--batch", "4", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    history = (tmp_path / "net_history.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert captured.out.splitlines() == [
        f"epochs=2 final_val_loss={history[-1].split(',')[2]}",
        f"weights={weights}", f"history={tmp_path / 'net_history.csv'}"]
    assert len(captured.err.splitlines()) == 2
    for line, row in zip(captured.err.splitlines(), history):
        epoch, train_loss, val_loss = row.split(",")
        assert line == (f"epoch {epoch}/2 train_loss={float(train_loss):.6g} "
                        f"val_loss={float(val_loss):.6g}")
    # progress output leaves the seeded files as they were
    assert weights.read_bytes() == pipeline["weights"].read_bytes()


def test_train_is_seed_reproducible(pipeline, tmp_path):
    args = ["train", *BASE, "--data", str(pipeline["dataset"]),
            "--max-epochs", "2", "--batch", "4", "--seed", "1"]
    out_a = tmp_path / "a.rist"
    out_b = tmp_path / "b.rist"
    assert main([*args, "--weights-out", str(out_a)]) == 0
    assert main([*args, "--weights-out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a_history.csv").read_text() == (tmp_path / "b_history.csv").read_text()
    assert out_a.read_bytes() == pipeline["weights"].read_bytes()


def test_eval_writes_report_and_summary(pipeline, capsys):
    report_path = pipeline["root"] / "report.csv"
    code = main(["eval", "--data", str(pipeline["dataset"]),
                 "--weights", str(pipeline["weights"]),
                 "--report-out", str(report_path)])
    assert code == 0
    rows = load_report_csv(report_path)
    assert len(rows) == len(load_splits(pipeline["dataset"])["test"])
    summary = json.loads(
        (pipeline["root"] / "report_summary.json").read_text(encoding="utf-8"))
    assert summary["num_samples"] == len(rows)
    out = capsys.readouterr().out
    assert "gim: max_gap_db=" in out
    assert "cnn: max_gap_db=" in out


def _summary_line(method, entry):
    band = entry["band45_mean_gap_db"]
    return (f"{method}: max_gap_db={entry['max_gap_db']:.3f} "
            f"mean_gap_db={entry['mean_gap_db']:.3f} "
            f"median_gap_db={entry['median_gap_db']:.3f} "
            f"band45_mean_gap_db={'none' if band is None else format(band, '.3f')}")


@pytest.mark.parametrize("elevations", ["-20,20", "50,60"], ids=["in_band", "above_band"])
def test_eval_prints_the_summary_it_writes(pipeline, tmp_path, capsys, elevations):
    # every sample of the 50-60 degree grid lies outside |elevation| <= 45
    ds = tmp_path / "dataset"
    assert main(["generate", *BASE, "--grid-az", "0,40", f"--grid-el={elevations}",
                 "--grid-step", "10", "--out", str(ds)]) == 0
    manifest = load_manifest(ds)
    counts = manifest.counts
    assert capsys.readouterr().out.splitlines()[0] == (
        f"samples={manifest.grid.num_points} train={counts['train']} "
        f"val={counts['val']} test={counts['test']}")
    report = tmp_path / "report.csv"
    assert main(["eval", "--data", str(ds), "--weights", str(pipeline["weights"]),
                 "--split", "train", "--report-out", str(report)]) == 0
    summary = json.loads((tmp_path / "report_summary.json").read_text(encoding="utf-8"))
    assert (summary["cnn"]["band45_mean_gap_db"] is None) == (elevations == "50,60")
    assert capsys.readouterr().out.splitlines() == [
        _summary_line("gim", summary["gim"]), _summary_line("cnn", summary["cnn"]),
        f"report={report}"]


def test_eval_seed_draws_only_the_noisy_link(pipeline, tmp_path):
    # no --seed draws the noisy link from seed 0; another seed draws another link
    def noisy(name, *seed):
        out = tmp_path / f"{name}.csv"
        assert main(["eval", "--data", str(pipeline["dataset"]),
                     "--weights", str(pipeline["weights"]), "--report-out", str(out),
                     "--snr-db", "10", *seed]) == 0
        return out.read_bytes()

    default = noisy("default")
    assert default == noisy("seed0", "--seed", "0")
    assert default != noisy("seed7", "--seed", "7")


def _shift_azimuths(samples):
    rows = json.loads(samples.read_text(encoding="utf-8"))
    shifted = [{**row, "azimuth_deg": row["azimuth_deg"] + 90.0} for row in rows]
    samples.write_text(json.dumps(shifted), encoding="utf-8")


@pytest.mark.parametrize("edit", [Path.unlink, _shift_azimuths],
                         ids=["deleted", "azimuths_shifted_90"])
def test_eval_takes_angles_from_the_manifest_grid_not_samples_json(pipeline, tmp_path, edit):
    ds = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], ds)
    edit(ds / "samples.json")
    written = []
    for data, out in ((pipeline["dataset"], tmp_path / "kept"), (ds, tmp_path / "edited")):
        assert main(["eval", "--data", str(data), "--weights", str(pipeline["weights"]),
                     "--split", "train", "--report-out", str(out / "report.csv")]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("report.csv", "report_summary.json")])
    assert written[0] == written[1]


def test_manifest_in_the_older_format_still_loads_and_scores_alike(pipeline, tmp_path):
    # older manifests stored the split recipe and a total count; both are
    # ignored, unchecked ratios included
    ds = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], ds)
    old = json.loads((ds / "manifest.json").read_text(encoding="utf-8"))
    old["counts"]["total"] = 9
    old["split"] = {"ratios": [-5.0, 3.0, float("nan")], "seed": 1}
    (ds / "manifest.json").write_text(json.dumps(old), encoding="utf-8")
    assert load_manifest(ds) == load_manifest(pipeline["dataset"])
    written = []
    for data, out in ((pipeline["dataset"], tmp_path / "new"), (ds, tmp_path / "old")):
        assert main(["eval", "--data", str(data), "--weights", str(pipeline["weights"]),
                     "--report-out", str(out / "report.csv")]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("report.csv", "report_summary.json")])
    assert written[0] == written[1]


def test_eval_infinite_rx_distance_in_manifest_is_refused(pipeline, tmp_path, capsys):
    # an infinite receiver distance scored every power at DB_FLOOR and every gap at 0
    ds = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], ds)
    manifest = json.loads((ds / "manifest.json").read_text(encoding="utf-8"))
    manifest["rx_distance_m"] = float("inf")  # json writes it as Infinity
    (ds / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    report = tmp_path / "report.csv"
    code = main(["eval", "--data", str(ds), "--weights", str(pipeline["weights"]),
                 "--report-out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert "manifest entry 'rx_distance_m' is malformed" in err
    assert "rx distance inf must be finite and > 0" in err
    assert not report.exists()


def test_eval_missing_weights_is_runtime_error(pipeline, capsys):
    code = main(["eval", "--data", str(pipeline["dataset"]),
                 "--weights", str(pipeline["root"] / "nothing.rist"),
                 "--report-out", str(pipeline["root"] / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_optimize_im_step_count_and_config(pipeline, capsys):
    out = pipeline["root"] / "im2.rist"
    code = main(["optimize", *BASE, "--method", "im", "--el", "0", "--az", "80",
                 "--config-out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "steps=128" in printed  # 8 * 8 * 2 trials
    objective_line = next(line for line in printed.splitlines()
                          if line.startswith("objective_db="))
    assert re.fullmatch(r"objective_db=-?[0-9.]+(e-?[0-9]+)?", objective_line)
    records = load_tensors(out)
    assert len(records) == 1
    assert records[0].shape == (8, 8)
    assert set(np.unique(records[0])) <= {0.0, 1.0}


def test_optimize_gim_step_count(pipeline, capsys):
    out = pipeline["root"] / "new_dir" / "gim.rist"  # a missing parent is made
    code = main(["optimize", *BASE, "--method", "gim", "--el", "0", "--az", "80",
                 "--config-out", str(out)])
    assert code == 0
    assert "steps=32" in capsys.readouterr().out  # (8 + 8) * 2 trials
    assert load_tensors(out)[0].shape == (8, 8)


def test_optimize_cnn_requires_weights(pipeline):
    code = main(["optimize", *BASE, "--method", "cnn", "--el", "0", "--az", "80",
                 "--config-out", str(pipeline["root"] / "void.rist")])
    assert code == 2


def test_optimize_cnn_non_binary_phase_states_fails_fast(pipeline, capsys):
    out = pipeline["root"] / "cnn4.rist"
    with pytest.raises(SystemExit) as err:
        main(["optimize", *BASE, "--phase-states", "4", "--method", "cnn",
              "--el", "0", "--az", "80", "--weights", str(pipeline["weights"]),
              "--config-out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--phase-states" in captured.err
    assert "steps=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("el, az, angle", [("95", "80", "elevation"), ("20", "400", "azimuth")])
def test_optimize_out_of_range_angle_is_usage_error(pipeline, capsys, el, az, angle):
    out = pipeline["root"] / "bad_angle.rist"
    with pytest.raises(SystemExit) as err:
        main(["optimize", *BASE, "--method", "gim", "--el", el, "--az", az,
              "--config-out", str(out)])
    assert err.value.code == 2
    flag = "--el" if angle == "elevation" else "--az"
    assert f"argument {flag}: rx {angle}" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_cnn_uses_stripe_step_budget(pipeline, capsys):
    out = pipeline["root"] / "cnn.rist"
    code = main(["optimize", *BASE, "--method", "cnn", "--el", "0", "--az", "80",
                 "--weights", str(pipeline["weights"]), "--config-out", str(out)])
    assert code == 0
    assert "steps=32" in capsys.readouterr().out
    assert load_tensors(out)[0].shape == (8, 8)


def test_pattern_csv_grid_and_peak(pipeline, capsys):
    out = pipeline["root"] / "pattern.csv"
    code = main(["pattern", *BASE, "--config", str(pipeline["config"]),
                 "--step", "20", "--out", str(out)])
    assert code == 0
    assert "rows=70" in capsys.readouterr().out  # 7 elevations x 10 azimuths

    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "elevation_deg,azimuth_deg,power_db"
    assert len(lines) == 1 + 70
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    best = max(rows, key=lambda r: r[2])
    # config was optimized for elevation 20, azimuth 80, a grid point;
    # elevation 0 would be degenerate (azimuth drops out at broadside)
    assert (best[0], best[1]) == (20.0, 80.0)


def test_pattern_is_deterministic(pipeline, tmp_path):
    args = ["pattern", *BASE, "--config", str(pipeline["config"]),
            "--step", "20"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--flat-tx-phase"]], ids=["near-field", "flat"])
def test_pattern_at_the_optimized_angle_reads_the_objective(tmp_path, capsys, flags):
    # optimize reports |sum h * phasor * g| and pattern the same sum without
    # the Rx path loss lambda / (4 pi rx_dist) of g: the two differ by it alone
    config, out = tmp_path / "gim.rist", tmp_path / "pattern.csv"
    assert main(["optimize", *BASE, *flags, "--method", "gim", "--el", "20", "--az", "40",
                 "--config-out", str(config)]) == 0
    objective_db = float(re.search(r"objective_db=(\S+)", capsys.readouterr().out).group(1))
    assert main(["pattern", *BASE, *flags, "--config", str(config), "--step", "5",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").split()[1:]]
    [power_db] = [float(p) for el, az, p in rows if (float(el), float(az)) == (20.0, 40.0)]
    wavelength = RisGeometry.half_wavelength(8, 8, 10e9).wavelength
    path_loss_db = 20 * np.log10(wavelength / (4 * np.pi * 4.0))
    assert abs(power_db - (objective_db - path_loss_db)) < 1e-9


def test_pattern_rejects_mismatched_geometry(pipeline, capsys):
    code = main(["pattern", "--ris-m", "4", "--ris-n", "4", "--freq-ghz", "10",
                 "--config", str(pipeline["config"]),
                 "--out", str(pipeline["root"] / "bad.csv")])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_pattern_csv_bytes_match_fstring_loop(pipeline):
    # the writer the list-based pattern_csv replaced, kept as its oracle
    def fstring_loop(pat):
        lines = ["elevation_deg,azimuth_deg,power_db"]
        for i, el in enumerate(pat.elevations):
            for j, az in enumerate(pat.azimuths):
                lines.append(f"{float(el)!r},{float(az)!r},{float(pat.power_db[i, j])!r}")
        return "\n".join(lines) + "\n"

    geom = RisGeometry.half_wavelength(8, 8, 10e9)
    h = compute_illumination(geom, TxSpec(0.6))
    cfg = PhaseConfig(load_tensors(pipeline["config"])[0].astype(np.int64))
    grid = AngularGrid(step_deg=0.7)  # non-terminating decimals on both axes
    pat = radiation_pattern(geom, h, cfg, grid.elevation_values(), grid.azimuth_values())
    assert pattern_csv(pat) == fstring_loop(pat)

    edge = np.array([[-300.0, -0.0, 5e-324], [1e300, float("nan"), -float("inf")]])
    odd = PatternGrid(np.array([-0.0, 1 / 3]), np.array([0.1, 2.0, 359.99]),
                      np.zeros((2, 3), dtype=complex), edge)
    assert pattern_csv(odd).encode() == fstring_loop(odd).encode()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_lr_is_usage_error(tmp_path, capsys, lr):
    # the dataset does not exist: exit 2 shows --lr was checked before any load
    weights = tmp_path / "w.rist"
    with pytest.raises(SystemExit) as err:
        main(["train", *BASE, "--data", str(tmp_path / "missing"), "--lr", lr,
              "--weights-out", str(weights)])
    assert err.value.code == 2
    assert "--lr" in capsys.readouterr().err
    assert not weights.exists()


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_pattern_non_finite_step_is_usage_error(pipeline, capsys, step):
    out = pipeline["root"] / "step.csv"
    with pytest.raises(SystemExit) as err:
        main(["pattern", *BASE, "--config", str(pipeline["config"]),
              "--step", step, "--out", str(out)])
    assert err.value.code == 2
    assert "argument --step: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_generate_non_finite_grid_step_is_usage_error(tmp_path, capsys, step):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as err:
        main(["generate", *BASE, "--grid-step", step, "--out", str(out)])
    assert err.value.code == 2
    assert "argument --grid-step: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_train_stops_on_non_finite_loss(pipeline, tmp_path, capsys):
    weights = tmp_path / "nan.rist"
    code = main(["train", *BASE, "--data", str(pipeline["dataset"]), "--lr", "1e308",
                 "--max-epochs", "2", "--weights-out", str(weights)])
    assert code == 1
    assert "epoch 1: loss is not finite" in capsys.readouterr().err
    assert not weights.exists()
    history = tmp_path / "nan_history.csv"
    assert history.read_text(encoding="utf-8") == "epoch,train_loss,val_loss\n"


@pytest.mark.parametrize("ratios, empty", [("1,0,0", "val"), ("0,1,0", "train")])
def test_train_on_an_empty_split_keeps_the_previous_history(tmp_path, capsys, ratios, empty):
    ds = tmp_path / "dataset"
    assert main(["generate", *BASE, "--grid-az", "0,20", "--grid-el", "0,20",
                 "--grid-step", "20", "--split", ratios, "--out", str(ds)]) == 0
    history = tmp_path / "net_history.csv"
    history.write_text("epoch,train_loss,val_loss\n1,0.5,0.25\n", encoding="utf-8")
    capsys.readouterr()
    weights = tmp_path / "net.rist"
    assert main(["train", "--data", str(ds), "--weights-out", str(weights)]) == 1
    assert f"split {empty!r} of {ds} has no samples" in capsys.readouterr().err
    assert history.read_text(encoding="utf-8") == "epoch,train_loss,val_loss\n1,0.5,0.25\n"
    assert not weights.exists()


def test_train_that_fails_keeps_the_epochs_it_finished(pipeline, tmp_path, capsys,
                                                       monkeypatch):
    # at paper scale an epoch takes minutes; its history row is written as it ends
    def fails_in_epoch_2(model, train_set, val_set, cfg, progress):
        progress(1, 0.5, 0.25)
        raise ValueError("epoch 2: loss is not finite")

    monkeypatch.setattr(cli, "train", fails_in_epoch_2)
    weights = tmp_path / "net.rist"
    assert main(["train", "--data", str(pipeline["dataset"]), "--max-epochs", "3",
                 "--weights-out", str(weights)]) == 1
    assert "epoch 2: loss is not finite" in capsys.readouterr().err
    assert (tmp_path / "net_history.csv").read_text(encoding="utf-8") == (
        "epoch,train_loss,val_loss\n1,0.5,0.25\n")
    assert not weights.exists()


def test_train_runs_in_float32(pipeline, tmp_path, monkeypatch):
    # save_model writes float32 weights, and the library trains in float32
    dtypes = []

    def recording_train(model, *args):
        dtypes.extend(layer.weights.dtype for layer in model.convs)
        dtypes.extend(layer.bias.dtype for layer in model.convs)
        return cnn.train(model, *args)

    monkeypatch.setattr(cli, "train", recording_train)
    assert main(["train", *BASE, "--data", str(pipeline["dataset"]), "--max-epochs", "1",
                 "--weights-out", str(tmp_path / "net.rist")]) == 0
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}


def test_console_script_help_runs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    # the [project.scripts] target is the function `python -m risopt` runs
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"]["risopt"] == "risopt.cli:main"
    code, out, _ = _fresh_process(["--help"], REPO)
    assert code == 0
    assert "generate" in out
    assert "pattern" in out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # usage text wraps at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    request = ["optimize", *BASE, "--el", "20", "--az", "80"]
    calls = [  # (argv, config file the call writes, or None)
        ([*request, "--method", "gim", "--config-out", str(tmp_path / "a.rist")],
         tmp_path / "a.rist"),
        ([*request, "--method", "gim", "--freq-ghz", "0"], None),
        # no --config-out: the default name must not leak from the first call
        ([*request, "--method", "gim"], tmp_path / "config_gim.rist"),
        ([*request, "--method", "im"], tmp_path / "config_im.rist"),
    ]
    in_process = []
    for argv, config in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = config.read_bytes() if config is not None else None
        in_process.append((code, captured.out, captured.err, written))
    assert [c[0] for c in in_process] == [0, 2, 0, 0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.rist", "config_gim.rist", "config_im.rist"]

    for (argv, config), want in zip(calls, in_process):
        code, out, err = _fresh_process(argv, tmp_path)
        written = config.read_bytes() if config is not None else None
        assert (code, out, err, written) == want, argv


_MISSING = "missing"  # stands for a path under tmp_path that must never be created

_BAD_FLAGS = {
    "optimize": ["optimize", *BASE, "--method", "gim", "--el", "0", "--az", "0",
                 "--config-out", _MISSING],
    "train": ["train", *BASE, "--data", _MISSING, "--weights-out", _MISSING],
    "generate": ["generate", *BASE, "--grid-az", "0,0", "--grid-el", "0,0",
                 "--grid-step", "5", "--out", _MISSING],
    "eval": ["eval", *BASE, "--data", _MISSING, "--weights", _MISSING,
             "--report-out", _MISSING],
    "pattern": ["pattern", *BASE, "--config", _MISSING, "--out", _MISSING],
}


@pytest.mark.parametrize("command, flag, value, message", [
    ("optimize", "--ris-m", "0", "must be >= 1"),
    ("optimize", "--ris-n", "-3", "must be >= 1"),
    ("optimize", "--freq-ghz", "0", "must be > 0"),
    ("optimize", "--freq-ghz", "-5", "must be > 0"),
    ("optimize", "--freq-ghz", "1e300", "must be finite in Hz"),
    ("optimize", "--spacing", "nan", "must be finite"),
    ("optimize", "--tx-dist", "inf", "must be finite"),
    ("optimize", "--rx-dist", "0", "must be > 0"),
    ("generate", "--rx-dist", "0", "must be > 0"),
    ("train", "--batch", "0", "must be >= 1"),
    ("train", "--max-epochs", "0", "must be >= 1"),
    ("train", "--patience", "-1", "must be >= 1"),
    ("train", "--lr", "-1", "must be >= 0"),
    ("generate", "--seed", "-1", "must be >= 0"),
    ("train", "--seed", "-1", "must be >= 0"),
    ("eval", "--seed", "-1", "must be >= 0"),
    ("generate", "--grid-step", "0", "must be > 0"),
    ("generate", "--grid-step", "nan", "must be finite"),
    ("generate", "--grid-step", "inf", "must be finite"),
    ("pattern", "--step", "0", "must be > 0"),
    ("pattern", "--step", "nan", "must be finite"),
    ("pattern", "--step", "-inf", "must be finite"),
    ("eval", "--snr-db", "nan", "must be finite"),
    ("eval", "--snr-db", "-inf", "must be finite"),
    ("eval", "--snr-db", "inf", "must be finite"),
    ("eval", "--snr-db", "-1e308", "must be >= -6000"),
    ("generate", "--split", "-0.2,0.6,0.6", "ratios must be finite and >= 0"),
    ("generate", "--split", "nan,0.5,0.5", "ratios must be finite and >= 0"),
    ("generate", "--split", "0.5,0.5,inf", "ratios must be finite and >= 0"),
    ("optimize", "--el", "-90.5", "rx elevation -90.5 must lie"),
    ("optimize", "--el", "nan", "must be finite"),
    ("optimize", "--az", "360", "rx azimuth 360.0 must lie in [0, 360) degrees"),
    ("optimize", "--az", "-1", "rx azimuth -1.0 must lie"),
    ("optimize", "--az", "inf", "must be finite"),
])
def test_bad_flag_is_named_at_parse_time(tmp_path, capsys, command, flag, value, message):
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    with pytest.raises(SystemExit) as err:
        main([*argv, f"{flag}={value}"])
    assert err.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_BAD_FLAGS))
def test_phase_states_is_an_unrecognized_argument(tmp_path, capsys, command):
    # every surface is 0/180: there is no phase table to choose
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--phase-states", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --phase-states 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "pattern"])
def test_seed_is_an_unrecognized_argument_where_nothing_is_random(tmp_path, capsys, command):
    # optimize and pattern make no random choice, so a seed there would be ignored
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--seed", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_seed_without_snr_db_is_usage_error(tmp_path, capsys):
    # without --snr-db nothing in eval is random, so the seed would be ignored
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS["eval"]]
    assert main([*argv, "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--snr-db" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "optimize", "pattern"])
def test_non_finite_rx_path_loss_is_usage_error(tmp_path, capsys, command):
    # 1e-320 m passes the flag's own check, but wavelength / (4 pi d) overflows
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    assert main([*argv, "--rx-dist=1e-320"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the receiver path loss is not finite; "
                   "check --rx-dist and --freq-ghz\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "optimize", "pattern"])
@pytest.mark.parametrize("flag, value", [
    ("--freq-ghz", "1e-320"),  # 1e-311 Hz: the half wavelength overflows
    ("--spacing", "1e308"),
    ("--tx-dist", "1e200"),
])
def test_non_finite_surface_is_usage_error(tmp_path, capsys, command, flag, value):
    # each value passes its own flag check but overflows the illumination
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    assert main([*argv, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert "illumination is not finite; check --freq-ghz, --spacing and --tx-dist" in err
    assert "Warning" not in err
    # checked before any file is read or written
    assert list(tmp_path.iterdir()) == []


def test_every_numeric_flag_has_a_checked_type():
    # a bare float or int type lets nan, inf and out-of-range values past
    # parsing, to fail later with a message that names no flag
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in sub.choices.items():
        for action in subparser._actions:
            assert action.type not in (float, int), (command, action.option_strings)


def test_eval_empty_split_fails_before_any_work(pipeline, tmp_path, capsys):
    ds = tmp_path / "no_test"
    assert main(["generate", *BASE, "--grid-az", "0,20", "--grid-el", "0,20",
                 "--grid-step", "20", "--split", "0.75,0.25,0", "--out", str(ds)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.csv"
    code = main(["eval", *BASE, "--data", str(ds), "--weights", str(pipeline["weights"]),
                 "--split", "test", "--report-out", str(report)])
    assert code == 1
    assert "split 'test'" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("values, message", [
    (np.full((8, 8), 0.7), "holds values that are not phase state indices"),
    (np.full((8, 8), 1.5), "holds values that are not phase state indices"),
    (np.full((8, 8), -1.0), "holds values that are not phase state indices"),
    (np.full((8, 8), np.inf), "holds values that are not phase state indices"),
    (np.zeros((0, 0)), "does not match the geometry"),
    # a config written for three states: 2 is not a state of the 0/180 surface
    (np.pad([[2.0]], (0, 7)), "holds values that are not phase state indices"),
])
def test_pattern_rejects_config_it_cannot_represent(tmp_path, capsys, values, message):
    config = tmp_path / "bad.rist"
    save_tensors(config, [values.astype(np.float32)])
    out = tmp_path / "p.csv"
    code = main(["pattern", *BASE, "--config", str(config), "--step", "20",
                 "--out", str(out)])
    assert code == 1
    assert f"{config} {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", *BASE, "--out", _MISSING], "--grid-step"),
    (["pattern", *BASE, "--config", _MISSING, "--out", _MISSING], "--step"),
])
def test_oversized_grid_is_usage_error(tmp_path, capsys, argv, flag):
    # about 2e604 grid points on the default ranges: the float count overflows to inf
    argv = [str(tmp_path / a) if a == _MISSING else a for a in argv]
    assert main([*argv, f"{flag}=1e-300"]) == 2
    err = capsys.readouterr().err
    assert "points a grid may hold" in err and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_of_range_split_index_is_runtime_error(pipeline, tmp_path, capsys, command):
    ds = tmp_path / "dataset"
    shutil.copytree(pipeline["dataset"], ds)
    splits = json.loads((ds / "splits.json").read_text(encoding="utf-8"))
    splits["test"].append(999)
    (ds / "splits.json").write_text(json.dumps(splits), encoding="utf-8")
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", *BASE, "--data", str(ds), "--weights-out", str(out)]
    else:
        argv = ["eval", "--data", str(ds), "--weights", str(pipeline["weights"]),
                "--report-out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "split 'test' must list sample indices in [0, 9)" in err
    assert not out.exists()


def _command_without_output(pipeline, command):
    """A quick ``command`` on the pipeline's files, less its output flag."""
    return {
        "generate": ["generate", *BASE, "--grid-az", "0,40", "--grid-el", "0,20",
                     "--grid-step", "20"],
        "train": ["train", "--data", str(pipeline["dataset"]), "--max-epochs", "1"],
        "eval": ["eval", "--data", str(pipeline["dataset"]),
                 "--weights", str(pipeline["weights"])],
        "pattern": ["pattern", *BASE, "--config", str(pipeline["config"]), "--step", "20"],
        "optimize": ["optimize", *BASE, "--method", "gim", "--el", "0", "--az", "80"],
    }[command]


@pytest.mark.parametrize("command, flag, out", [
    ("generate", "--out", "file"),
    ("generate", "--out", "file/ds"),
    ("train", "--weights-out", "file/net.rist"),
    ("train", "--weights-out", "file/sub/net.rist"),
    ("eval", "--report-out", "file/report.csv"),
    ("pattern", "--out", "file/pattern.csv"),
    ("optimize", "--config-out", "file/config.rist"),
])
def test_output_under_a_regular_file_fails_before_any_work(
        pipeline, tmp_path, capsys, command, flag, out):
    # a stage that could not write its result would run to the end first
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = tmp_path / out
    argv = _command_without_output(pipeline, command)
    assert main([*argv, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} {out}: ")
    assert captured.err.count("\n") == 1  # no progress line came first
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command, flag", [
    ("train", "--weights-out"),
    ("eval", "--report-out"),
    ("pattern", "--out"),
    ("optimize", "--config-out"),
])
def test_output_that_is_a_directory_fails_before_any_work(
        pipeline, tmp_path, capsys, command, flag):
    # train would otherwise run every epoch, write D_history.csv, then fail
    out = tmp_path / "out"
    out.mkdir()
    argv = _command_without_output(pipeline, command)
    assert main([*argv, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {out}: is a directory, not a file\n"
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write to any directory")
@pytest.mark.parametrize("command, flag, out", [
    ("generate", "--out", "ro"),
    ("generate", "--out", "ro/ds"),
    ("train", "--weights-out", "ro/net.rist"),
    ("eval", "--report-out", "ro/report.csv"),
    ("pattern", "--out", "ro/pattern.csv"),
    ("optimize", "--config-out", "ro/config.rist"),
])
def test_output_in_a_read_only_directory_fails_before_any_work(
        pipeline, tmp_path, capsys, command, flag, out):
    # train would otherwise run every epoch and then fail on the write
    read_only = tmp_path / "ro"
    read_only.mkdir(mode=0o500)
    out = tmp_path / out
    argv = _command_without_output(pipeline, command)
    try:
        assert main([*argv, flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} {out}: directory {read_only} "
                                "is not writable\n")
        assert list(tmp_path.iterdir()) == [read_only]
        assert list(read_only.iterdir()) == []
    finally:
        read_only.chmod(0o700)


def _never(*args, **kwargs):
    raise AssertionError("called after an output check should have refused the command")


@pytest.mark.parametrize("command, flag, out, beside", [
    ("train", "--weights-out", "net.rist", "net_history.csv"),
    ("train", "--weights-out", "net.rist", "net_run.json"),
    ("eval", "--report-out", "report.csv", "report_summary.json"),
])
def test_output_beside_the_given_one_that_is_a_directory_fails_before_any_work(
        pipeline, tmp_path, capsys, monkeypatch, command, flag, out, beside):
    # train would otherwise run its epochs and write net.rist and
    # net_history.csv before failing on net_run.json, and eval report.csv
    for name in ("load_splits", "load_arrays", "load_model", "evaluate_split"):
        monkeypatch.setattr(cli, name, _never)
    (tmp_path / beside).mkdir()
    out = tmp_path / out
    argv = _command_without_output(pipeline, command)
    assert main([*argv, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {out}: {tmp_path / beside} is a directory, not a file\n"
    assert list(tmp_path.iterdir()) == [tmp_path / beside]
    assert list((tmp_path / beside).iterdir()) == []


@pytest.mark.parametrize("command, flag, out, hit, read_flag, read", [
    ("eval", "--report-out", "net.rist", "net.rist", "--weights", "net.rist"),
    ("eval", "--report-out", "report.csv", "report_summary.json",
     "--weights", "report_summary.json"),
    ("eval", "--report-out", "ds/targets.rist", "ds/targets.rist", "--data", "ds/targets.rist"),
    ("train", "--weights-out", "ds/inputs.rist", "ds/inputs.rist", "--data", "ds/inputs.rist"),
    ("train", "--weights-out", "ds/manifest.json", "ds/manifest.json",
     "--data", "ds/manifest.json"),
    ("optimize", "--config-out", "net.rist", "net.rist", "--weights", "net.rist"),
    ("pattern", "--out", "config.rist", "config.rist", "--config", "config.rist"),
    ("pattern", "--out", "link.csv", "link.csv", "--config", "config.rist"),
])
def test_output_that_is_one_of_the_inputs_fails_before_any_work(
        pipeline, tmp_path, capsys, monkeypatch, command, flag, out, hit, read_flag, read):
    # eval --report-out W would otherwise replace the weights W with the
    # report, and optimize --config-out W the weights with a config
    for name in ("load_splits", "load_arrays", "load_model", "gim_optimize", "load_tensors"):
        monkeypatch.setattr(cli, name, _never)
    ds, config = tmp_path / "ds", tmp_path / "config.rist"
    weights = tmp_path / (read if read_flag == "--weights" else "net.rist")
    shutil.copytree(pipeline["dataset"], ds)
    shutil.copy(pipeline["weights"], weights)
    shutil.copy(pipeline["config"], config)
    if out == "link.csv":
        (tmp_path / out).symlink_to(config)
    argv = {
        "train": ["train", "--data", str(ds), "--max-epochs", "1"],
        "eval": ["eval", "--data", str(ds), "--weights", str(weights)],
        "optimize": ["optimize", *BASE, "--method", "cnn", "--el", "0", "--az", "80",
                     "--weights", str(weights)],
        "pattern": ["pattern", *BASE, "--config", str(config), "--step", "20"],
    }[command]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    out = tmp_path / out
    assert main([*argv, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "" if tmp_path / hit == out else f"{tmp_path / hit} "
    assert captured.err == (f"error: {flag} {out}: {where}would overwrite the {read_flag} "
                            f"input {tmp_path / read}\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root may write to any file")
@pytest.mark.parametrize("command, flag, out, locked", [
    ("train", "--weights-out", "net.rist", "net_run.json"),
    ("eval", "--report-out", "report.csv", "report.csv"),
    ("eval", "--report-out", "report.csv", "report_summary.json"),
    ("pattern", "--out", "pattern.csv", "pattern.csv"),
    ("optimize", "--config-out", "config.rist", "config.rist"),
])
def test_output_file_that_is_read_only_fails_before_any_work(
        pipeline, tmp_path, capsys, command, flag, out, locked):
    (tmp_path / locked).write_text("kept", encoding="utf-8")
    (tmp_path / locked).chmod(0o400)
    out = tmp_path / out
    argv = _command_without_output(pipeline, command)
    assert main([*argv, flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {out}: file {tmp_path / locked} is not writable\n"
    assert list(tmp_path.iterdir()) == [tmp_path / locked]
    assert (tmp_path / locked).read_text(encoding="utf-8") == "kept"


def test_tensor_file_errors_name_the_file(pipeline, tmp_path, capsys):
    # one of three files may be at fault
    bad = tmp_path / "bad.rist"
    bad.write_bytes(b"XXXX" + bytes(20))
    ds = tmp_path / "ds"
    shutil.copytree(pipeline["dataset"], ds)
    targets = ds / "targets.rist"
    targets.write_bytes(targets.read_bytes()[:40])
    for weights, message in [(bad, f"{bad}: bad magic b'XXXX' at byte 0"),
                             (pipeline["weights"],
                              f"{targets}: record at byte 0: (8, 8) overruns the file")]:
        assert main(["eval", "--data", str(ds), "--weights", str(weights),
                     "--report-out", str(tmp_path / "report.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("channels", [(2, 4, 2), (3, 4, 1)])
def test_weights_that_cannot_give_a_config_are_refused_on_load(
        pipeline, tmp_path, capsys, monkeypatch, channels):
    # otherwise a 2-channel output fails in PhaseConfig and a 3-channel input
    # in the forward pass, naming no file, after optimize's stripe searches
    weights = tmp_path / "odd.rist"
    cnn.save_model(weights, cnn.make_model(0, channels=channels, kernels=(3, 3),
                                           dropout_after=()))
    message = (f"error: {weights}: the network maps {channels[0]} channels to "
               f"{channels[-1]}; predicting a config takes 2 to 1\n")
    assert main(["eval", "--data", str(pipeline["dataset"]), "--weights", str(weights),
                 "--report-out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err == message
    monkeypatch.setattr(cli, "gim_optimize", _never)
    assert main(["optimize", *BASE, "--method", "cnn", "--el", "0", "--az", "80",
                 "--weights", str(weights), "--config-out", str(tmp_path / "cfg.rist")]) == 1
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == [weights]


# a 12x10 surface: the default 40x40 would mask a dropped --ris-m or --ris-n
_SURFACE_12X10 = ["--ris-m", "12", "--ris-n", "10", "--freq-ghz", "10",
                  "--tx-dist", "0.6", "--rx-dist", "4"]


@pytest.fixture(scope="module")
def surface_12x10(tmp_path_factory):
    root = tmp_path_factory.mktemp("surface")
    ds, weights = root / "ds", root / "net.rist"
    assert main(["generate", *_SURFACE_12X10, "--grid-az", "0,20", "--grid-el", "0,20",
                 "--grid-step", "20", "--split", "0.5,0.25,0.25", "--out", str(ds)]) == 0
    assert main(["train", "--data", str(ds), "--weights-out", str(weights),
                 "--max-epochs", "1"]) == 0
    return ds, weights


def _dataset_command(command, ds, weights, out):
    if command == "train":
        return ["train", "--data", str(ds), "--max-epochs", "1", "--weights-out", str(out)]
    return ["eval", "--data", str(ds), "--weights", str(weights), "--report-out", str(out)]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flags, named", [
    (["--ris-m", "3", "--freq-ghz", "99", "--flat-tx-phase"], "--ris-m"),
    (["--ris-n", "12"], "--ris-n"),
    (["--freq-ghz", "99"], "--freq-ghz"),
    (["--spacing", "0.015"], "--spacing"),
    (["--tx-dist", "1"], "--tx-dist"),
    (["--rx-dist", "10"], "--rx-dist"),
    (["--flat-tx-phase"], "--flat-tx-phase"),
])
def test_surface_flag_that_contradicts_the_dataset_is_usage_error(
        surface_12x10, tmp_path, capsys, command, flags, named):
    # train and eval take the surface from the manifest; a flag that says
    # otherwise is refused before any work, naming the flag
    out = tmp_path / "out"
    assert main([*_dataset_command(command, *surface_12x10, out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} does not match the dataset ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_surface_flags_that_match_the_dataset_are_accepted(surface_12x10, tmp_path, command):
    ds = surface_12x10[0]
    spacing = repr(load_manifest(ds).geometry.dx)
    out = tmp_path / "out"
    assert main([*_dataset_command(command, *surface_12x10, out),
                 *_SURFACE_12X10, "--spacing", spacing]) == 0
    assert out.exists()


def _swap_in_transposed_records(ds):
    # the records of a 10x12 surface in the 12x10 surface's directory
    for name in ("inputs.rist", "targets.rist"):
        records = load_tensors(ds / name)
        save_tensors(ds / name, [np.ascontiguousarray(r.swapaxes(0, 1)) for r in records])


def _train_on_a_test_sample(ds):
    splits = json.loads((ds / "splits.json").read_text(encoding="utf-8"))
    splits["train"][0] = splits["test"][0]
    (ds / "splits.json").write_text(json.dumps(splits), encoding="utf-8")


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit, message", [
    (_swap_in_transposed_records, "tensor files do not match the manifest geometry"),
    (_train_on_a_test_sample, "the splits must hold each of the 4 samples once"),
], ids=["transposed-records", "train-holds-a-test-sample"])
def test_dataset_that_does_not_match_itself_fails_before_any_step(
        surface_12x10, tmp_path, capsys, monkeypatch, command, edit, message):
    ds = tmp_path / "ds"
    shutil.copytree(surface_12x10[0], ds)
    edit(ds)

    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(cnn, "_loss_and_grads", no_step)
    out = tmp_path / "out"
    assert main(_dataset_command(command, ds, surface_12x10[1], out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "optimize", "pattern"])
@pytest.mark.parametrize("m, n", [("513", "512"), ("100000", "100000")])
def test_surface_above_the_element_bound_is_usage_error(tmp_path, capsys, command, m, n):
    # 512 x 512 = MAX_ELEMENTS; 100000 x 100000 would ask numpy for 74.5 GiB
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS[command]]
    assert main([*argv, "--ris-m", m, "--ris-n", n]) == 2
    assert capsys.readouterr().err == (f"error: --ris-m {m} x --ris-n {n} is more than the "
                                       "262144 elements a surface may hold\n")
    assert list(tmp_path.iterdir()) == []


def test_surface_at_the_element_bound_is_accepted(tmp_path, capsys):
    out = tmp_path / "config.rist"
    assert main(["optimize", *BASE, "--ris-m", "512", "--ris-n", "512", "--method", "gim",
                 "--el", "0", "--az", "0", "--config-out", str(out)]) == 0
    assert "steps=2048\n" in capsys.readouterr().out
    assert load_tensors(out)[0].shape == (512, 512)


@pytest.mark.parametrize("m, n", [("4", "8"), ("8", "4"), ("4", "4")])
def test_generate_refuses_a_surface_below_the_largest_kernel(tmp_path, capsys, m, n):
    # train, eval and optimize --method cnn would reject the dataset
    argv = [str(tmp_path / a) if a == _MISSING else a for a in _BAD_FLAGS["generate"]]
    assert main([*argv, "--ris-m", m, "--ris-n", n]) == 2
    assert capsys.readouterr().err == (
        f"error: the default network cannot take the images of --ris-m {m} x --ris-n {n}: "
        f"input ({n}, {m}, 2) is smaller than the largest kernel (5x5)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def surfaces_below_the_kernels(tmp_path_factory):
    """Library-made 3x3 and 6x6 datasets, which generate refuses, and the
    weights of a network with one 9x9 kernel."""
    root = tmp_path_factory.mktemp("below")
    datasets = {side: root / f"{side}x{side}" for side in (3, 6)}
    for side, ds in datasets.items():
        generate_dataset(RisGeometry.half_wavelength(side, side, 10e9), TxSpec(0.6), 4.0,
                         AngularGrid(0.0, 20.0, 0.0, 20.0, 20.0), ds,
                         split_ratios=(0.5, 0.25, 0.25))
    wide = root / "wide.rist"
    cnn.save_model(wide, cnn.Model([cnn.ConvLayer(np.zeros((9, 9, 2, 1)), np.zeros(1))]))
    return datasets, wide


@pytest.mark.parametrize("command", ["generate", "train", "eval", "optimize"])
def test_surface_the_network_cannot_take_is_refused_before_any_work(
        pipeline, surfaces_below_the_kernels, tmp_path, capsys, monkeypatch, command):
    # optimize --method cnn once ran both stripe searches, and train replaced
    # the earlier history, before the network refused the image
    datasets, wide = surfaces_below_the_kernels
    weights = pipeline["weights"]  # the default network, trained at 8x8
    monkeypatch.setattr(cli, "gim_optimize", _never)
    monkeypatch.setattr(cnn, "_loss_and_grads", _never)
    history = tmp_path / "net_history.csv"
    history.write_text("epoch,train_loss,val_loss\n1,0.5,0.25\n", encoding="utf-8")
    argv, code, network, images, shape, kernel = {
        "generate": (["generate", "--ris-m", "4", "--ris-n", "40", "--out", "ds"], 2,
                     "default network", "--ris-m 4 x --ris-n 40", (40, 4, 2), 5),
        "train": (["train", "--data", datasets[3], "--weights-out", "net.rist"], 1,
                  "default network", f"the dataset {datasets[3]}", (3, 3, 2), 5),
        "eval": (["eval", "--data", datasets[6], "--weights", wide, "--report-out", "r.csv"], 1,
                 f"network of --weights {wide}", f"the dataset {datasets[6]}", (6, 6, 2), 9),
        "optimize": (["optimize", "--ris-m", "3", "--ris-n", "8", "--method", "cnn", "--el", "0",
                      "--az", "0", "--weights", weights, "--config-out", "cfg.rist"], 2,
                     f"network of --weights {weights}", "--ris-m 3 x --ris-n 8", (8, 3, 2), 5),
    }[command]
    monkeypatch.chdir(tmp_path)
    assert main([str(a) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the {network} cannot take the images of {images}: "
                            f"input {shape} is smaller than the largest kernel "
                            f"({kernel}x{kernel})\n")
    assert list(tmp_path.iterdir()) == [history]
    assert history.read_text(encoding="utf-8") == "epoch,train_loss,val_loss\n1,0.5,0.25\n"


@pytest.mark.parametrize("command, split", [("train", "train"), ("eval", "test")])
def test_dataset_record_other_than_pm1_is_refused_before_any_write(
        surface_12x10, tmp_path, capsys, command, split):
    # eval once scored a NaN input and exited 0; train refused it only after
    # it had replaced the earlier history
    ds = tmp_path / "ds"
    shutil.copytree(surface_12x10[0], ds)
    index = load_splits(ds)[split][0]
    records = load_tensors(ds / "inputs.rist")
    records[index][0, 0, 0] = np.nan
    save_tensors(ds / "inputs.rist", records)
    history = tmp_path / "out_history.csv"
    history.write_text("epoch,train_loss,val_loss\n1,0.5,0.25\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(_dataset_command(command, ds, surface_12x10[1], out)) == 1
    assert capsys.readouterr().err == (f"error: {ds / 'inputs.rist'}: record {index} holds "
                                       "a value other than +1 or -1\n")
    assert sorted(tmp_path.iterdir()) == [ds, history]
    assert history.read_text(encoding="utf-8") == "epoch,train_loss,val_loss\n1,0.5,0.25\n"


_RLIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from risopt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_generate_refuses_a_dataset_whose_records_cannot_fit(tmp_path):
    # 21,901 angles x 512 x 512 elements x 12 B is about 69 GB of records; the
    # child's 2 GiB address space turns a missing check into a MemoryError
    # instead of a sweep that runs for days
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "ds"
    proc = subprocess.run([sys.executable, "-c", _RLIMITED, "generate", "--ris-m", "512",
                           "--ris-n", "512", "--out", str(out)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == (
        "error: 21901 samples of --ris-m 512 x --ris-n 512 elements need more than the "
        "4294967296 B of records a dataset may hold (12 B per element and sample); check "
        "--ris-m, --ris-n, --grid-az, --grid-el and --grid-step\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bound, code", [(1536, 0), (1535, 2)])
def test_generate_record_bound_is_inclusive(tmp_path, capsys, monkeypatch, bound, code):
    # 2 angles x 8 x 8 elements x 12 B = 1536 B
    monkeypatch.setattr(cli, "MAX_DATASET_BYTES", bound)
    assert main(["generate", *BASE, "--grid-az", "0,20", "--grid-el", "0,0",
                 "--grid-step", "20", "--out", str(tmp_path / "ds")]) == code
    assert ("--grid-step\n" in capsys.readouterr().err) == (code == 2)
    assert (tmp_path / "ds").exists() == (code == 0)
