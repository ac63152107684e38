"""End-to-end tests of the command-line harness.

A module-scoped pipeline fixture runs generate, train, optimize, and
pattern once on a small 8x8 surface; individual tests then assert exit
codes, printed step counts, and file contents.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risopt.cli import main
from risopt.cnn import load_model
from risopt.data import load_manifest, load_splits
from risopt.evaluate import load_report_csv
from risopt.tensorfile import load_tensors

BASE = ["--ris-m", "8", "--ris-n", "8", "--freq-ghz", "10",
        "--tx-dist", "0.6", "--rx-dist", "4.0"]

REPO = Path(__file__).resolve().parents[1]


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


def test_generate_bad_split_sum(tmp_path):
    code = main(["generate", *BASE, "--grid-step", "20", "--split", "0.5,0.2,0.2",
                 "--out", str(tmp_path / "d")])
    assert code == 2


def test_generate_bad_phase_states(tmp_path):
    code = main(["generate", *BASE, "--phase-states", "0",
                 "--grid-step", "20", "--out", str(tmp_path / "d")])
    assert code == 2


@pytest.mark.parametrize("states", ["1", "4"])
def test_generate_non_binary_phase_states_fails_fast(tmp_path, capsys, states):
    out = tmp_path / "d"
    code = main(["generate", *BASE, "--phase-states", states,
                 "--grid-step", "20", "--out", str(out)])
    assert code == 2
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
    assert manifest.counts == {"total": 9, "train": 7, "val": 1, "test": 1}
    assert manifest.geometry.m_cols == 8
    assert manifest.geometry.n_rows == 8
    assert manifest.phase_table == (0.0, 180.0)
    for name in ("inputs.rist", "targets.rist", "samples.json",
                 "splits.json", "manifest.json"):
        assert (pipeline["dataset"] / name).exists()


def test_train_wrote_weights_history_and_run(pipeline):
    model = load_model(pipeline["weights"])
    assert model.num_parameters() == 317_645

    history = (pipeline["root"] / "net_history.csv").read_text(encoding="utf-8")
    lines = history.strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 1 + 2  # header + max-epochs rows
    assert lines[1].split(",")[0] == "1"

    run = json.loads((pipeline["root"] / "net_run.json").read_text(encoding="utf-8"))
    assert run["epochs_run"] == 2
    assert run["seed"] == 1
    assert run["batch_size"] == 4


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
    out = pipeline["root"] / "gim.rist"
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
    code = main(["optimize", *BASE, "--phase-states", "4", "--method", "cnn",
                 "--el", "0", "--az", "80", "--weights", str(pipeline["weights"]),
                 "--config-out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "--phase-states" in captured.err
    assert "steps=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("el, az, angle", [("95", "80", "elevation"), ("20", "400", "azimuth")])
def test_optimize_out_of_range_angle_is_usage_error(pipeline, capsys, el, az, angle):
    out = pipeline["root"] / "bad_angle.rist"
    code = main(["optimize", *BASE, "--method", "gim", "--el", el, "--az", az,
                 "--config-out", str(out)])
    assert code == 2
    assert f"rx {angle}" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_im_four_phase_states(pipeline, capsys):
    out = pipeline["root"] / "im4.rist"
    code = main(["optimize", *BASE, "--phase-states", "4", "--method", "im",
                 "--el", "0", "--az", "80", "--config-out", str(out)])
    assert code == 0
    assert "steps=256" in capsys.readouterr().out  # 8 * 8 * 4 trials
    assert set(np.unique(load_tensors(out)[0])) <= {0.0, 1.0, 2.0, 3.0}


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


def test_pattern_rejects_mismatched_geometry(pipeline, capsys):
    code = main(["pattern", "--ris-m", "4", "--ris-n", "4", "--freq-ghz", "10",
                 "--config", str(pipeline["config"]),
                 "--out", str(pipeline["root"] / "bad.csv")])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_pattern_phase_states_mismatch_is_usage_error(pipeline, capsys):
    config = pipeline["root"] / "im3.rist"
    assert main(["optimize", *BASE, "--phase-states", "3", "--method", "im",
                 "--el", "20", "--az", "80", "--config-out", str(config)]) == 0
    assert load_tensors(config)[0].max() == 2.0
    capsys.readouterr()
    out = pipeline["root"] / "im3.csv"
    code = main(["pattern", *BASE, "--config", str(config), "--step", "20",
                 "--out", str(out)])
    assert code == 2
    assert "--phase-states" in capsys.readouterr().err
    assert not out.exists()
    assert main(["pattern", *BASE, "--phase-states", "3", "--config", str(config),
                 "--step", "20", "--out", str(out)]) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_train_stops_on_non_finite_loss(pipeline, tmp_path, capsys):
    weights = tmp_path / "nan.rist"
    code = main(["train", *BASE, "--data", str(pipeline["dataset"]), "--lr", "1e308",
                 "--max-epochs", "2", "--weights-out", str(weights)])
    assert code == 1
    assert "epoch 1: loss is not finite" in capsys.readouterr().err
    assert not weights.exists()


def test_console_script_help_runs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    # the [project.scripts] target is the function `python -m risopt` runs
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"]["risopt"] == "risopt.cli:main"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "risopt", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "generate" in proc.stdout
    assert "pattern" in proc.stdout
