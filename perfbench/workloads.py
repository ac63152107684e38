"""The benchmark's workloads: inputs made from a seed, one timed call, its check.

Each workload class builds its inputs in ``__init__`` (the set-up) and
runs one call into risopt per ``call``.  A call is timed from call to
return; its outputs are then checked against ``oracle`` (and, for the
default seed at desk scale, against ``golden.json``), outside the timed
region.  ``call`` returns a ``Call`` record; the runner in ``run.py``
loops calls for the run length and turns the records into metrics.

``run`` is how a workload calls into risopt: ``run(span_name, fn, *args)``.
Untraced it just calls ``fn``; traced it records a span around the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from risopt import cli
from risopt.cnn import TrainConfig, make_model, save_model, train
from risopt.data import AngularGrid, generate_dataset, load_arrays, load_splits
from risopt.optimizers import gim_optimize, im_optimize, step_count
from risopt.physics import RisGeometry, RxSpec, TxSpec, compute_channels, compute_illumination

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0
DESK = oracle.Desk()
STEP_DEG = 5.0  # desk angular grid: az 0-180, el -60..60
N_AZ, N_EL = 37, 25
QUERY_POOL = 50  # distinct receiver angles a query run cycles through
DB_TOL = 1e-9  # dB; float64 summation order is the only expected difference
PATTERN_TOL = 1e-9  # of the pattern's peak magnitude
CNN_ZERO = 1e-9  # network outputs this close to 0 may take either sign


def plain(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Call:
    seconds: float  # timed call(s) into risopt
    items: int  # work units the call completed
    latencies_ms: list  # one entry per latency sample the call yields
    failures: list = field(default_factory=list)  # check messages; empty = correct


def quiet_main(argv) -> tuple:
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the request
            code = exc.code
    return code, buf.getvalue()


def cli_geometry(desk: oracle.Desk) -> list:
    return ["--ris-m", str(desk.m_cols), "--ris-n", str(desk.n_rows),
            "--freq-ghz", repr(desk.freq_hz / 1e9), "--tx-dist", repr(desk.tx_dist),
            "--rx-dist", repr(desk.rx_dist)]


def risopt_geometry(desk: oracle.Desk):
    return RisGeometry.half_wavelength(desk.m_cols, desk.n_rows, desk.freq_hz), TxSpec(desk.tx_dist)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_golden(name: str, desk: oracle.Desk, seed: int):
    """Stored outputs of the seed commit, for the default seed at desk scale."""
    if seed != GOLDEN_SEED or desk != DESK or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text())[name]


def small_dataset(desk, seed, out, n_az, n_el, ratios):
    """Desk dataset over an n_az x n_el patch of the 5-degree grid at a seeded spot."""
    rng = np.random.default_rng(seed)
    az0 = rng.uniform(0.0, 180.0 - STEP_DEG * (n_az - 1))
    el0 = rng.uniform(-60.0, 60.0 - STEP_DEG * (n_el - 1))
    grid = AngularGrid(az0, az0 + STEP_DEG * (n_az - 1), el0, el0 + STEP_DEG * (n_el - 1), STEP_DEG)
    geom, tx = risopt_geometry(desk)
    generate_dataset(geom, tx, desk.rx_dist, grid, out, split_ratios=ratios, split_seed=seed)
    return out


class Sweep:
    """generate_dataset over the desk grid, one azimuth column (25 angles) per call.

    The seed shifts the whole grid by a sub-step offset in both angles and
    picks the column order, so every seed sees new angles, same count.
    """

    item = "angle"
    dtype = "float64 search, float32 tensors"

    def __init__(self, desk, seed, work: Path):
        rng = np.random.default_rng(seed)
        az_offset, self.el_offset = rng.uniform(0.0, STEP_DEG, 2)
        self.azimuths = az_offset + STEP_DEG * np.arange(N_AZ)
        self.elevations = self.el_offset - 60.0 + STEP_DEG * np.arange(N_EL)
        self.order = rng.permutation(N_AZ)
        self.desk, self.seed, self.out = desk, seed, work / "sweep"
        self.geom, self.tx = risopt_geometry(desk)
        self.golden = load_golden("sweep", desk, seed)

    def chunk(self, column: int, run=plain) -> list:
        """Generate one azimuth column; returns the time of each progress tick."""
        az = float(self.azimuths[column])
        grid = AngularGrid(az, az, self.el_offset - 60.0, self.el_offset + 60.0, STEP_DEG)
        ticks = [perf_counter()]
        run("data.generate_dataset", generate_dataset, self.geom, self.tx, self.desk.rx_dist,
            grid, self.out, split_seed=self.seed, progress=lambda done, total: ticks.append(perf_counter()))
        ticks.append(perf_counter())
        return ticks

    def call(self, i, run=plain, check=True) -> Call:
        column = int(self.order[i % N_AZ])
        ticks = self.chunk(column, run)
        # the write after the last angle counts towards that angle
        result = Call(ticks[-1] - ticks[0], N_EL, list(1000 * np.diff(ticks[:-2] + ticks[-1:])))
        if check:
            result.failures = self.check(column)
        return result

    def check(self, column: int) -> list:
        inputs = oracle.read_tensors(self.out / "inputs.rist")
        targets = oracle.read_tensors(self.out / "targets.rist")
        rows = json.loads((self.out / "samples.json").read_text())
        az = float(self.azimuths[column])
        if len(rows) != N_EL or len(inputs) != N_EL or len(targets) != N_EL:
            return [f"sweep az={az}: {len(rows)} samples, expected {N_EL}"]
        failures = []
        for j, row in enumerate(rows):
            el = float(self.elevations[j])
            if abs(row["azimuth_deg"] - az) > 1e-9 or abs(row["elevation_deg"] - el) > 1e-9:
                failures.append(f"sweep az={az}: sample {j} is at the wrong angle")
                continue
            hg = self.desk.cascade(el, az)
            states, _, _ = oracle.greedy_elements(hg)
            h, _ = oracle.greedy_stripes(hg, "horizontal")
            v, _ = oracle.greedy_stripes(hg, "vertical")
            if not np.array_equal(targets[j], 1 - 2 * states):
                failures.append(f"sweep el={el} az={az}: IM states differ from the oracle")
            if not np.array_equal(inputs[j], oracle.stripe_image(h, v)):
                failures.append(f"sweep el={el} az={az}: G-IM stripes differ from the oracle")
        if self.golden is not None:
            got = [sha256(self.out / "inputs.rist"), sha256(self.out / "targets.rist")]
            if got != self.golden[str(column)]:
                failures.append(f"sweep az column {column}: tensor bytes differ from golden.json")
        return failures

    def final_check(self) -> list:
        """Step counts of one direct search against optimizers.step_count and the oracle."""
        el, az = float(self.elevations[3]), float(self.azimuths[self.order[0]])
        illum = compute_illumination(self.geom, self.tx)
        ch = compute_channels(self.geom, illum, RxSpec(self.desk.rx_dist, el, az))
        cfg, im_trace = im_optimize(ch)
        _, h_trace = gim_optimize(ch, orientation="horizontal")
        _, v_trace = gim_optimize(ch, orientation="vertical")
        hg = self.desk.cascade(el, az)
        states, im_steps, _ = oracle.greedy_elements(hg)
        gim_steps = oracle.greedy_stripes(hg, "horizontal")[1] + oracle.greedy_stripes(hg, "vertical")[1]
        m, n = self.desk.m_cols, self.desk.n_rows
        failures = []
        if not im_trace.steps == im_steps == step_count("IM", m, n, 2):
            failures.append(f"IM steps {im_trace.steps}, oracle {im_steps}, "
                            f"step_count {step_count('IM', m, n, 2)}")
        if not h_trace.steps + v_trace.steps == gim_steps == step_count("GIM", m, n, 2):
            failures.append(f"G-IM steps {h_trace.steps + v_trace.steps}, oracle {gim_steps}, "
                            f"step_count {step_count('GIM', m, n, 2)}")
        if not np.array_equal(cfg.states, states):
            failures.append("direct IM states differ from the oracle")
        return failures


class Fit:
    """cnn.train, one epoch per call, on a seeded 4-angle desk dataset.

    float32 model from make_model(seed), batch 2, lr 1e-3, 3 training
    samples and 1 validation sample.  Each call continues from the
    previous weights.
    """

    item = "training sample"
    dtype = "float32"

    def __init__(self, desk, seed, work: Path):
        data = small_dataset(desk, seed, work / "fit", 2, 2, (0.75, 0.25, 0.0))
        inputs, targets = load_arrays(data)
        splits = load_splits(data)
        self.train_set = (inputs[splits["train"]], targets[splits["train"]])
        self.val_set = (inputs[splits["val"]], targets[splits["val"]])
        self.model = make_model(seed, dtype=np.float32)
        self.cfg = TrainConfig(batch_size=2, max_epochs=1, patience=1, rng_seed=seed, lr=1e-3)

    def call(self, i, run=plain, check=True) -> Call:
        t0 = perf_counter()
        self.model, history = run("cnn.train", train, self.model, self.train_set, self.val_set, self.cfg)
        seconds = perf_counter() - t0
        result = Call(seconds, len(self.train_set[0]), [1000 * seconds])
        if check and not (len(history) == 1 and all(map(math.isfinite, history[0][1:]))):
            result.failures.append(f"fit call {i}: history {history!r} is not one finite epoch")
        return result


def parse_csv(text: str) -> tuple:
    lines = text.strip().split("\n")
    return lines[0].split(","), np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class Score:
    """`risopt eval` on the 3-sample test split of a seeded 6-angle desk dataset.

    The weights are save_model(make_model(seed)), written at set-up, so
    set-up does not depend on training.
    """

    item = "scored sample"
    dtype = "float64 (float32 weights upcast on load)"
    columns = ["azimuth_deg", "elevation_deg", "p_im_db", "p_gim_db", "p_cnn_db",
               "gap_gim_db", "gap_cnn_db"]

    def __init__(self, desk, seed, work: Path):
        self.data = small_dataset(desk, seed, work / "score", 3, 2, (0.5, 0.0, 0.5))
        self.weights = work / "score.rist"
        save_model(self.weights, make_model(seed))
        self.report = work / "report.csv"
        self.argv = ["eval", "--data", str(self.data), "--weights", str(self.weights),
                     "--report-out", str(self.report)] + cli_geometry(desk)
        self.n_test = len(load_splits(self.data)["test"])
        self.desk, self.expected = desk, None
        self.golden = load_golden("score", desk, seed)

    def call(self, i, run=plain, check=True) -> Call:
        t0 = perf_counter()
        code, _ = run("cli.main.eval", quiet_main, self.argv)
        seconds = perf_counter() - t0
        result = Call(seconds, self.n_test, [1000 * seconds])
        if check:
            result.failures = [f"eval exit code {code}"] if code else self.check()
        return result

    def reference(self) -> np.ndarray:
        """Oracle rows for the test split, decoded from the stored dataset."""
        inputs = oracle.read_tensors(self.data / "inputs.rist")
        targets = oracle.read_tensors(self.data / "targets.rist")
        samples = json.loads((self.data / "samples.json").read_text())
        params = oracle.read_weights(self.weights)
        rows = []
        for idx in json.loads((self.data / "splits.json").read_text())["test"]:
            az, el = samples[idx]["azimuth_deg"], samples[idx]["elevation_deg"]
            hg = self.desk.cascade(el, az)
            h = (inputs[idx][:, 0, 0] < 0).astype(np.int64)
            v = (inputs[idx][0, :, 1] < 0).astype(np.int64)
            out = oracle.cnn_forward(params, oracle.stripe_image(h, v))
            p_im = self.desk.power_db(hg, (targets[idx] < 0).astype(np.int64))
            p_gim = self.desk.power_db(hg, oracle.combine(h, v))
            p_cnn = self.desk.power_db(hg, (out < 0).astype(np.int64))
            rows.append([az, el, p_im, p_gim, p_cnn, p_im - p_gim, p_im - p_cnn])
        return np.array(rows)

    def check(self) -> list:
        if self.expected is None:
            self.expected = self.reference()
        header, got = parse_csv(self.report.read_text())
        if header != self.columns or got.shape != self.expected.shape:
            return [f"eval report has header {header} and shape {got.shape}"]
        failures = []
        if np.abs(got - self.expected).max() > DB_TOL:
            failures.append(f"eval report differs from the oracle by {np.abs(got - self.expected).max():.3g}")
        if self.golden is not None:
            golden = np.array(self.golden)
            if not np.array_equal(got[:, 2:4], golden[:, 2:4]):
                failures.append("eval p_im_db / p_gim_db differ from golden.json")
            if np.abs(got[:, 4] - golden[:, 4]).max() > DB_TOL:
                failures.append("eval p_cnn_db differs from golden.json")
        return failures


class Query:
    """Closed loop, one client: one `risopt optimize` or `pattern` request per call.

    Receiver angles cycle through a seeded pool drawn from the desk ranges
    (el -60..60, az 0..180).  A `pattern` request (2-degree grid) reads the
    config that an untimed `optimize --method gim` request wrote just before.
    """

    item = "request"
    dtype = "float64"

    def __init__(self, desk, seed, work: Path, method: str):
        rng = np.random.default_rng(seed)
        self.angles = np.column_stack([rng.uniform(-60.0, 60.0, QUERY_POOL),
                                       rng.uniform(0.0, 180.0, QUERY_POOL)])
        self.method, self.desk = method, desk
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "config.rist"
        self.pattern_csv = work / "pattern.csv"
        self.args = cli_geometry(desk)
        if method == "cnn":
            self.dtype = "float64 (float32 weights upcast on load)"
            self.weights = work / "query.rist"
            save_model(self.weights, make_model(seed))
            self.args += ["--weights", str(self.weights)]
        self.expected = {}

    def optimize(self, method, el, az, run):
        argv = ["optimize", "--method", method, "--el", repr(el), "--az", repr(az),
                "--config-out", str(self.config)] + self.args
        t0 = perf_counter()
        code, out = run("cli.main.optimize", quiet_main, argv)
        return perf_counter() - t0, code, out

    def call(self, i, run=plain, check=True) -> Call:
        k = i % QUERY_POOL
        el, az = (float(a) for a in self.angles[k])
        method = "gim" if self.method == "pattern" else self.method
        seconds, code, out = self.optimize(method, el, az, run)
        failures = [f"optimize exit code {code}"] if code else []
        if check and not code:
            failures += self.check_config(k, method, out)
        if self.method == "pattern":
            argv = ["pattern", "--config", str(self.config), "--step", "2",
                    "--out", str(self.pattern_csv)] + self.args
            t0 = perf_counter()
            code, _ = run("cli.main.pattern", quiet_main, argv)
            seconds = perf_counter() - t0
            if code:
                failures.append(f"pattern exit code {code}")
            elif check and not failures:
                failures += self.check_pattern(k)
        return Call(seconds, 1, [1000 * seconds], failures)

    def reference(self, k, method):
        if (k, method) not in self.expected:
            el, az = (float(a) for a in self.angles[k])
            hg = self.desk.cascade(el, az)
            h, h_steps = oracle.greedy_stripes(hg, "horizontal")
            v, v_steps = oracle.greedy_stripes(hg, "vertical")
            maybe = np.zeros(hg.shape, dtype=bool)
            if method == "im":
                states, steps, _ = oracle.greedy_elements(hg)
            elif method == "gim":
                states, steps = oracle.combine(h, v), h_steps + v_steps
            else:
                out = oracle.cnn_forward(oracle.read_weights(self.weights), oracle.stripe_image(h, v))
                states, steps = (out < 0).astype(np.int64), h_steps + v_steps
                maybe = np.abs(out) < CNN_ZERO
            self.expected[k, method] = (states, steps, self.desk.power_db(hg, states), maybe)
        return self.expected[k, method]

    def check_config(self, k, method, out) -> list:
        states, steps, power, maybe = self.reference(k, method)
        m, n = self.desk.m_cols, self.desk.n_rows
        planned = step_count("IM" if method == "im" else "GIM", m, n, 2)
        reported = re.search(r"^steps=(\d+)$", out, re.M)
        objective = re.search(r"^objective_db=(?:np\.float64\()?([-+0-9.eE]+)", out, re.M)
        records = oracle.read_tensors(self.config)
        failures = []
        if reported is None or not int(reported.group(1)) == steps == planned:
            failures.append(f"{method} request {k}: steps {reported and reported.group(1)}, "
                            f"oracle {steps}, step_count {planned}")
        if len(records) != 1 or records[0].shape != states.shape:
            return failures + [f"{method} request {k}: config file is not one {states.shape} record"]
        wrong = (records[0].astype(np.int64) != states) & ~maybe
        if wrong.any():
            failures.append(f"{method} request {k}: {int(wrong.sum())} config states differ from the oracle")
        elif objective is None or abs(float(objective.group(1)) - power) > DB_TOL:
            failures.append(f"{method} request {k}: objective_db {objective and objective.group(1)}, oracle {power}")
        return failures

    def check_pattern(self, k) -> list:
        grid = AngularGrid(step_deg=2.0)
        els, azs = grid.elevation_values(), grid.azimuth_values()
        if ("pattern", k) not in self.expected:
            states = self.reference(k, "gim")[0]
            self.expected["pattern", k] = self.desk.pattern(states, els, azs)
        magnitude = self.expected["pattern", k]
        header, got = parse_csv(self.pattern_csv.read_text())
        if header != ["elevation_deg", "azimuth_deg", "power_db"] or got.shape != (magnitude.size, 3):
            return [f"pattern request {k}: header {header}, shape {got.shape}"]
        coords = np.column_stack([np.repeat(els, len(azs)), np.tile(azs, len(els))])
        error = np.abs(10 ** (got[:, 2] / 20) - magnitude.ravel()).max() / magnitude.max()
        if np.abs(got[:, :2] - coords).max() > 1e-9 or error > PATTERN_TOL:
            return [f"pattern request {k}: off the oracle by {error:.3g} of the peak"]
        return []


def pipeline_probe(desk, seed, work, run) -> None:
    """One pass through every layer at desk geometry, so each per-layer metric
    has a value on every workload: generate 4 angles, train one epoch,
    `risopt eval`, `optimize` with each method, and `pattern`."""
    geom, tx = risopt_geometry(desk)
    data = work / "probe"
    run("data.generate_dataset", generate_dataset, geom, tx, desk.rx_dist,
        AngularGrid(30.0, 35.0, 10.0, 15.0, 5.0), data, split_ratios=(0.5, 0.25, 0.25),
        split_seed=seed)
    inputs, targets = load_arrays(data)
    splits = load_splits(data)
    run("cnn.train", train, make_model(seed, dtype=np.float32),
        (inputs[splits["train"]], targets[splits["train"]]),
        (inputs[splits["val"]], targets[splits["val"]]),
        TrainConfig(batch_size=2, max_epochs=1, rng_seed=seed))
    weights = ["--weights", str(work / "probe.rist")]
    save_model(weights[1], make_model(seed))
    geometry = cli_geometry(desk)
    config = str(work / "probe_config.rist")
    run("cli.main.eval", quiet_main, ["eval", "--data", str(data), "--report-out",
                                      str(work / "probe.csv")] + weights + geometry)
    for method in ("im", "gim", "cnn"):
        run("cli.main.optimize", quiet_main, ["optimize", "--method", method, "--el", "20", "--az",
                                              "40", "--config-out", config] + weights + geometry)
    run("cli.main.pattern", quiet_main, ["pattern", "--config", config, "--step", "2",
                                         "--out", str(work / "probe_pattern.csv")] + geometry)


WORKLOADS = {
    "sweep": Sweep,
    "fit": Fit,
    "score": Score,
    "query-im": lambda desk, seed, work: Query(desk, seed, work, "im"),
    "query-gim": lambda desk, seed, work: Query(desk, seed, work, "gim"),
    "query-cnn": lambda desk, seed, work: Query(desk, seed, work, "cnn"),
    "query-pattern": lambda desk, seed, work: Query(desk, seed, work, "pattern"),
}
