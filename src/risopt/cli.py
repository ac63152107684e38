"""Command-line pipeline harness.

Subcommands: generate (dataset sweep), train (network fit), eval
(power-gap report), optimize (single receiver position), pattern
(radiation-pattern CSV export).  Exit codes: 0 success, 2 usage error,
1 runtime error.  All outputs are deterministic for fixed flags and
--seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from risopt import cnn
from risopt.cnn import (
    TrainConfig,
    load_model,
    make_model,
    predict_config,
    save_model,
    stripe_image,
    train,
)
from risopt.data import (
    DEFAULT_SPLIT,
    MAX_DATASET_BYTES,
    MAX_ELEMENTS,
    SPLIT_NAMES,
    AngularGrid,
    _write_json,
    check_split_ratios,
    generate_dataset,
    load_arrays,
    load_manifest,
    load_splits,
)
from risopt.evaluate import evaluate_split
from risopt.optimizers import combine_stripes, gim_optimize, im_optimize
from risopt.physics import (
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    _check_angles,
    compute_channels,
    compute_illumination,
    objective,
    power_db,
    radiation_pattern,
)
from risopt.tensorfile import load_tensors, save_tensors


def _floats(n: int):
    """argparse type: exactly ``n`` comma-separated floats, as a tuple."""
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != n:
            raise argparse.ArgumentTypeError(f"expected {n} comma-separated numbers, got {text!r}")
        try:
            return tuple(float(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _number(kind=float, low=None, strict: bool = False):
    """argparse type: a ``kind`` (float or int) number, finite, and > ``low``
    if ``strict``, else >= ``low``, when ``low`` is given."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            message = f"expected an integer, got {text!r}" if kind is int else str(exc)
            raise argparse.ArgumentTypeError(message) from None
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if low is not None and (value <= low if strict else value < low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}")
        return value
    return parse


def _frequency_ghz(text: str) -> float:
    value = _number(low=0, strict=True)(text)
    if not math.isfinite(value * 1e9):
        raise argparse.ArgumentTypeError(f"must be finite in Hz, got {text!r} GHz")
    return value


def _checked(parse, rule):
    """argparse type: ``parse`` the text, then apply the library's ``rule`` to
    the value; the rule's ``ValueError`` becomes the flag's error."""
    def check(text: str):
        value = parse(text)
        try:
            rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return check


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The risopt argument parser, built once per process.

    Every ``main`` call shares it: parsing only reads the parser and its
    immutable defaults, and returns a fresh namespace each time.
    """
    positive = _number(low=0, strict=True)
    surface_flags = [  # (flag, argparse type or None for a switch, default, help)
        ("--ris-m", _number(int, 1), 40, "elements per row, the column count (default 40)"),
        ("--ris-n", _number(int, 1), 40, "elements per column, the row count (default 40)"),
        ("--freq-ghz", _frequency_ghz, 5.0, "carrier frequency in GHz (default 5)"),
        ("--spacing", positive, None, "element spacing in meters (default: half wavelength)"),
        ("--tx-dist", positive, 1.0, "boresight transmitter distance in meters (default 1)"),
        ("--rx-dist", positive, 10.0, "receiver distance in meters (default 10)"),
        ("--flat-tx-phase", None, False, "drop the per-element near-field transmit phase"),
    ]

    def shared_parser(from_dataset: bool) -> argparse.ArgumentParser:
        # train and eval take the surface from the dataset: there a flag
        # defaults to None (not given) and is only checked against it
        shared = argparse.ArgumentParser(add_help=False)
        for flag, kind, default, text in surface_flags:
            if from_dataset:
                default, text = None, "optional; must match the dataset"
            if kind is None:
                shared.add_argument(flag, action="store_true", default=default, help=text)
            else:
                shared.add_argument(flag, type=kind, default=default, help=text)
        return shared

    shared, from_dataset = shared_parser(False), shared_parser(True)
    # generate and train make random choices; eval only with --snr-db, and
    # optimize and pattern make none
    seed = _number(int, 0)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=seed, default=0,
                        help="seed for every random choice (default 0)")

    parser = argparse.ArgumentParser(
        prog="risopt",
        description="Binary-phase RIS simulation, greedy search, and "
                    "CNN-assisted configuration prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = AngularGrid()
    az, el = (grid.azimuth_start, grid.azimuth_stop), (grid.elevation_start, grid.elevation_stop)
    p = sub.add_parser("generate", parents=[shared, seeded],
                       help="sweep receiver angles and write a dataset directory")
    p.add_argument("--grid-az", type=_floats(2), default=az, metavar="A,B",
                   help="azimuth range in degrees (default %g,%g)" % az)
    p.add_argument("--grid-el", type=_floats(2), default=el, metavar="A,B",
                   help="elevation range in degrees (default %g,%g)" % el)
    p.add_argument("--grid-step", type=positive, default=grid.step_deg,
                   help="grid step in degrees (default %(default)g)")
    p.add_argument("--split", type=_checked(_floats(3), check_split_ratios),
                   default=DEFAULT_SPLIT, metavar="TR,VA,TE",
                   help="split ratios, >= 0 and summing to 1 (default %g,%g,%g)" % DEFAULT_SPLIT)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[from_dataset, seeded],
                       help="train the prediction network on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    fit = TrainConfig()
    p.add_argument("--lr", type=_number(low=0), default=fit.lr,
                   help="ADAM learning rate, finite and >= 0 (default %(default)g)")
    p.add_argument("--batch", type=_number(int, 1), default=fit.batch_size,
                   help="samples per ADAM step (default %(default)s)")
    p.add_argument("--max-epochs", type=_number(int, 1), default=fit.max_epochs,
                   help="most epochs to run (default %(default)s)")
    p.add_argument("--patience", type=_number(int, 1), default=fit.patience,
                   help="epochs with no new best val loss before stopping (default %(default)s)")
    p.add_argument("--weights-out", required=True, help="weights file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[from_dataset],
                       help="score IM vs G-IM vs CNN-G-IM on a dataset split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--report-out", required=True, help="report CSV to write")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    # from -6000 dB on, the noise scale 10**(-snr/20) is at most 1e300, not an overflow
    p.add_argument("--snr-db", type=_number(low=-6000), default=None,
                   help="demo mode: score with seeded noisy link at this SNR")
    p.add_argument("--seed", type=seed, default=None,
                   help="seed of the --snr-db noisy link (default 0)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("optimize", parents=[shared],
                       help="optimize one receiver position and save the config")
    p.add_argument("--method", required=True, choices=("im", "gim", "cnn"))
    p.add_argument("--el", type=_checked(_number(), lambda el: _check_angles("rx", el)),
                   required=True, help="receiver elevation in degrees, in [-90, 90]")
    p.add_argument("--az", type=_checked(_number(), lambda az: _check_angles("rx", 0.0, az)),
                   required=True, help="receiver azimuth in degrees, in [0, 360)")
    p.add_argument("--weights", help="weights file (cnn method only)")
    p.add_argument("--config-out", default=None,
                   help="config tensor file (default config_METHOD.rist)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("pattern", parents=[shared],
                       help="export the radiation pattern of a saved config")
    p.add_argument("--config", required=True,
                   help="config tensor file of 0/1 element states")
    p.add_argument("--step", type=positive, default=1.0, help="grid step in degrees")
    p.add_argument("--out", required=True, help="pattern CSV to write")
    p.set_defaults(func=cmd_pattern)
    return parser


class _UsageError(Exception):
    """A flag combination only a subcommand can check: exit 2."""


def _surface(args) -> tuple:
    """Geometry, transmitter and Tx-side coefficients ``h`` the shared flags
    describe; a surface of more than ``MAX_ELEMENTS`` elements, or whose
    illumination or Rx path loss overflows, is a usage error."""
    if args.ris_m * args.ris_n > MAX_ELEMENTS:
        raise _UsageError(f"--ris-m {args.ris_m} x --ris-n {args.ris_n} is more than the "
                          f"{MAX_ELEMENTS} elements a surface may hold")
    freq = args.freq_ghz * 1e9
    if args.spacing is None:
        geom = RisGeometry.half_wavelength(args.ris_m, args.ris_n, freq)
    else:
        geom = RisGeometry(args.ris_m, args.ris_n, args.spacing, args.spacing, freq)
    tx = TxSpec(args.tx_dist)
    try:
        h = compute_illumination(geom, tx, flat_tx_phase=args.flat_tx_phase)
    except ValueError as exc:
        raise _UsageError(f"{exc}; check --freq-ghz, --spacing and --tx-dist") from None
    if not math.isfinite(geom.wavelength / (4 * math.pi * args.rx_dist)):
        raise _UsageError("the receiver path loss is not finite; check --rx-dist and --freq-ghz")
    return geom, tx, h


def _check_dataset_flags(args) -> None:
    """train and eval take the surface from the dataset's manifest: a
    surface flag given with a different value is a usage error."""
    manifest = load_manifest(args.data)
    geom = manifest.geometry
    freq_hz = None if args.freq_ghz is None else args.freq_ghz * 1e9
    spacing = None if args.spacing is None else (args.spacing, args.spacing)
    for flag, given, stored, shown in [
        ("--ris-m", args.ris_m, geom.m_cols, geom.m_cols),
        ("--ris-n", args.ris_n, geom.n_rows, geom.n_rows),
        ("--freq-ghz", freq_hz, geom.carrier_freq, geom.carrier_freq / 1e9),
        ("--spacing", spacing, (geom.dx, geom.dy),
         geom.dx if geom.dx == geom.dy else (geom.dx, geom.dy)),
        ("--tx-dist", args.tx_dist, manifest.tx.distance, manifest.tx.distance),
        ("--rx-dist", args.rx_dist, manifest.rx_distance_m, manifest.rx_distance_m),
        ("--flat-tx-phase", args.flat_tx_phase, manifest.flat_tx_phase, manifest.flat_tx_phase),
    ]:
        if given is not None and given != stored:
            raise _UsageError(f"{flag} does not match the dataset {args.data}, "
                              f"whose manifest has {shown!r}")


def _check_writable(directory: Path, text: str, flag: str) -> None:
    if not os.access(directory, os.W_OK | os.X_OK):
        raise _UsageError(f"{flag} {text}: directory {directory} is not writable")


def _output(text: str, flag: str) -> Path:
    """``text`` as a Path, once its parent directory exists; a path whose
    parent cannot be made or written is a usage error that names ``flag``."""
    path = Path(text)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"{flag} {text}: {exc}") from None
    _check_writable(path.parent, text, flag)
    return path


def _stderr(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def cmd_generate(args) -> int:
    kernel = max(cnn.DEFAULT_KERNELS)
    if min(args.ris_m, args.ris_n) < kernel:
        raise _UsageError(f"--ris-m {args.ris_m} x --ris-n {args.ris_n} is smaller than the "
                          f"network's largest kernel ({kernel}); give both at least {kernel}")
    geom, tx, _ = _surface(args)
    try:
        grid = AngularGrid(args.grid_az[0], args.grid_az[1],
                           args.grid_el[0], args.grid_el[1], args.grid_step)
    except ValueError as exc:
        raise _UsageError(f"{exc}; check --grid-az, --grid-el and --grid-step") from None
    if grid.num_points * args.ris_m * args.ris_n * 12 > MAX_DATASET_BYTES:
        raise _UsageError(f"{grid.num_points} samples of --ris-m {args.ris_m} x --ris-n "
                          f"{args.ris_n} elements need more than the {MAX_DATASET_BYTES} B of "
                          "records a dataset may hold (12 B per element and sample); check "
                          "--ris-m, --ris-n, --grid-az, --grid-el and --grid-step")
    # the directory is made only after the sweep, so check what is in its way
    found = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
    if not found.is_dir():
        raise _UsageError(f"--out {args.out}: {found} is not a directory")
    _check_writable(found, args.out, "--out")

    def progress(done, total):
        if done == total or done % max(1, total // 20) == 0:
            _stderr(f"generated {done}/{total} samples")

    manifest = generate_dataset(
        geom, tx, args.rx_dist, grid, args.out, split_ratios=args.split,
        split_seed=args.seed, flat_tx_phase=args.flat_tx_phase, progress=progress)
    counts = manifest.counts
    print(f"samples={manifest.grid.num_points} train={counts['train']} "
          f"val={counts['val']} test={counts['test']}")
    print(f"manifest={Path(args.out) / 'manifest.json'}")
    return 0


def cmd_train(args) -> int:
    _check_dataset_flags(args)
    weights_out = _output(args.weights_out, "--weights-out")
    cfg = TrainConfig(batch_size=args.batch, max_epochs=args.max_epochs,
                      patience=args.patience, rng_seed=args.seed, lr=args.lr)
    splits = load_splits(args.data)
    inputs, targets = load_arrays(args.data)
    model = make_model(args.seed)
    # each row is appended as its epoch ends, so a run that fails keeps the
    # epochs it finished
    history_path = weights_out.parent / (weights_out.stem + "_history.csv")
    history_path.write_text("epoch,train_loss,val_loss\n", encoding="utf-8")

    def progress(epoch, train_loss, val_loss):
        with history_path.open("a", encoding="utf-8") as f:
            f.write(f"{epoch},{train_loss!r},{val_loss!r}\n")
        _stderr(f"epoch {epoch}/{cfg.max_epochs} train_loss={train_loss:.6g} "
                f"val_loss={val_loss:.6g}")

    t0 = time.perf_counter()
    trained, history = train(
        model,
        (inputs[splits["train"]], targets[splits["train"]]),
        (inputs[splits["val"]], targets[splits["val"]]),
        cfg, progress)
    train_seconds = time.perf_counter() - t0

    save_model(weights_out, trained)
    _write_json(weights_out.parent / (weights_out.stem + "_run.json"), {
        "data": str(args.data),
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "max_epochs": cfg.max_epochs,
        "patience": cfg.patience,
        "seed": cfg.rng_seed,
        "epochs_run": len(history),
        "final_train_loss": history[-1][1],
        "final_val_loss": history[-1][2],
        "train_seconds": train_seconds,
        "samples_per_s": len(history) * len(splits["train"]) / train_seconds,
        "numpy": np.__version__,
        "blas_threads": cnn.BLAS_THREADS,
        "conv_threads": cnn.CONV_THREADS,
    })
    print(f"epochs={len(history)} final_val_loss={history[-1][2]!r}")
    print(f"weights={weights_out}")
    print(f"history={history_path}")
    return 0


def cmd_eval(args) -> int:
    if args.seed is not None and args.snr_db is None:
        raise _UsageError("--seed seeds only the noisy link of --snr-db; give --snr-db too")
    _check_dataset_flags(args)
    report_out = _output(args.report_out, "--report-out")
    model = load_model(args.weights)
    report = evaluate_split(args.data, model, args.split,
                            noise_snr_db=args.snr_db, noise_seed=args.seed or 0)
    report.to_csv(report_out)
    _write_json(report_out.parent / (report_out.stem + "_summary.json"), report.summary)
    for method in ("gim", "cnn"):
        s = report.summary[method]
        band = s["band45_mean_gap_db"]
        print(f"{method}: max_gap_db={s['max_gap_db']:.3f} "
              f"mean_gap_db={s['mean_gap_db']:.3f} "
              f"median_gap_db={s['median_gap_db']:.3f} "
              f"band45_mean_gap_db={'none' if band is None else format(band, '.3f')}")
    print(f"report={report_out}")
    return 0


def cmd_optimize(args) -> int:
    if args.method == "cnn" and not args.weights:
        raise _UsageError("--method cnn requires --weights")
    geom, _, h = _surface(args)
    out = _output(args.config_out or f"config_{args.method}.rist", "--config-out")
    ch = compute_channels(geom, h, RxSpec(args.rx_dist, args.el, args.az))

    if args.method == "im":
        cfg, trace = im_optimize(ch)
        steps = trace.steps
    else:
        h_states, tr_h = gim_optimize(ch, "horizontal")
        v_states, tr_v = gim_optimize(ch, "vertical")
        steps = tr_h.steps + tr_v.steps
        if args.method == "gim":
            cfg = combine_stripes(h_states, v_states)
        else:
            # network inference adds no configure-and-measure steps
            image = stripe_image(h_states, v_states)
            cfg = predict_config(load_model(args.weights), image)

    save_tensors(out, [cfg.states.astype(np.float32)])
    print(f"steps={steps}")
    print(f"objective_db={power_db(objective(ch, cfg))!r}")
    print(f"config={out}")
    return 0


def pattern_csv(pat) -> str:
    """CSV text of a pattern: one ``elevation_deg,azimuth_deg,power_db`` row per
    grid point, elevation-major, every value written with ``repr``."""
    azimuths = [f",{az!r}," for az in pat.azimuths.tolist()]
    lines = ["elevation_deg,azimuth_deg,power_db"]
    for el, row in zip(pat.elevations.tolist(), pat.power_db.tolist()):
        el_text = repr(el)
        lines += [el_text + az + repr(p) for az, p in zip(azimuths, row)]
    return "\n".join(lines) + "\n"


def cmd_pattern(args) -> int:
    geom, _, h = _surface(args)
    try:
        grid = AngularGrid(step_deg=args.step)
    except ValueError as exc:
        raise _UsageError(f"{exc}; check --step") from None
    out = _output(args.out, "--out")
    records = load_tensors(args.config)
    if len(records) != 1 or records[0].shape != (geom.n_rows, geom.m_cols):
        raise ValueError(f"{args.config} does not match the geometry: expected a single "
                         f"({geom.n_rows}, {geom.m_cols}) config record")
    try:
        cfg = PhaseConfig(records[0])
    except ValueError:
        raise ValueError(f"{args.config} holds values that are not phase state "
                         "indices: each element is 0 (0 degrees) or 1 (180 degrees)") from None

    pat = radiation_pattern(geom, h, cfg,
                            grid.elevation_values(), grid.azimuth_values())
    out.write_text(pattern_csv(pat), encoding="utf-8")
    print(f"rows={pat.power_db.size}")
    print(f"pattern={out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
