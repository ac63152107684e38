"""Command-line pipeline harness.

Subcommands: generate (dataset sweep), train (network fit), eval
(power-gap report), optimize (single receiver position), pattern
(radiation-pattern CSV export).  Exit codes: 0 success, 2 usage error,
1 runtime error.  All outputs are deterministic for fixed flags and
--seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from risopt.cnn import (
    TrainConfig,
    load_model,
    make_model,
    predict_config,
    save_model,
    train,
)
from risopt.data import (
    AngularGrid,
    generate_dataset,
    load_arrays,
    load_splits,
)
from risopt.evaluate import evaluate_split, power_db
from risopt.optimizers import combine_stripes, gim_optimize, im_optimize
from risopt.physics import (
    PhaseConfig,
    RisGeometry,
    RxSpec,
    TxSpec,
    compute_channels,
    compute_illumination,
    objective,
    radiation_pattern,
)
from risopt.tensorfile import TensorFormatError, load_tensors, save_tensors


def _pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--ris-m", type=int, default=40,
                        help="elements per row, the column count (default 40)")
    shared.add_argument("--ris-n", type=int, default=40,
                        help="elements per column, the row count (default 40)")
    shared.add_argument("--freq-ghz", type=float, default=5.0,
                        help="carrier frequency in GHz (default 5)")
    shared.add_argument("--spacing", type=float, default=None,
                        help="element spacing in meters (default: half wavelength)")
    shared.add_argument("--tx-dist", type=float, default=1.0,
                        help="boresight transmitter distance in meters (default 1)")
    shared.add_argument("--rx-dist", type=float, default=10.0,
                        help="receiver distance in meters (default 10)")
    shared.add_argument("--phase-states", type=int, default=2,
                        help="number of evenly spaced reflection phases (default 2)")
    shared.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    shared.add_argument("--flat-tx-phase", action="store_true",
                        help="drop the per-element near-field transmit phase")

    parser = argparse.ArgumentParser(
        prog="risopt",
        description="Binary-phase RIS simulation, greedy search, and "
                    "CNN-assisted configuration prediction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[shared],
                       help="sweep receiver angles and write a dataset directory")
    p.add_argument("--grid-az", type=_pair, default=(0.0, 180.0),
                   metavar="A,B", help="azimuth range in degrees (default 0,180)")
    p.add_argument("--grid-el", type=_pair, default=(-60.0, 60.0),
                   metavar="A,B", help="elevation range in degrees (default -60,60)")
    p.add_argument("--grid-step", type=float, default=1.0,
                   help="grid step in degrees (default 1)")
    p.add_argument("--split", type=_triple, default=(0.6, 0.2, 0.2),
                   metavar="TR,VA,TE", help="split ratios (default 0.6,0.2,0.2)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[shared],
                       help="train the prediction network on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--weights-out", required=True, help="weights file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[shared],
                       help="score IM vs G-IM vs CNN-G-IM on a dataset split")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--weights", required=True, help="trained weights file")
    p.add_argument("--report-out", required=True, help="report CSV to write")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--snr-db", type=float, default=None,
                   help="demo mode: score with seeded noisy link at this SNR")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("optimize", parents=[shared],
                       help="optimize one receiver position and save the config")
    p.add_argument("--method", required=True, choices=("im", "gim", "cnn"))
    p.add_argument("--el", type=float, required=True, help="receiver elevation deg")
    p.add_argument("--az", type=float, required=True, help="receiver azimuth deg")
    p.add_argument("--weights", help="weights file (cnn method only)")
    p.add_argument("--config-out", default=None,
                   help="config tensor file (default config_METHOD.rist)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("pattern", parents=[shared],
                       help="export the radiation pattern of a saved config")
    p.add_argument("--config", required=True, help="config tensor file")
    p.add_argument("--step", type=float, default=1.0, help="grid step in degrees")
    p.add_argument("--out", required=True, help="pattern CSV to write")
    p.set_defaults(func=cmd_pattern)
    return parser


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _geometry(args) -> RisGeometry:
    freq = args.freq_ghz * 1e9
    if args.spacing is None:
        return RisGeometry.half_wavelength(args.ris_m, args.ris_n, freq)
    return RisGeometry(args.ris_m, args.ris_n, args.spacing, args.spacing, freq)


_BINARY_ONLY = "--phase-states must be 2: the +1/-1 network encoding is binary-only"


def _phase_table(args) -> tuple:
    if args.phase_states < 1:
        raise ValueError("--phase-states must be >= 1")
    return tuple(360.0 * k / args.phase_states for k in range(args.phase_states))


def cmd_generate(args) -> int:
    try:
        geom = _geometry(args)
        table = _phase_table(args)
        if len(table) != 2:
            raise ValueError(_BINARY_ONLY)
        tx = TxSpec(args.tx_dist)
        grid = AngularGrid(args.grid_az[0], args.grid_az[1],
                           args.grid_el[0], args.grid_el[1], args.grid_step)
        ratios = args.split
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"--split ratios must sum to 1, got {sum(ratios)}")
    except ValueError as exc:
        return _usage(str(exc))

    manifest = generate_dataset(
        geom, tx, args.rx_dist, grid, args.out,
        phase_table=table, split_ratios=ratios, split_seed=args.seed,
        flat_tx_phase=args.flat_tx_phase)
    counts = manifest.counts
    print(f"samples={counts['total']} train={counts['train']} "
          f"val={counts['val']} test={counts['test']}")
    print(f"manifest={Path(args.out) / 'manifest.json'}")
    return 0


def _history_paths(weights_out: Path):
    history = weights_out.parent / (weights_out.stem + "_history.csv")
    run = weights_out.parent / (weights_out.stem + "_run.json")
    return history, run


def cmd_train(args) -> int:
    try:
        cfg = TrainConfig(batch_size=args.batch, max_epochs=args.max_epochs,
                          patience=args.patience, rng_seed=args.seed, lr=args.lr)
    except ValueError as exc:
        return _usage(str(exc))

    inputs, targets = load_arrays(args.data)
    splits = load_splits(args.data)
    model = make_model(args.seed)
    trained, history = train(
        model,
        (inputs[splits["train"]], targets[splits["train"]]),
        (inputs[splits["val"]], targets[splits["val"]]),
        cfg)

    weights_out = Path(args.weights_out)
    weights_out.parent.mkdir(parents=True, exist_ok=True)
    save_model(weights_out, trained)
    history_path, run_path = _history_paths(weights_out)
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{e},{tl!r},{vl!r}" for e, tl, vl in history]
    history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run_path.write_text(json.dumps({
        "data": str(args.data),
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "max_epochs": cfg.max_epochs,
        "patience": cfg.patience,
        "seed": cfg.rng_seed,
        "epochs_run": len(history),
        "final_train_loss": history[-1][1],
        "final_val_loss": history[-1][2],
    }, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"epochs={len(history)} final_val_loss={history[-1][2]!r}")
    print(f"weights={weights_out}")
    print(f"history={history_path}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.weights)
    report = evaluate_split(args.data, model, args.split,
                            noise_snr_db=args.snr_db, noise_seed=args.seed)
    report_out = Path(args.report_out)
    report_out.parent.mkdir(parents=True, exist_ok=True)
    report.to_csv(report_out)
    summary_path = report_out.parent / (report_out.stem + "_summary.json")
    report.save_summary(summary_path)
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
        return _usage("--method cnn requires --weights")
    try:
        geom = _geometry(args)
        table = _phase_table(args)
        if args.method == "cnn" and len(table) != 2:
            raise ValueError(_BINARY_ONLY)
        tx = TxSpec(args.tx_dist)
        rx = RxSpec(args.rx_dist, args.el, args.az)
    except ValueError as exc:
        return _usage(str(exc))

    illum = compute_illumination(geom, tx)
    ch = compute_channels(geom, illum, rx, flat_tx_phase=args.flat_tx_phase)

    if args.method == "im":
        cfg, trace = im_optimize(ch, table)
        steps = trace.steps
    else:
        h_cfg, tr_h = gim_optimize(ch, table, "horizontal")
        v_cfg, tr_v = gim_optimize(ch, table, "vertical")
        steps = tr_h.steps + tr_v.steps
        if args.method == "gim":
            cfg = combine_stripes(h_cfg, v_cfg, table)
        else:
            # network inference adds no configure-and-measure steps
            cfg = predict_config(load_model(args.weights), h_cfg, v_cfg)

    out = Path(args.config_out or f"config_{args.method}.rist")
    save_tensors(out, [cfg.states.astype(np.float32)])
    print(f"steps={steps}")
    print(f"objective_db={power_db(objective(ch, cfg))!r}")
    print(f"config={out}")
    return 0


def cmd_pattern(args) -> int:
    try:
        geom = _geometry(args)
        table = _phase_table(args)
        tx = TxSpec(args.tx_dist)
        grid = AngularGrid(step_deg=args.step)
    except ValueError as exc:
        return _usage(str(exc))

    records = load_tensors(args.config)
    if len(records) != 1 or records[0].ndim != 2:
        raise ValueError(f"{args.config} must hold a single 2-D config record")
    states = records[0].astype(np.int64)
    if states.max() >= len(table):
        return _usage(f"config holds phase state {states.max()}, but --phase-states is "
                      f"{len(table)}; pass the --phase-states it was written with")
    cfg = PhaseConfig(states, table)
    if cfg.shape != (geom.n_rows, geom.m_cols):
        raise ValueError(f"config shape {cfg.shape} does not match geometry "
                         f"({geom.n_rows}, {geom.m_cols})")

    illum = compute_illumination(geom, tx)
    pat = radiation_pattern(geom, illum, cfg,
                            grid.elevation_values(), grid.azimuth_values())
    lines = ["elevation_deg,azimuth_deg,power_db"]
    for i, el in enumerate(pat.elevations):
        for j, az in enumerate(pat.azimuths):
            lines.append(f"{float(el)!r},{float(az)!r},{float(pat.power_db[i, j])!r}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"rows={pat.power_db.size}")
    print(f"pattern={out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TensorFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
