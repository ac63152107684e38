"""Run every workload over several seeds and write one bench-trajectory entry.

    python3 perfbench/record.py --label baseline --seeds 0-9

For each workload in BENCHMARK.json: one untraced run per seed, giving
each end-to-end metric's median, quartiles and spread (quartile distance
over median, as statistics.quantiles(n=4) gives them), and one traced
run on the first seed for the per-layer metrics.  Writes
perfbench/results/<label>.json and prints a table; a spread above a
third of the metric's bound is marked.  Takes about
(seeds + 1) * workloads * (run_seconds + 4) seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run([*SPEC["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(l for l in lines if l.startswith("machine "))[len("machine "):])
    samples = next((l for l in lines if l.startswith("samples: ")), None)
    return machine, samples, json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the results file")
    parser.add_argument("--seeds", default="0-9", help="inclusive range A-B")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    entry = {"label": args.label, "run_seconds": SPEC["run_seconds"], "seeds": seeds,
             "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, samples = [], []
        for seed in seeds:
            machine, counts, result = bench(workload, seed, 0)
            runs.append(result)
            samples.append(counts)
        _, _, traced = bench(workload, seeds[0], 1)
        entry["machine"] = {k: v for k, v in machine.items()
                            if k not in ("workload", "seed", "dtype")}
        row = {"dtype": machine["dtype"],
               "failed": sum(r["failed"] for r in runs) + traced["failed"],
               "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
               "correct": all(r["correct"] for r in runs) and traced["correct"],
               "samples": samples, "end_to_end": {}, "per_layer": traced["metrics"]}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            med = statistics.median(values)
            row["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                                       "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                       "values": values}
            flag = "" if (q3 - q1) / med < bound / 3 else "  above bound/3"
            print(f"{workload:14s} {name:18s} median {med:11.5g}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bound}{flag}")
        print(f"{workload:14s} failed/attempted {row['failed']}/{row['attempted']}"
              f" correct={row['correct']}", flush=True)
        entry["workloads"][workload] = row
    out = Path(__file__).with_name("results") / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
