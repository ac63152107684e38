"""risopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 12 --trace 0

Run from the root of a risopt checkout; the package is imported from
its ``src/``.  The run sets the workload up SETUP_REPEATS times (each
set-up builds the inputs from the seed and makes one untimed warm-up
call), then loops timed calls for ``--seconds`` and checks every call's
outputs.  A short reference kernel is timed before each set-up and each
call, and the gated times are scaled by it (see ``Reference``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced calls, adds a pass through every layer
and a per-conv-layer probe, and reports the per-layer metrics.  The last stdout line is the JSON result; the lines
before it give the machine, the metrics with units and sample counts.
Scratch files go under ``.perfbench_work/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter

SETUP_REPEATS = 5
# The reference kernel's time on the machine the baseline was recorded on
# (2-core Xeon VM, fast state).  It only scales the reported figures.
REFERENCE_MS = 0.4
ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("sweep", "fit", "score", "query-im", "query-gim", "query-cnn", "query-pattern")


def single_thread_blas() -> int:
    """Run BLAS on one thread (before numpy loads); returns nproc.

    With two BLAS threads on a shared 2-core machine, the run-to-run
    spread of `fit` was 0.09-0.25; with one it was 0.014.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


class Reference:
    """A fixed kernel timed just before every timed call and set-up, to
    read how fast the machine runs.

    A shared machine changes speed by up to 2x, from one call to the next
    and for minutes at a time.  The gated time figures are scaled by the
    mean of the readings taken during the run over REFERENCE_MS, so they
    read as if the machine had run at baseline speed throughout.  The
    kernel mixes small matrix products with short numpy calls from a
    Python loop, like risopt's own work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((128, 128)).astype(np.float32)
        self.vector = rng.standard_normal(1600) + 1j * rng.standard_normal(1600)

    def kernel(self) -> float:
        for _ in range(4):
            self.matrix @ self.matrix
        total = 0.0
        for i in range(60):
            total += abs((self.vector[i:i + 400] * 2.0).sum())
        return total

    def ms(self) -> float:
        """The fastest of three kernel runs now, in ms."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        return 1000 * min(times)


def machine_facts(nproc: int) -> dict:
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/lib*openblas*.so*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="8x8 surface instead of the 40x40 desk (self-test only)")
    args = parser.parse_args(argv)

    nproc = single_thread_blas()
    src = ROOT / "src"
    if not (src / "risopt" / "__init__.py").is_file():
        print(f"error: no risopt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import oracle
    import workloads

    desk = oracle.Desk(8, 8) if args.tiny else workloads.DESK
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, lines, dtype = run(args, desk, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    lines.insert(0, "machine " + json.dumps({**machine_facts(nproc), "workload": args.workload,
                                              "dtype": dtype, "seed": args.seed,
                                              "surface": f"{desk.n_rows}x{desk.m_cols}"}))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run(args, desk, work):
    import tracing
    import workloads

    make = workloads.WORKLOADS[args.workload]
    reference = Reference()
    reference.ms()  # warm-up
    setup_times, setup_refs = [], []
    for k in range(SETUP_REPEATS):
        setup_refs.append(reference.ms())
        t0 = perf_counter()
        workload = make(desk, args.seed, work / f"setup{k}")
        workload.call(0, check=False)  # warm-up: lazy imports, allocator, BLAS threads
        setup_times.append(perf_counter() - t0)

    tracer = tracing.Tracer() if args.trace else None
    calls, refs, traced, failures = [], [], [], []
    deadline = perf_counter() + args.seconds
    i = 1
    while len(calls) < 2 or perf_counter() < deadline:
        on = tracer is not None and i % 2 == 1
        refs.append(reference.ms())
        try:
            if on:
                with tracer.installed():
                    call = workload.call(i, tracer.call)
            else:
                call = workload.call(i)
        except Exception as exc:  # a crashing call is a failed operation
            call = workloads.Call(0.0, 0, [], [f"call {i} raised {exc!r}"])
        calls.append(call)
        traced.append(on)
        failures += call.failures
        i += 1
    attempted = len(calls)
    failed = sum(1 for c in calls if c.failures)
    if hasattr(workload, "final_check"):
        final = workload.final_check()
        attempted += 1
        failed += bool(final)
        failures += final

    lines = []
    if tracer is None:
        latencies = [ms for c in calls for ms in c.latencies_ms]
        p90 = quantiles(latencies, n=10, method="inclusive")[8]
        items = sum(c.items for c in calls)
        rate = items / sum(c.seconds for c in calls)
        metrics = {
            "setup_s": (median(setup_times) * REFERENCE_MS / mean(setup_refs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "throughput_per_s": (rate * mean(refs) / REFERENCE_MS, "1/s"),
        }
        beyond = sum(1 for ms in latencies if ms > p90)
        lines.append(f"samples: {len(latencies)} latencies "
                     f"({'per angle' if args.workload == 'sweep' else 'per call'}), {beyond} beyond p90; "
                     f"{items} {workload.item}s in {len(calls)} calls; "
                     f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s")
        lines.append(f"wall clock (not gated): latency p50 {median(latencies):.6g} ms, "
                     f"p90 {p90:.6g} ms; {rate:.6g} {workload.item}s per s, set-up "
                     f"{median(setup_times):.6g} s; reference kernel mean {mean(refs):.4g} ms "
                     f"(baseline {REFERENCE_MS} ms)")
    else:
        tracer.phase = "probe"
        with tracer.installed():
            workloads.pipeline_probe(desk, args.seed, work, tracer.call)
        metrics, step_failures = tracing.layer_metrics(
            tracer, sum(c.items for c, on in zip(calls, traced) if on), desk)
        failures += step_failures
        metrics.update(tracing.conv_layers(desk.n_rows, args.seed))

        def per_item(on):
            chosen = [c for c, t in zip(calls, traced) if t == on]
            return sum(c.seconds for c in chosen) / sum(c.items for c in chosen)
        metrics["tracing.overhead_pct"] = (100 * (per_item(True) / per_item(False) - 1), "%")
        bad = tracer.nesting_errors()
        metrics["tracing.negative_self_spans"] = (bad, "count")
        if bad:
            failures.append(f"{bad} spans have children covering more than the span")
        lines.append(f"spans: {len(tracer.spans)} ({sum(traced)} traced and "
                     f"{len(traced) - sum(traced)} untraced calls, then the layer probe)")
        lines.append("computed, not measured: cnn.conv*.mflop = 2*H*W*k^2*cin*cout; counted from "
                     "the returned traces: optimizers.*.steps_per_call, commit_ratio")

    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    lines.append(f"failed/attempted: {failed}/{attempted} {args.workload} operations")
    lines += [f"check failed: {message}" for message in failures[:20]]
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, lines, workload.dtype


if __name__ == "__main__":
    sys.exit(main())
