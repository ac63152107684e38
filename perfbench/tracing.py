"""Spans around the calls one risopt module makes into another, from outside.

``Tracer.installed()`` replaces each function listed in ``PATCHES`` by a
wrapper that records a span, as an attribute of the module that calls
it, and puts the originals back on exit; nothing under ``src/`` changes.
``data.load_arrays`` imports ``load_tensors`` inside the function body, so
that one call site is reached through ``risopt.tensorfile`` itself.

The per-step helpers of the greedy searches (``flip_delta``,
``cascade_gain``) and ``mse_loss`` are not wrapped: they run thousands of
times per call, so their cost stays in the caller's self time.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from risopt.cnn import DEFAULT_CHANNELS, DEFAULT_KERNELS, make_model, model_backward, model_forward
from risopt.optimizers import step_count

# layer -> modules whose attribute of that name is the call site to wrap
PATCHES = {
    "physics.compute_channels": ("data", "evaluate", "cli"),
    "physics.compute_illumination": ("data", "evaluate", "cli"),
    "physics.objective": ("data", "evaluate", "cli"),
    "physics.radiation_pattern": ("cli",),
    "optimizers.im_optimize": ("data", "cli"),
    "optimizers.gim_optimize": ("data", "cli"),
    "optimizers.combine_stripes": ("data", "evaluate", "cli"),
    "cnn.adam_step": ("cnn",),
    "cnn.model_forward": ("cnn",),
    "cnn.predict_config": ("evaluate", "cli"),
    "cnn.load_model": ("cli",),
    "data.generate_sample": ("data",),
    "data.encode_sample": ("data",),
    "data.load_arrays": ("evaluate",),
    "evaluate.evaluate_split": ("cli",),
    "tensorfile.save_tensors": ("data", "cnn", "cli"),
    "tensorfile.load_tensors": ("cnn", "cli", "tensorfile"),
}

# counts read from a finished call: layer -> f(args, result) -> {counter: value}
COUNTERS = {
    "optimizers.im_optimize": lambda a, r: {
        "steps": r[1].steps, "commits": int((np.diff(r[1].best_objective_history) > 0).sum())},
    "optimizers.gim_optimize": lambda a, r: {"steps": r[1].steps},
    "physics.radiation_pattern": lambda a, r: {"directions": r.power_db.size},
    "data.load_arrays": lambda a, r: {"bytes": r[0].nbytes + r[1].nbytes},
    "tensorfile.save_tensors": lambda a, r: {"bytes": sum(4 * np.size(t) for t in a[1])},
    "tensorfile.load_tensors": lambda a, r: {"bytes": sum(t.nbytes for t in r)},
    "evaluate.evaluate_split": lambda a, r: {"samples": len(r.rows)},
    "cnn.train": lambda a, r: {"samples": len(a[1][0]) * len(r[1])},
}


@dataclass
class Span:
    name: str
    phase: str  # "loop" (the workload's measured calls) or "probe"
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans = []
        self.phase = "loop"
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self.phase, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        if name in COUNTERS:
            span.counts = COUNTERS[name](args, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for layer, callers in PATCHES.items():
                attr = layer.split(".")[1]
                for caller in callers:
                    module = importlib.import_module(f"risopt.{caller}")
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(layer, saved[-1][2]))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> list:
        own = [s.seconds for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def nesting_errors(self) -> int:
        """Spans whose children cover more than the span, or stick out of it."""
        bad = sum(1 for t in self.self_seconds() if t < 0)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                bad += not parent.start <= span.start <= span.end <= parent.end
        return bad


def conv_layers(size: int, seed: int, repeats: int = 5) -> dict:
    """Each default conv layer alone, float32, at size x size.

    Built with make_model(channels=(cin, cout), kernels=(k,)) and timed
    through model_forward and model_backward (which runs the forward pass
    again; bwd_ms is the difference).  mflop = 2 H W k^2 cin cout is the
    forward count, computed; the backward pass does twice that (weight and
    input gradients), so gflop_per_s is 3 * mflop over fwd+bwd time.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for i, k in enumerate(DEFAULT_KERNELS, start=1):
        cin, cout = DEFAULT_CHANNELS[i - 1], DEFAULT_CHANNELS[i]
        model = make_model(seed, channels=(cin, cout), kernels=(k,), dropout_after=(),
                           dtype=np.float32)
        x = rng.uniform(-1, 1, (size, size, cin)).astype(np.float32)
        target = rng.uniform(-1, 1, (size, size, cout) if cout > 1 else (size, size))
        fwd, both = [], []
        for _ in range(repeats + 1):  # the first round warms up
            t0 = perf_counter()
            model_forward(model, x)
            t1 = perf_counter()
            model_backward(model, x, target)
            fwd.append(t1 - t0)
            both.append(perf_counter() - t1)
        fwd_ms, both_ms = 1000 * median(fwd[1:]), 1000 * median(both[1:])
        mflop = 2 * size * size * k * k * cin * cout / 1e6
        out[f"cnn.conv{i}.fwd_ms"] = (fwd_ms, "ms")
        out[f"cnn.conv{i}.bwd_ms"] = (both_ms - fwd_ms, "ms")
        out[f"cnn.conv{i}.mflop"] = (mflop, "MFLOP")
        out[f"cnn.conv{i}.gflop_per_s"] = (3 * mflop / both_ms, "GFLOP/s")
    return out


def layer_metrics(tracer: Tracer, loop_items: int, desk) -> tuple:
    """Per-layer metrics and the step-count check failures.

    Times use the workload's own spans where it reaches the layer and the
    probe's spans where it does not; calls_per_item counts the workload's
    spans only, per work item of the traced calls.
    """
    own = tracer.self_seconds()
    by_name = {}
    for i, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, {"loop": [], "probe": []})[span.phase].append(i)

    def pick(name):
        phases = by_name.get(name, {"loop": [], "probe": []})
        return phases["loop"] or phases["probe"]

    def total(ids, what="seconds"):
        if what == "seconds":
            return sum(tracer.spans[i].seconds for i in ids)
        if what == "self":
            return sum(own[i] for i in ids)
        return sum(tracer.spans[i].counts.get(what, 0) for i in ids)

    out = {}
    for name in PATCHES:
        ids = pick(name)
        out[f"{name}.ms_per_call"] = (1000 * total(ids) / len(ids), "ms")
    for name in ("physics.compute_channels", "physics.objective"):
        loop = by_name.get(name, {"loop": []})["loop"]
        out[f"{name}.calls_per_item"] = (len(loop) / loop_items, "count")

    ids = pick("physics.radiation_pattern")
    out["physics.radiation_pattern.directions_per_s"] = (total(ids, "directions") / total(ids), "1/s")
    ids = pick("optimizers.im_optimize")
    out["optimizers.im_optimize.steps_per_s"] = (total(ids, "steps") / total(ids), "1/s")
    out["optimizers.im_optimize.steps_per_call"] = (total(ids, "steps") / len(ids), "count")
    probe_im = by_name["optimizers.im_optimize"]["probe"]
    out["optimizers.im_optimize.commit_ratio"] = (
        total(probe_im, "commits") / total(probe_im, "steps"), "ratio")
    gim = pick("optimizers.gim_optimize")
    out["optimizers.gim_optimize.steps_per_call"] = (total(gim, "steps") / len(gim), "count")

    ids = pick("cnn.train")
    out["cnn.train.self_ms_per_sample"] = (1000 * total(ids, "self") / total(ids, "samples"), "ms")
    ids = pick("evaluate.evaluate_split")
    out["evaluate.evaluate_split.self_ms_per_sample"] = (
        1000 * total(ids, "self") / total(ids, "samples"), "ms")
    ids = pick("data.load_arrays")
    out["data.load_arrays.mb"] = (total(ids, "bytes") / len(ids) / 1e6, "MB")
    for name in ("tensorfile.save_tensors", "tensorfile.load_tensors"):
        ids = pick(name)
        out[f"{name}.mb_per_s"] = (total(ids, "bytes") / 1e6 / total(ids), "MB/s")
    for sub in ("eval", "optimize", "pattern"):
        ids = pick(f"cli.main.{sub}")
        out[f"cli.main.{sub}.self_ms_per_call"] = (1000 * total(ids, "self") / len(ids), "ms")

    failures = []
    m, n = desk.m_cols, desk.n_rows
    for i in by_name["optimizers.im_optimize"]["loop"] + probe_im:
        if tracer.spans[i].counts.get("steps") != step_count("IM", m, n, 2):
            failures.append(f"im_optimize took {tracer.spans[i].counts.get('steps')} steps")
    # risopt always runs the horizontal search, then the vertical one
    gim = [tracer.spans[i].counts.get("steps", 0) for phase in ("loop", "probe")
           for i in by_name["optimizers.gim_optimize"][phase]]
    for h_steps, v_steps in zip(gim[0::2], gim[1::2]):
        if h_steps + v_steps != step_count("GIM", m, n, 2):
            failures.append(f"a G-IM pair took {h_steps} + {v_steps} steps")
    return out, failures
