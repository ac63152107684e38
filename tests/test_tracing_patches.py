"""The benchmark's tracer wraps calls between risopt modules by name.

``perfbench/tracing.PATCHES`` maps each wrapped layer (``module.function``)
to the modules that call it through an attribute of their own.  A refactor
that renames or drops one of those imports, or that stops calling a
wrapped function at all, would otherwise surface only in the slow
benchmark smoke test.  The benchmark's files are read, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


tracing = load_tracing()
CALL_SITES = [(caller, layer) for layer, callers in tracing.PATCHES.items() for caller in callers]


@pytest.mark.parametrize("caller, layer", CALL_SITES, ids=[f"{c}:{l}" for c, l in CALL_SITES])
def test_every_traced_call_site_resolves(caller, layer):
    module, name = layer.split(".")
    wanted = getattr(importlib.import_module(f"risopt.{module}"), name)
    got = getattr(importlib.import_module(f"risopt.{caller}"), name, None)
    assert got is wanted, f"risopt.{caller}.{name} is not risopt.{layer}"


def test_the_pipeline_probe_reaches_every_traced_layer(monkeypatch, tmp_path):
    # a layer with no span makes every traced benchmark run divide by zero
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    tracer.phase = "probe"
    with tracer.installed():
        workloads.pipeline_probe(oracle.Desk(8, 8), 0, tmp_path, tracer.call)
    reached = {span.name for span in tracer.spans}
    assert [layer for layer in tracing.PATCHES if layer not in reached] == []
