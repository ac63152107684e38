"""The benchmark's tracer wraps calls between risopt modules by name.

``perfbench/tracing.PATCHES`` maps each wrapped layer (``module.function``)
to the modules that call it through an attribute of their own.  A refactor
that renames or drops one of those imports would otherwise surface only
in the slow benchmark smoke test.  The table is read, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


CALL_SITES = [(caller, layer) for layer, callers in load_patches().items() for caller in callers]


@pytest.mark.parametrize("caller, layer", CALL_SITES, ids=[f"{c}:{l}" for c, l in CALL_SITES])
def test_every_traced_call_site_resolves(caller, layer):
    module, name = layer.split(".")
    wanted = getattr(importlib.import_module(f"risopt.{module}"), name)
    got = getattr(importlib.import_module(f"risopt.{caller}"), name, None)
    assert got is wanted, f"risopt.{caller}.{name} is not risopt.{layer}"
