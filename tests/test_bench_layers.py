"""The benchmark's per-layer metrics name functions that exist.

The layer tracer counts calls in defaultdicts keyed by name, so a renamed or
deleted function would silently read 0 instead of failing.
"""

import importlib
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TRACED = sorted(
    {tuple(m["name"].split(".")[:2]) for m in SPEC["per_layer"] if not m["name"].startswith("trace.")}
)


@pytest.mark.parametrize("module, function", TRACED, ids=[".".join(t) for t in TRACED])
def test_per_layer_metric_names_a_callable(module, function):
    fn = getattr(importlib.import_module(f"tropicone.{module}"), function, None)
    assert callable(fn), f"tropicone.{module}.{function}"
