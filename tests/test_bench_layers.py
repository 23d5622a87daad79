"""The benchmark's per-layer metrics name functions that exist, and its
workloads pass their checks.

The layer tracer counts calls in defaultdicts keyed by name, so a renamed or
deleted function would silently read 0 instead of failing. Running the first
item of each workload puts its recorded output digests and oracle checks in
the test suite, ahead of any benchmark run.
"""

import importlib
import json
import sys
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


@pytest.mark.parametrize("name", ["cone-E6", "allwords-A4", "census"])
def test_workload_first_item_passes(name, tmp_path):
    # the first item of each benchmark workload against its recorded digests and oracles
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    workload = workloads.WORKLOADS[name](1, tmp_path)
    item = workload.round[0]
    assert workload.check(item, workload.run(item)) is None
