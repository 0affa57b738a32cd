"""The benchmark's tracer and runner reach into cassikit by name; a rename in
`src/` must fail here rather than only under `bench/run.py --trace 1`."""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# stdlib-only and free of side effects unless run as a script
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("target", [f"{m}.{f}" for m, f, _ in TARGETS])
def test_every_traced_span_names_a_callable(target):
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"cassikit.{module}"), name, None))


@pytest.mark.parametrize("module,name", [("hqs", "LnltSettings"), ("cli", "init_pipeline_params")])
def test_names_the_benchmark_runner_imports_exist(module, name):
    assert hasattr(importlib.import_module(f"cassikit.{module}"), name)
