"""The benchmark's tracer and runner reach into cassikit by name; a rename in
`src/` must fail here rather than only under `bench/run.py --trace 1`."""

import importlib
import inspect
import runpy
from pathlib import Path

import numpy as np
import pytest

from cassikit import cassi, errors, tensor

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


def test_graph_walk_the_tracer_measures():
    # spans._record_graph: Graph.from_output(root).order, skipping GraphStateError
    a = tensor.Tensor(np.ones(3), requires_grad=True)
    order = tensor.Graph.from_output(tensor.mul(a, a)).order
    assert len(order) == 2 and sum(n.data.nbytes for n in order) == 48
    with pytest.raises(errors.GraphStateError):
        tensor.Graph.from_output(tensor.Tensor(np.ones(3)))


def test_conv2d_groups_is_the_sixth_positional_parameter():
    # spans._conv2d_kind reads groups as args[5]
    assert list(inspect.signature(tensor.conv2d).parameters)[5] == "groups"


def test_random_binary_mask_takes_height_width_seed_positionally():
    # bench/run.py calls cassi.random_binary_mask(h, w, seed)
    assert cassi.random_binary_mask(4, 5, 3).data.shape == (4, 5)
