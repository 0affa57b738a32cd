"""The benchmark's tracer and runner reach into cassikit by name; a rename in
`src/` must fail here rather than only under `bench/run.py --trace 1`."""

import importlib
import inspect
import runpy
from pathlib import Path

import numpy as np
import pytest

from cassikit import cassi, cli, errors, fileio, tensor
from cassikit.phantom import generate_phantom
from cassikit.transformer import LnltConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# stdlib-only and free of side effects unless run as a script
_SPANS = runpy.run_path(str(SPANS))
TARGETS = _SPANS["TARGETS"]


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


def test_traced_worker_runs_both_routes_and_restores_every_attribute(tmp_path):
    # what `bench/run.py --trace 1` runs per command: cli.main under Tracer; 12x12
    # is the smallest scene that SSIM (an 11x11 window) scores
    truth, plane, meas = (str(tmp_path / f"{k}.hsic") for k in ("truth", "plane", "meas"))
    ckpt = str(tmp_path / "w.dprm")
    fileio.write_cube(truth, generate_phantom(12, 12, 2, seed=1).numpy())
    fileio.write_cube(plane, cassi.random_binary_mask(12, 12, 2).data.data)
    arch = LnltConfig(base_channels=4, local_window=1, nonlocal_grid=1)
    fileio.write_params(ckpt, cli.init_pipeline_params(2, arch, seed=3))
    assert cli.main(["simulate", "--truth", truth, "--mask", plane, "--out", meas]) == 0
    base = ["reconstruct", "--measurement", meas, "--mask", plane, "--bands", "2",
            "--stages", "2", "--truth", truth]
    routes = {"tv": ["--denoiser", "tv"],
              "learned": ["--denoiser", "lnlt", "--use-den", "true", "--params", ckpt]}

    modules = [importlib.import_module(f"cassikit.{m}") for m in {m for m, _, _ in TARGETS}]
    before = [(mod, dict(vars(mod))) for mod in modules]
    for route, flags in routes.items():
        tracer = _SPANS["Tracer"]()
        tracer.install()
        try:
            out = str(tmp_path / f"{route}.hsic")
            assert tracer.span("cli.main", cli.main, [*base, *flags, "--out", out]) == 0
        finally:
            tracer.uninstall()
            for mod, attrs in before:
                assert all(getattr(mod, k) is v for k, v in attrs.items()), mod.__name__
        assert tracer.value("hqs.init_estimate.calls") > 0, route
        assert tracer.value("metrics.psnr.calls") > 0, route
        if route == "learned":
            assert tracer.value("tensor.conv2d.dense.calls") > 0
            assert tracer.value("tensor.conv2d.depthwise.calls") > 0
