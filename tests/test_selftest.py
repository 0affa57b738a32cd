"""The built-in verification battery.

Runs the battery at both levels, confirms every check clears its declared
tolerance, and swaps a corrupted kernel into the selftest module to prove it
fails the check that claims to cover it (no vacuous passes).
"""

import pytest

import cassikit.selftest
from cassikit.errors import CassikitError
from cassikit.selftest import CHECKS, format_report, run_selftest
from cassikit.tensor import Tensor

QUICK_NAMES = [
    "engine-oracles",
    "shear-roundtrip",
    "operator-adjoint",
    "operator-dense",
    "operator-f32",
    "data-step-dense",
    "attention-local",
    "attention-nonlocal",
    "grad-block",
    "grad-den",
    "metrics",
    "tv-prior",
    "tv-route-f32",
    "band-layout",
]


@pytest.fixture(scope="module")
def quick_results():
    return run_selftest("quick")


@pytest.fixture(scope="module")
def full_results():
    return run_selftest("full")


def test_quick_level_runs_all_quick_checks_in_order(quick_results):
    assert [r.name for r in quick_results] == QUICK_NAMES


def test_quick_level_passes(quick_results):
    for r in quick_results:
        assert r.passed, f"{r.name}: {r.max_err:.3e} > {r.tol:.1e}"
        assert r.max_err <= r.tol
        assert r.seconds >= 0.0


def test_full_level_appends_the_reconstruction_property(full_results):
    assert [r.name for r in full_results] == QUICK_NAMES + ["pnp-improvement"]
    for r in full_results:
        assert r.passed, f"{r.name}: {r.max_err:.3e} > {r.tol:.1e}"


def test_declared_tolerances_are_reported(quick_results):
    declared = {name: tol for name, _, tol, _ in CHECKS}
    for r in quick_results:
        assert r.tol == declared[r.name]


def test_unknown_level_rejected():
    with pytest.raises(CassikitError, match="level"):
        run_selftest("exhaustive")


def _corrupt(monkeypatch, kernel):
    """Replace selftest's binding of `kernel` with one whose output is off by 1e-3."""
    original = getattr(cassikit.selftest, kernel)

    def perturbed(*args, **kwargs):
        return Tensor(original(*args, **kwargs).data + 1e-3)

    monkeypatch.setattr(cassikit.selftest, kernel, perturbed)


@pytest.mark.parametrize("check,kernel", [
    ("attention-local", "local_msa"),
    ("attention-nonlocal", "nonlocal_msa"),
], ids=["attention-local", "attention-nonlocal"])
def test_corrupted_kernel_fails_exactly_the_named_check(monkeypatch, check, kernel):
    _corrupt(monkeypatch, kernel)
    results = run_selftest("quick")
    by_name = {r.name: r for r in results}
    assert not by_name[check].passed
    assert by_name[check].max_err > by_name[check].tol
    for name, r in by_name.items():
        if name != check:
            assert r.passed, f"corrupted {kernel} leaked into {name}"


def test_workers_that_never_start_fail_exactly_the_band_layout_check(monkeypatch):
    """Only band-layout runs on two workers: if the second never runs, SSIM
    averages scratch it never wrote."""
    monkeypatch.setattr(cassikit.metrics, "run_workers", lambda work, workers: work(0))
    by_name = {r.name: r for r in run_selftest("quick")}
    assert not by_name["band-layout"].passed
    assert [name for name, r in by_name.items() if not r.passed] == ["band-layout"]


def test_report_lists_every_check_and_the_verdict(quick_results):
    report = format_report(quick_results)
    for name in QUICK_NAMES:
        assert name in report
    assert report.count("pass") >= len(QUICK_NAMES)
    assert report.strip().endswith("all checks passed")


def test_report_flags_failures(monkeypatch):
    _corrupt(monkeypatch, "local_msa")
    results = run_selftest("quick")
    report = format_report(results)
    assert "FAIL" in report
    assert report.strip().endswith("FAILURES present")
