"""Acceptance battery: one test per shipping criterion.

Every test prints a single live PASS/FAIL line (bypassing pytest capture),
so a full run reads as a checklist.  Numeric pins were frozen from
reference runs of this implementation at full precision; each line states
the measured quantity next to its bound.

Oracles used here: the dense normal-equation solve for the data step,
brute-force per-token attention, central finite differences for gradients,
and byte comparison of CLI artifacts for determinism.
"""

import subprocess
import sys
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

from cassikit import fileio
from cassikit.cassi import (HsiCube, Measurement, SensingOperator, adjoint_apply,
                            dispersion_support, forward_measure, materialize_dense,
                            phi_gram_diag, random_binary_mask)
from cassikit.degradation import den_forward, register_den_params
from cassikit.hqs import ReconConfig, data_step, init_estimate, run_hqs
from cassikit.params import Initializer, ParamStore
from cassikit.phantom import generate_phantom
from cassikit.selftest import (_msa_arrays, _msa_fixture, _oracle_local_msa,
                               _oracle_nonlocal_msa, dense_data_step)
from cassikit.tensor import Tensor, fd_gradcheck, mul, reduce_mean
from cassikit.train import TrainConfig, train_overfit
from cassikit.transformer import (LnltConfig, _register_block, _register_msa,
                                  block_forward, local_msa, nonlocal_msa)

from conftest import make_rng


@pytest.fixture
def checklist(capsys):
    """Prints one live PASS/FAIL line per criterion, outside pytest capture."""
    def report(name: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[{status}] {name}: {detail}", flush=True)
    return report


def _run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "cassikit", *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd)


# ---------------------------------------------------------------------------
# 01  closed-form data step equals the dense regularized solve
# ---------------------------------------------------------------------------

def test_01_data_step_matches_dense_solve_within_budget(checklist):
    shapes = [(4, 5, 3, 2), (6, 6, 4, 1), (5, 4, 2, 2), (3, 6, 4, 2),
              (6, 3, 3, 1), (4, 4, 2, 1), (5, 5, 4, 2)]
    started = time.perf_counter()
    worst = 0.0
    instances = 0
    for seed in range(21):
        h, w, n, step = shapes[seed % len(shapes)]
        rng = make_rng(1000 + seed)
        op = SensingOperator.from_mask(random_binary_mask(h, w, seed), n, step)
        z = rng.normal(size=op.scene_shape)
        y = rng.normal(size=op.measurement_shape)
        instances += 1
        for mu in (1e-3, 1.0, 1e3):
            got = data_step(HsiCube(Tensor(z)), Measurement(Tensor(y)), op, mu).numpy()
            want = dense_data_step(z, y, op, mu)
            worst = max(worst, np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 5.0 and instances >= 20
    checklist("01 data step vs dense solve", ok,
            f"{instances} instances x 3 mu values, max rel err {worst:.2e} "
            f"(<= 1e-6), {elapsed:.2f}s (< 5s)")
    assert instances >= 20
    assert worst <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 02  forward and adjoint agree as inner products
# ---------------------------------------------------------------------------

def test_02_forward_adjoint_inner_products_agree(checklist):
    worst = 0.0
    for seed in range(20):
        rng = make_rng(2000 + seed)
        op = SensingOperator.from_mask(random_binary_mask(16, 16, seed), 8, 2)
        x = rng.normal(size=(16, 16, 8))
        u = rng.normal(size=op.measurement_shape)
        fx = forward_measure(HsiCube(Tensor(x)), op).data.data
        atu = adjoint_apply(Measurement(Tensor(u)), op).data.data
        lhs = float(np.sum(fx * u))
        rhs = float(np.sum(x * atu))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    ok = worst <= 1e-5
    checklist("02 operator adjointness", ok,
            f"20 seeds at 16x16x8 step 2, max rel gap {worst:.2e} (<= 1e-5)")
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# 03  the sensor gram matrix is exactly diagonal
# ---------------------------------------------------------------------------

def test_03_sensor_gram_is_exactly_diagonal(checklist):
    worst_diag = 0.0
    for h, w, n, step in [(4, 5, 3, 2), (6, 6, 4, 1), (5, 4, 2, 2)]:
        op = SensingOperator.from_mask(random_binary_mask(h, w, h + w), n, step)
        a = materialize_dense(op)
        gram = a @ a.T
        off = gram - np.diag(np.diag(gram))
        assert np.all(off == 0.0), "off-diagonal gram entries must be exactly zero"
        worst_diag = max(worst_diag, float(
            np.abs(np.diag(gram) - phi_gram_diag(op).data.reshape(-1)).max()))
    ok = worst_diag <= 1e-10
    checklist("03 diagonal sensor gram", ok,
            f"off-diagonal exactly 0, diagonal vs closed form {worst_diag:.2e} (<= 1e-10)")
    assert worst_diag <= 1e-10


# ---------------------------------------------------------------------------
# 04  dispersion geometry at full sensor scale
# ---------------------------------------------------------------------------

def test_04_measurement_geometry_at_full_sensor_scale(checklist):
    truth = generate_phantom(256, 256, 28, seed=0)
    op = SensingOperator.from_mask(random_binary_mask(256, 256, 0), 28, 2)
    y = forward_measure(truth, op)
    ok = y.shape == (256, 310) and op.wp == 256 + 2 * 27
    checklist("04 measurement geometry", ok,
            f"256x256x28 step 2 -> measurement {y.shape[0]}x{y.shape[1]} (expected 256x310)")
    assert y.shape == (256, 310)


# ---------------------------------------------------------------------------
# 05  attention kernels match brute-force per-token attention
# ---------------------------------------------------------------------------

def _identity_msa(c: int, heads: int, tokens: int):
    store = ParamStore()
    init = Initializer(store, 0)
    _register_msa(init, "msa", c, heads, tokens)
    # channel thirds of the fused weights: zero Q and K, identity V
    point = np.zeros((1, 1, c, 3 * c))
    point[0, 0, :, 2 * c:] = np.eye(c)
    depth = np.zeros((3, 3, 1, 3 * c))
    depth[1, 1, 0, 2 * c:] = 1.0
    store["msa.qkv.point.w"]._assign(point)
    store["msa.qkv.depth.w"]._assign(depth)
    store["msa.proj.w"]._assign(np.eye(c)[None, None])
    return store.scope("msa")


def test_05_attention_matches_brute_force_and_uniform_cases(checklist):
    worst = 0.0
    x = make_rng(50).normal(size=(16, 16, 8))
    for m in (4, 8):
        for heads in (1, 2, 4):
            store, weights = _msa_fixture(500 + 10 * m + heads, 8, heads, m * m)
            got = local_msa(Tensor(x), weights).data
            want = _oracle_local_msa(x, _msa_arrays(store), m, heads)
            worst = max(worst, float(np.abs(got - want).max()))
    for n in (2, 4):
        for heads in (1, 2, 4):
            store, weights = _msa_fixture(600 + 10 * n + heads, 8, heads, n * n)
            got = nonlocal_msa(Tensor(x), weights).data
            want = _oracle_nonlocal_msa(x, _msa_arrays(store), n, heads)
            worst = max(worst, float(np.abs(got - want).max()))

    # trivial cases: zero queries/keys plus identity values make the
    # attention exactly uniform, so the mixed signal is a plain average
    xu = make_rng(51).normal(size=(8, 8, 4))
    m, n, heads = 4, 2, 2
    got = local_msa(Tensor(xu), _identity_msa(4, heads, m * m)).data
    win_mean = xu.reshape(2, m, 2, m, 4).mean(axis=(1, 3))
    want = xu + np.repeat(np.repeat(win_mean, m, axis=0), m, axis=1)
    uniform_err = float(np.abs(got - want).max())

    got = nonlocal_msa(Tensor(xu), _identity_msa(4, heads, n * n)).data
    cell_mean = xu.reshape(n, 4, n, 4, 4).mean(axis=(0, 2))
    want = xu + np.tile(cell_mean, (n, n, 1))
    uniform_err = max(uniform_err, float(np.abs(got - want).max()))

    ok = worst <= 1e-5 and uniform_err <= 1e-6
    checklist("05 attention oracles", ok,
            f"12 brute-force configs max err {worst:.2e} (<= 1e-5), "
            f"uniform cases {uniform_err:.2e} (<= 1e-6)")
    assert worst <= 1e-5
    assert uniform_err <= 1e-6


# ---------------------------------------------------------------------------
# 06  analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_06_analytic_gradients_match_finite_differences(checklist):
    cfg = LnltConfig(base_channels=8, heads=(2, 2, 4), local_window=4, nonlocal_grid=2)
    store = ParamStore()
    _register_block(Initializer(store, 61), "blk", 8, 2, cfg)
    weights = store.scope("blk")
    x = Tensor(make_rng(62).normal(size=(8, 8, 8)) * 0.5)
    probe = Tensor(make_rng(63).normal(size=(8, 8, 8)))
    block_report = fd_gradcheck(
        lambda params: reduce_mean(mul(block_forward(x, weights), probe)),
        store, n_samples=55, seed=64)

    store2 = ParamStore()
    register_den_params(Initializer(store2, 71), 3)
    dweights = store2.scope("den")
    op = SensingOperator.from_mask(random_binary_mask(6, 6, 5), 3, 1)
    z = HsiCube(Tensor(make_rng(72).normal(size=(6, 6, 3)) * 0.3 + 0.5))
    dprobe = Tensor(make_rng(73).normal(size=(6, 8, 3)))

    def den_loss(params):
        est = den_forward(z, op, dweights)
        return reduce_mean(mul(est.phi_hat.shifted_mask, dprobe)) + est.mu + est.eta

    den_report = fd_gradcheck(den_loss, store2, n_samples=55, seed=74)

    ok = (block_report.passed and den_report.passed
          and len(block_report.rows) >= 50 and len(den_report.rows) >= 50)
    checklist("06 gradient fidelity", ok,
            f"denoiser block {len(block_report.rows)} params max rel {block_report.max_rel_err:.2e}, "
            f"estimator {len(den_report.rows)} params max rel {den_report.max_rel_err:.2e} (<= 1e-3)")
    assert block_report.passed and len(block_report.rows) >= 50
    assert den_report.passed and len(den_report.rows) >= 50


# ---------------------------------------------------------------------------
# 07  recurrence control flow
# ---------------------------------------------------------------------------

def test_07_recurrence_control_flow_is_sane(checklist):
    truth = generate_phantom(16, 16, 8, seed=7)
    op = SensingOperator.from_mask(random_binary_mask(16, 16, 8), 8, 2)
    y = forward_measure(truth, op)

    z0 = init_estimate(y, op).numpy()
    zero = run_hqs(y, op, ReconConfig(stages=0, denoiser="identity"))
    frozen_ok = np.array_equal(zero.z.numpy(), z0) and len(zero.trace) == 1

    huge_mu = ReconConfig(stages=5, denoiser="identity", mu_start=1e9, mu_growth=1.0)
    drift = 0.0
    prev = z0
    for k in range(huge_mu.stages + 1):
        z = run_hqs(y, op, replace(huge_mu, stages=k)).z.numpy()
        drift = max(drift, float(np.abs(z - prev).max()))
        prev = z

    nine = run_hqs(y, op, ReconConfig(stages=9, denoiser="tv"), truth=truth)
    finite_ok = all(np.isfinite(v) for row in nine.trace
                    for v in astuple(row) if v is not None)

    ok = frozen_ok and drift <= 1e-6 and finite_ok and len(nine.trace) == 10
    checklist("07 recurrence sanity", ok,
            f"0 stages returns init exactly, identity at fixed mu=1e9 drifts "
            f"{drift:.2e} per stage (<= 1e-6), 9-stage trace finite")
    assert frozen_ok
    assert drift <= 1e-6
    assert finite_ok


# ---------------------------------------------------------------------------
# 08  plug-and-play reconstruction improves the estimate
# ---------------------------------------------------------------------------

def test_08_tv_plug_and_play_improves_the_estimate(checklist):
    # frozen from this implementation's reference run at these seeds:
    # init 13.874177 dB -> stage 9 at 20.603544 dB, margin 6.729367 dB
    truth = generate_phantom(64, 64, 8, seed=5)
    op = SensingOperator.from_mask(random_binary_mask(64, 64, 6), 8, 2)
    y = forward_measure(truth, op)
    trace = run_hqs(y, op, ReconConfig(stages=9, denoiser="tv"), truth=truth).trace
    margin = trace[-1].psnr_vs_truth - trace[0].psnr_vs_truth
    first_resid = trace[1].residual_norm
    final_resid = trace[-1].residual_norm
    ok = (abs(margin - 6.729367) <= 0.1
          and trace[-1].psnr_vs_truth > trace[0].psnr_vs_truth
          and final_resid < first_resid)
    checklist("08 plug-and-play gain", ok,
            f"PSNR margin {margin:.4f} dB (pinned 6.7294 +- 0.1), stage residual "
            f"{first_resid:.3f} -> {final_resid:.3f}")
    assert abs(margin - 6.729367) <= 0.1
    assert trace[-1].psnr_vs_truth > trace[0].psnr_vs_truth
    assert final_resid < first_resid


# ---------------------------------------------------------------------------
# 09  overfit training converges and is bit-reproducible
# ---------------------------------------------------------------------------

def _reference_training():
    from cassikit.cli import init_pipeline_params
    truth = generate_phantom(32, 32, 4, seed=1)
    op = SensingOperator.from_mask(random_binary_mask(32, 32, 0), 4, 2)
    arch = LnltConfig(base_channels=8, blocks_per_level=1,
                      local_window=4, nonlocal_grid=4)
    params = init_pipeline_params(4, arch, seed=0)
    rcfg = ReconConfig(stages=3, denoiser="lnlt", use_den=True)
    tcfg = TrainConfig(steps=500, lr=4e-4, warmup_steps=10)
    return train_overfit(truth, op, params, tcfg, rcfg)


@pytest.mark.slow
def test_09_overfit_training_converges_and_reproduces(checklist):
    started = time.perf_counter()
    first = _reference_training()
    second = _reference_training()
    elapsed = time.perf_counter() - started
    ratio = first.first_loss / first.last_loss
    identical = first.curve == second.curve
    ok = ratio >= 10.0 and identical
    checklist("09 overfit training", ok,
            f"500 steps x2, loss {first.first_loss:.4f} -> {first.last_loss:.5f} "
            f"(ratio {ratio:.1f}x >= 10x), curves bit-identical: {identical}, {elapsed:.0f}s")
    assert ratio >= 10.0, "500 Adam steps must reduce the loss at least tenfold"
    assert identical, "the loss curve must be bit-reproducible under a fixed seed"


# ---------------------------------------------------------------------------
# 10  degradation estimator contracts
# ---------------------------------------------------------------------------

def test_10_degradation_estimates_respect_contracts(checklist):
    op = SensingOperator.from_mask(random_binary_mask(6, 6, 2), 3, 2)
    support = dispersion_support(6, 6, 3, 2)
    worst_off_support = 0.0
    scalars_ok = True
    for seed in range(6):
        store = ParamStore()
        init = Initializer(store, seed)
        register_den_params(init, 3)
        rng = make_rng(100 + seed)
        for name in store.names():
            if name.endswith(".b"):
                store[name]._assign(rng.normal(size=store[name].shape) * 0.1)
        z = HsiCube(Tensor(rng.normal(size=(6, 6, 3)) * 0.4 + 0.5))
        est = den_forward(z, op, store.scope("den"))
        scalars_ok &= float(est.mu.data.reshape(())) > 0
        scalars_ok &= float(est.eta.data.reshape(())) > 0
        for arr in (est.phi_hat.shifted_mask.data, est.residual.data):
            worst_off_support = max(worst_off_support, float(np.abs(arr[~support]).max()))
        assert est.phi_hat.shifted_mask.data.min() >= 0.0
        assert est.phi_hat.shifted_mask.data.max() <= 1.5

    store = ParamStore()
    register_den_params(Initializer(store, 9), 3)
    store["den.exit.w"]._assign(np.zeros(store["den.exit.w"].shape))
    store["den.exit.b"]._assign(np.zeros(store["den.exit.b"].shape))
    z = HsiCube(Tensor(make_rng(9).random((6, 6, 3))))
    est = den_forward(z, op, store.scope("den"))
    exact_identity = (np.array_equal(est.phi_hat.shifted_mask.data, op.shifted_mask.data)
                      and not np.any(est.residual.data))

    ok = scalars_ok and worst_off_support == 0.0 and exact_identity
    checklist("10 estimator contracts", ok,
            f"mu,eta > 0 over 6 seeds, off-support leakage {worst_off_support:.1e} "
            f"(exactly 0), zero-residual config reproduces the operator: {exact_identity}")
    assert scalars_ok
    assert worst_off_support == 0.0
    assert exact_identity


# ---------------------------------------------------------------------------
# 11  CLI determinism, container formats, end-to-end selftest
# ---------------------------------------------------------------------------

def test_11_cli_determinism_formats_and_selftest(tmp_path, checklist):
    outputs = {"phantom": [], "simulate": [], "reconstruct": [], "train": []}
    for tag in ("a", "b"):
        # identical argv per run; only the working directory differs, so both
        # the artifacts and the printed output must match byte for byte
        run_dir = tmp_path / f"run-{tag}"
        run_dir.mkdir()

        proc = _run_cli("phantom", "--height", 16, "--width", 16, "--bands", 4,
                        "--seed", 1, "--out", "truth.hsic", cwd=run_dir)
        assert proc.returncode == 0, proc.stderr
        outputs["phantom"].append(((run_dir / "truth.hsic").read_bytes(), proc.stdout))

        proc = _run_cli("simulate", "--truth", "truth.hsic", "--mask-seed", 2,
                        "--step", 2, "--noise", "shot", "--bits", 11, "--seed", 4,
                        "--out", "meas.hsic", cwd=run_dir)
        assert proc.returncode == 0, proc.stderr
        outputs["simulate"].append(((run_dir / "meas.hsic").read_bytes(),
                                    (run_dir / "meas.mask.hsic").read_bytes(),
                                    proc.stdout))

        proc = _run_cli("reconstruct", "--measurement", "meas.hsic",
                        "--mask", "meas.mask.hsic", "--stages", 3,
                        "--denoiser", "tv", "--out", "recon.hsic", cwd=run_dir)
        assert proc.returncode == 0, proc.stderr
        outputs["reconstruct"].append(((run_dir / "recon.hsic").read_bytes(), proc.stdout))

        proc = _run_cli("phantom", "--height", 8, "--width", 8, "--bands", 2,
                        "--seed", 3, "--out", "tiny.hsic", cwd=run_dir)
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli("train", "--truth", "tiny.hsic", "--stages", 1, "--steps", 2,
                        "--warmup", 1, "--lr", "1e-4", "--channels", 4,
                        "--window", 1, "--grid", 1, "--out", "w.dprm", cwd=run_dir)
        assert proc.returncode == 0, proc.stderr
        outputs["train"].append(((run_dir / "w.dprm").read_bytes(), proc.stdout))

    repeat_ok = all(runs[0] == runs[1] for runs in outputs.values())

    values = make_rng(11).normal(size=(9, 7, 5)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "roundtrip.hsic")
    fileio.write_cube(path, values)
    lossless = np.array_equal(fileio.read_cube(path), values)

    started = time.perf_counter()
    proc = _run_cli("selftest", "--level", "quick")
    selftest_seconds = time.perf_counter() - started
    # budget pinned from a ~2s reference measurement, wide slack for slow hosts
    selftest_ok = (proc.returncode == 0
                   and "all checks passed" in proc.stdout
                   and selftest_seconds < 30.0)

    ok = repeat_ok and lossless and selftest_ok
    checklist("11 determinism and formats", ok,
            f"4 commands byte-identical on repeat: {repeat_ok}, cube roundtrip "
            f"lossless: {lossless}, quick selftest {selftest_seconds:.1f}s (< 30s)")
    assert repeat_ok, "repeat seeded CLI runs must produce byte-identical artifacts"
    assert lossless
    assert selftest_ok, proc.stdout + proc.stderr
