"""Recurrence tests: the closed-form data step against a dense solve, the
initialization modes, and the stage trace bookkeeping."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cassikit import cassi, hqs
from cassikit.cassi import (HsiCube, Measurement, SensingOperator,
                            forward_measure, materialize_dense,
                            random_binary_mask, shift_cube)
from cassikit.errors import MissingParamsError, ParameterError, ShapeError
from cassikit.hqs import (ReconConfig, classical_dtype, data_step, init_estimate,
                          run_hqs, trace_csv)
from cassikit.phantom import generate_phantom
from cassikit.tensor import Tensor

from conftest import make_rng


def dense_solve(z, y, op, mu):
    """Normal-equation oracle in the band-major sheared flattening."""
    a = materialize_dense(op)
    zs = shift_cube(Tensor(z), op.step).data.transpose(2, 0, 1).reshape(-1)
    xs = np.linalg.solve(a.T @ a + mu * np.eye(a.shape[1]), a.T @ y.reshape(-1) + mu * zs)
    cube = xs.reshape(op.n_bands, op.h, op.wp).transpose(1, 2, 0)
    out = np.empty(op.scene_shape)
    for band in range(op.n_bands):
        d = op.step * band
        out[:, :, band] = cube[:, d:d + op.w, band]
    return out


# ---------------------------------------------------------------------------
# data step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("seed", range(7))
def test_data_step_matches_dense_solve(seed, mu):
    rng = make_rng(500 + seed)
    h, w, n = [(4, 5, 3), (3, 4, 2), (6, 6, 4), (5, 3, 3), (2, 6, 2),
               (6, 5, 4), (4, 4, 3)][seed]
    step = 2 if seed % 2 == 0 else 1
    op = SensingOperator.from_mask(random_binary_mask(h, w, seed), n, step)
    z = rng.normal(size=op.scene_shape)
    y = rng.normal(size=op.measurement_shape)
    got = data_step(HsiCube(Tensor(z)), Measurement(Tensor(y)), op, mu).numpy()
    want = dense_solve(z, y, op, mu)
    rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)
    assert rel <= 1e-6, f"relative error {rel:.3e} at mu={mu}"


def test_data_step_reduces_data_fidelity(tiny_operator):
    rng = make_rng(40)
    truth = HsiCube(Tensor(rng.random(tiny_operator.scene_shape)))
    y = forward_measure(truth, tiny_operator)
    z = HsiCube(Tensor(rng.random(tiny_operator.scene_shape)))
    x = data_step(z, y, tiny_operator, mu=1e-3)

    def fidelity(cube):
        resid = y.numpy() - forward_measure(cube, tiny_operator).numpy()
        return 0.5 * float(np.sum(resid * resid))

    assert fidelity(x) < fidelity(z)


def test_data_step_large_mu_stays_near_prior(tiny_operator):
    rng = make_rng(41)
    z = HsiCube(Tensor(rng.random(tiny_operator.scene_shape)))
    y = Measurement(Tensor(rng.random(tiny_operator.measurement_shape)))
    x = data_step(z, y, tiny_operator, mu=1e9)
    assert np.abs(x.numpy() - z.numpy()).max() <= 1e-6


def test_data_step_validates_inputs(tiny_operator):
    z = HsiCube(Tensor(np.zeros(tiny_operator.scene_shape)))
    y = Measurement(Tensor(np.zeros(tiny_operator.measurement_shape)))
    with pytest.raises(ParameterError):
        data_step(z, y, tiny_operator, mu=0.0)
    with pytest.raises(ShapeError):
        data_step(z, y, tiny_operator, mu=np.ones(3))
    with pytest.raises(ShapeError):
        data_step(HsiCube(Tensor(np.zeros((9, 9, 3)))), y, tiny_operator, mu=1.0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_normalized_init_on_ones_mask_recovers_band_means():
    """With an all-ones mask every covered pixel just averages its bands."""
    op = SensingOperator.from_mask(Tensor(np.ones((2, 3))), 2, 2)
    x = np.zeros((2, 3, 2))
    x[..., 0] = 1.0
    x[..., 1] = 3.0
    y = forward_measure(HsiCube(Tensor(x)), op)
    z = init_estimate(y, op).numpy()
    # column 2 of the measurement sees both bands, so it carries their sum
    # divided by the 2-band coverage; single-coverage columns pass through.
    np.testing.assert_allclose(z[:, 0, 0], 1.0, atol=1e-6)
    np.testing.assert_allclose(z[:, 2, 1], 3.0, atol=1e-6)
    np.testing.assert_allclose(z[:, 2, 0], 2.0, atol=1e-6)  # (1 + 3) / 2
    np.testing.assert_allclose(z[:, 0, 1], 2.0, atol=1e-6)


def test_normalized_init_is_measurement_consistent(square_operator):
    truth = HsiCube(Tensor(make_rng(43).random(square_operator.scene_shape)))
    y = forward_measure(truth, square_operator)
    z0 = init_estimate(y, square_operator)
    resid = np.linalg.norm(y.numpy() - forward_measure(z0, square_operator).numpy())
    assert resid <= 1e-5


# ---------------------------------------------------------------------------
# the unfolded loop
# ---------------------------------------------------------------------------

def _phantom_problem(h=24, w=24, n=4, seed=7):
    truth = generate_phantom(h, w, n, seed=seed)
    op = SensingOperator.from_mask(random_binary_mask(h, w, seed + 1), n, 2)
    return truth, op, forward_measure(truth, op)


def test_zero_stages_returns_initialization():
    truth, op, y = _phantom_problem()
    result = run_hqs(y, op, ReconConfig(stages=0))
    assert [r.stage for r in result.trace] == [0]
    np.testing.assert_array_equal(result.z.numpy(), init_estimate(y, op).numpy())


def test_identity_denoiser_with_huge_mu_freezes_iterates():
    truth, op, y = _phantom_problem()
    cfg = ReconConfig(stages=4, denoiser="identity", mu_start=1e9, mu_growth=1.0)
    prev = init_estimate(y, op).numpy()
    for k in range(cfg.stages + 1):
        z = run_hqs(y, op, replace(cfg, stages=k)).z.numpy()
        assert np.abs(z - prev).max() <= 1e-6
        prev = z


def test_result_holds_the_final_cube_and_scalars_only():
    truth, op, y = _phantom_problem(h=64, w=64, n=28, seed=3)
    cfg = ReconConfig(stages=9, denoiser="tv")
    cube_bytes = 64 * 64 * 28 * 8
    tracemalloc.start()
    try:
        result = run_hqs(y, op, cfg, truth=truth)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3 * cube_bytes, f"result holds {held / cube_bytes:.1f} cube sizes"
    assert len(result.trace) == 10


def test_identity_denoiser_converges_toward_data_consistency():
    truth, op, y = _phantom_problem()
    cfg = ReconConfig(stages=9, denoiser="identity", mu_start=1e-4, mu_growth=3.0)
    trace = run_hqs(y, op, cfg).trace
    assert all(np.isfinite(r.residual_norm) for r in trace)
    assert trace[-1].residual_norm < trace[1].residual_norm


def test_tv_reconstruction_improves_psnr_and_residual():
    truth, op, y = _phantom_problem(h=32, w=32, n=4, seed=9)
    trace = run_hqs(y, op, ReconConfig(stages=9, denoiser="tv"), truth=truth).trace
    assert trace[-1].psnr_vs_truth > trace[0].psnr_vs_truth
    assert trace[-1].residual_norm < trace[1].residual_norm
    mus = [r.mu for r in trace[1:]]
    np.testing.assert_allclose(mus, 1e-4 * 3.0 ** np.arange(9), rtol=1e-12)
    etas = [r.eta for r in trace[1:]]
    np.testing.assert_allclose(etas, np.asarray(mus) / 1e-4, rtol=1e-12)


def test_tv_route_in_float32_reads_acceptance_08s_margin():
    """Acceptance 08's scene with its measurement and operator in float32,
    as the CLI builds them: the route stays float32 and its PSNR margin
    (6.729367 dB in float64) moves by less than 1e-4 dB."""
    truth = generate_phantom(64, 64, 8, seed=5)
    op = SensingOperator.from_mask(random_binary_mask(64, 64, 6), 8, 2)
    y = Measurement(Tensor(forward_measure(truth, op).data.data.astype(np.float32)))
    result = run_hqs(y, op.astype(np.float32), ReconConfig(stages=9, denoiser="tv"), truth=truth)
    assert result.z.data.data.dtype == np.float32
    margin = result.trace[-1].psnr_vs_truth - result.trace[0].psnr_vs_truth
    assert abs(margin - 6.729367) <= 1e-4


def test_classical_dtype_follows_the_schedule_and_the_measurement_scale():
    y = np.full((4, 6), 3.0)
    assert classical_dtype(y, ReconConfig()) == np.float32
    assert classical_dtype(y, ReconConfig(stages=0)) == np.float32
    # eta_k = 3^(k-1) passes 2^56 / 3 at stage 36 (weight 1/eta against a peak of 3)
    assert classical_dtype(y, ReconConfig(stages=35)) == np.float32
    for cfg in (ReconConfig(stages=36), ReconConfig(stages=120),
                ReconConfig(mu_start=1e-40), ReconConfig(mu_growth=1e-3)):
        assert classical_dtype(y, cfg) == np.float64, cfg
    with pytest.raises(ParameterError, match="stages 1000 with mu_growth 3.0"):
        classical_dtype(y, ReconConfig(stages=1000))  # mu_growth ** 999 overflows a Python float
    assert classical_dtype(y * 1e30, ReconConfig(stages=1)) == np.float64
    assert classical_dtype(np.zeros((4, 6)), ReconConfig(stages=35)) == np.float32


def test_learned_pipeline_runs_and_traces(square_operator):
    from cassikit.cli import init_pipeline_params
    from cassikit.transformer import LnltConfig
    arch = LnltConfig(base_channels=8, local_window=4, nonlocal_grid=4)
    params = init_pipeline_params(8, arch, seed=0)
    truth = generate_phantom(16, 16, 8, seed=2)
    y = forward_measure(truth, square_operator)
    cfg = ReconConfig(stages=2, denoiser="lnlt", use_den=True)
    result = run_hqs(y, square_operator, cfg, params=params, truth=truth)
    assert [r.stage for r in result.trace] == [0, 1, 2]
    for row in result.trace[1:]:
        assert row.mu > 0 and row.eta > 0
        assert np.isfinite(row.residual_norm)
    assert np.isfinite(result.z.numpy()).all()


def test_float32_learned_route_agrees_with_float64_on_the_same_weights():
    """`cli` makes float32 weights, so the learned route runs in float32; the
    same values widened to float64 run the route in float64.  The two final
    estimates differ by at most 2e-6 of the peak value (2.7e-7 measured at
    this size; 4.2e-7 at 64x64x28, default architecture, 3 stages)."""
    from cassikit.cli import init_pipeline_params
    from cassikit.params import ParamStore
    from cassikit.tensor import no_grad
    from cassikit.transformer import LnltConfig
    truth = generate_phantom(32, 32, 4, seed=1)
    op = SensingOperator.from_mask(random_binary_mask(32, 32, 0), 4, 2)
    y = forward_measure(truth, op)
    p32 = init_pipeline_params(4, LnltConfig(base_channels=8, local_window=4, nonlocal_grid=4), 0)
    p64 = ParamStore.from_arrays({k: a.astype(np.float64) for k, a in p32.arrays().items()})
    assert (p32.dtype, p64.dtype) == (np.float32, np.float64)
    cfg = ReconConfig(stages=2, denoiser="lnlt", use_den=True)
    with no_grad():
        r32, r64 = (run_hqs(y, op, cfg, p, truth=truth) for p in (p32, p64))
    z32, z64 = r32.z.data.data, r64.z.data.data
    assert (z32.dtype, z64.dtype) == (np.float32, np.float64)
    assert np.abs(z32 - z64).max() <= 2e-6 * np.abs(z64).max()
    for a, b in zip(r32.trace[1:], r64.trace[1:]):
        assert a.mu == pytest.approx(b.mu, rel=1e-5) and a.eta == pytest.approx(b.eta, rel=1e-5)


def test_learned_pipeline_requires_params(square_operator):
    y = Measurement(Tensor(np.zeros(square_operator.measurement_shape)))
    with pytest.raises(MissingParamsError):
        run_hqs(y, square_operator, ReconConfig(stages=1, denoiser="lnlt"))
    with pytest.raises(MissingParamsError):
        run_hqs(y, square_operator, ReconConfig(stages=1, use_den=True))


def test_config_validation():
    with pytest.raises(ParameterError):
        ReconConfig(stages=-1).validate()
    with pytest.raises(ParameterError):
        ReconConfig(denoiser="bm3d").validate()
    with pytest.raises(ParameterError):
        ReconConfig(mu_start=0.0).validate()
    for key in ("mu_start", "mu_growth"):
        for value in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=f"^{key} must be finite and > 0"):
                ReconConfig(**{key: value}).validate()


@pytest.mark.parametrize("cfg", [
    ReconConfig(stages=700, denoiser="identity"),  # 3.0 ** 699 overflows a Python float
    ReconConfig(stages=700, denoiser="tv"),
    ReconConfig(stages=648, denoiser="identity"),  # the first stage past the last finite mu
    ReconConfig(stages=3, mu_start=1e300, mu_growth=1e10),  # the product rounds to inf
    ReconConfig(stages=400, mu_growth=1e-3),  # underflows to 0
], ids=["identity-700", "tv-700", "identity-648", "inf-product", "underflow"])
def test_a_schedule_whose_last_mu_leaves_the_floats_is_refused_before_any_stage(cfg, monkeypatch):
    truth, op, y = _phantom_problem()
    stages_run = []
    monkeypatch.setattr(hqs, "data_step", lambda *args: stages_run.append(args))
    with pytest.raises(ParameterError,
                       match=rf"^stages {cfg.stages} with mu_growth {cfg.mu_growth} take"):
        run_hqs(y, op, cfg)
    assert stages_run == []


def test_the_last_finite_mu_of_the_default_schedule_and_the_learned_route_pass():
    ReconConfig(stages=647, denoiser="identity").validate()  # mu = 1e-4 * 3.0 ** 646
    ReconConfig(stages=700, denoiser="lnlt", use_den=True).validate()  # no schedule runs


def test_the_classical_route_computes_the_gram_diagonal_once(monkeypatch):
    """One fixed operator: init_estimate and nine data steps share one gram."""
    truth, op, y = _phantom_problem()
    products = []
    real_mul = cassi.mul
    monkeypatch.setattr(cassi, "mul", lambda a, b: products.append(1) or real_mul(a, b))
    run_hqs(y, op, ReconConfig(stages=9, denoiser="tv"))
    assert len(products) == 1


def test_trace_csv_layout():
    truth, op, y = _phantom_problem()
    result = run_hqs(y, op, ReconConfig(stages=3, denoiser="tv"), truth=truth)
    lines = trace_csv(result).strip().split("\n")
    assert lines[0] == "stage,mu,eta,residual_norm,psnr_vs_truth"
    assert len(lines) == 1 + 1 + 3  # header, init row, one row per stage
    init_cells = lines[1].split(",")
    assert init_cells[0] == "0" and init_cells[1] == "" and init_cells[2] == ""
    for k, line in enumerate(lines[2:], start=1):
        cells = line.split(",")
        assert cells[0] == str(k)
        assert float(cells[1]) > 0 and float(cells[2]) > 0
        assert np.isfinite(float(cells[3])) and np.isfinite(float(cells[4]))


def test_trace_without_truth_leaves_psnr_blank():
    truth, op, y = _phantom_problem()
    result = run_hqs(y, op, ReconConfig(stages=1, denoiser="tv"))
    assert all(r.psnr_vs_truth is None for r in result.trace)
    lines = trace_csv(result).strip().split("\n")
    assert all(line.endswith(",") for line in lines[1:])
