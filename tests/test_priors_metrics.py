"""Prior and metric tests: the dual TV iteration against its variational
contract, a plain 2-D reference and frozen references, plus the quality
metrics against hand formulas and loop oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cassikit.errors import MetricError, ParameterError, ShapeError
from cassikit.metrics import PSNR_CAP_DB, SSIM_SIGMA, SSIM_WINDOW, psnr, sam, ssim
from cassikit.priors import (DUAL_STEP, _div_flat, _grad_flat, total_variation,
                             tv_denoise)
from cassikit.tensor import Tensor
from cassikit.train import charbonnier_loss

from conftest import make_rng


# ---------------------------------------------------------------------------
# total variation prior
# ---------------------------------------------------------------------------

# Reference: the textbook 2-D form of the dual iteration, with zero-filled
# gradient and divergence arrays built afresh on every step.  The kernel in
# priors.py must match it bit for bit, sign of zero included.

def ref_grad2d(u):
    """Forward differences; zero at the far edge."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def ref_div2d(px, py):
    """Negative adjoint of ref_grad2d (backward differences); needs H, W >= 2."""
    div = np.zeros_like(px)
    div[0, :] += px[0, :]
    div[1:-1, :] += px[1:-1, :] - px[:-2, :]
    div[-1, :] += -px[-2, :]
    div[:, 0] += py[:, 0]
    div[:, 1:-1] += py[:, 1:-1] - py[:, :-2]
    div[:, -1] += -py[:, -2]
    return div


def ref_tv_plane(g, weight, iters):
    px = np.zeros_like(g)
    py = np.zeros_like(g)
    for _ in range(iters):
        u = ref_div2d(px, py) - g / weight
        gx, gy = ref_grad2d(u)
        mag = np.sqrt(gx * gx + gy * gy)
        denom = 1.0 + DUAL_STEP * mag
        px = (px + DUAL_STEP * gx) / denom
        py = (py + DUAL_STEP * gy) / denom
    return g - weight * ref_div2d(px, py)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_grad_and_div_are_negative_adjoints():
    rng = make_rng(100)
    h, w = 9, 7
    u = rng.normal(size=h * w)
    px = rng.normal(size=(h, w))
    py = rng.normal(size=(h, w))
    # the kernel's duals are zero on the far edge, where the gradient is zero
    px[-1, :] = 0.0
    py[:, -1] = 0.0
    px, py = px.reshape(-1), py.reshape(-1)
    gx, gy = np.zeros(h * w), np.zeros(h * w)
    _grad_flat(u, w, gx, gy)
    div = _div_flat(px, py, w, np.empty(h * w), np.empty(h * w))
    lhs = float(np.sum(gx * px + gy * py))
    rhs = -float(np.sum(u * div))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    ref_gx, ref_gy = ref_grad2d(u.reshape(h, w))
    assert_same_bits(gx.reshape(h, w), ref_gx)
    assert_same_bits(gy.reshape(h, w), ref_gy)
    assert_same_bits(div.reshape(h, w), ref_div2d(px.reshape(h, w), py.reshape(h, w)))


# entries: exact signed zeros, subnormals (whose quotients can underflow to a
# signed zero) and ordinary values
_tv_entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
                        st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def tv_cases(draw):
    h, w, n = draw(st.integers(2, 12)), draw(st.integers(2, 12)), draw(st.integers(1, 3))
    cube = draw(hnp.arrays(np.float64, (h, w, n), elements=_tv_entries))
    weight = draw(st.floats(1e-3, 10.0))
    return cube, weight, draw(st.integers(1, 30))


@settings(max_examples=60)
@given(tv_cases())
def test_tv_kernel_matches_the_2d_reference_bit_for_bit(case):
    cube, weight, iters = case
    out = tv_denoise(cube, weight, iters)
    for band in range(cube.shape[2]):
        want = ref_tv_plane(np.ascontiguousarray(cube[:, :, band]), weight, iters)
        assert_same_bits(out[:, :, band], want)
        # a strided band view, and its transpose, as rank-2 inputs
        assert_same_bits(tv_denoise(cube[:, :, band], weight, iters), want)
        assert_same_bits(tv_denoise(cube[:, :, band].T, weight, iters),
                         ref_tv_plane(np.ascontiguousarray(cube[:, :, band].T), weight, iters))


def test_total_variation_hand_case():
    u = np.zeros((2, 3))
    u[:, 2] = 1.0  # two horizontal unit steps at the same column
    assert total_variation(u) == pytest.approx(2.0)
    cube = np.stack([u, 2.0 * u], axis=2)
    assert total_variation(cube) == pytest.approx(2.0 + 4.0)


def test_tv_denoise_constant_is_fixed_point():
    g = np.full((12, 12), 0.37)
    np.testing.assert_allclose(tv_denoise(g, weight=0.5), g, atol=1e-12)


def test_tv_denoise_zero_weight_is_identity():
    g = make_rng(101).random((10, 10))
    out = tv_denoise(g, weight=0.0)
    np.testing.assert_array_equal(out, g)
    assert out is not g  # a copy, not an alias


def test_tv_denoise_never_raises_total_variation():
    rng = make_rng(102)
    g = rng.random((16, 16))
    for weight in (0.05, 0.2, 1.0):
        assert total_variation(tv_denoise(g, weight)) <= total_variation(g) + 1e-12


def test_tv_denoise_decreases_rof_energy():
    """The output must beat the input on 0.5||u - g||^2 + w TV(u)."""
    rng = make_rng(103)
    g = rng.random((16, 16))
    w = 0.3
    out = tv_denoise(g, w, iters=50)
    e_in = w * total_variation(g)
    e_out = 0.5 * float(np.sum((out - g) ** 2)) + w * total_variation(out)
    assert e_out < e_in


def test_tv_denoise_smooths_noise_around_an_edge():
    rng = make_rng(104)
    edge = np.zeros((24, 24))
    edge[:, 12:] = 1.0
    noisy = edge + 0.2 * rng.normal(size=edge.shape)
    out = tv_denoise(noisy, weight=0.15, iters=40)
    assert np.abs(out - edge).mean() < np.abs(noisy - edge).mean()


def test_tv_denoise_long_run_frozen_reference():
    """200 dual iterations on a seeded 8x8 patch, values frozen once."""
    g = make_rng(99).random((8, 8))
    out = tv_denoise(g, weight=0.3, iters=200)
    assert out.mean() == pytest.approx(0.504511689951446, abs=1e-12)
    assert out.std() == pytest.approx(0.008517733731102, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.511936205658334, abs=1e-12)
    assert out[4, 4] == pytest.approx(0.505708484341209, abs=1e-12)
    assert total_variation(out) == pytest.approx(0.193929124587135, abs=1e-9)


def test_tv_denoise_treats_bands_independently():
    rng = make_rng(105)
    cube = rng.random((10, 10, 3))
    full = tv_denoise(cube, weight=0.2)
    for band in range(3):
        np.testing.assert_array_equal(full[:, :, band],
                                      tv_denoise(cube[:, :, band], weight=0.2))


def test_tv_denoise_input_validation():
    with pytest.raises(ParameterError):
        tv_denoise(np.ones((4, 4)), weight=-0.1)
    with pytest.raises(ParameterError):
        tv_denoise(np.ones((4, 4)), weight=0.1, iters=0)
    with pytest.raises(ShapeError):
        tv_denoise(np.ones(16), weight=0.1)
    for weight in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite"):
            tv_denoise(np.ones((4, 4)), weight=weight)


def test_tv_denoise_on_a_single_row_or_column():
    """Across a length-1 axis the gradient is zero: a 1xW plane denoises as
    its Wx1 transpose does, and its total variation does not rise."""
    row = make_rng(106).random((1, 16))
    out = tv_denoise(row, weight=0.2)
    np.testing.assert_array_equal(out, tv_denoise(row.T, weight=0.2).T)
    assert total_variation(out) <= total_variation(row)
    cube = np.stack([row, 2.0 * row], axis=2)
    np.testing.assert_array_equal(tv_denoise(cube, weight=0.2)[:, :, 0], out)


def test_tv_denoise_allocates_nothing_per_iteration():
    g = make_rng(107).random((64, 64))
    peaks = []
    for iters in (1, 200):
        tracemalloc.start()
        tv_denoise(g, weight=0.1, iters=iters)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 4096


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

def test_psnr_identical_hits_the_cap():
    a = make_rng(106).random((8, 8, 3))
    assert psnr(a, a) == PSNR_CAP_DB


def test_psnr_constant_offset_hand_value():
    a = np.zeros((16, 16))
    b = np.full((16, 16), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)  # 10 log10(1 / 0.01)


def test_psnr_rejects_bad_pairs():
    with pytest.raises(ShapeError):
        psnr(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(MetricError):
        psnr(np.array([np.nan]), np.array([0.0]))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def ssim_loops(a, b, data_range=1.0):
    """Valid-window oracle: explicit Gaussian window, one window at a time."""
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g1 = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    win = np.outer(g1, g1)
    win /= win.sum()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    h, w = a.shape
    vals = []
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(w - SSIM_WINDOW + 1):
            pa = a[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            pb = b[i:i + SSIM_WINDOW, j:j + SSIM_WINDOW]
            mu_a = float(np.sum(win * pa))
            mu_b = float(np.sum(win * pb))
            var_a = float(np.sum(win * pa * pa)) - mu_a ** 2
            var_b = float(np.sum(win * pb * pb)) - mu_b ** 2
            cov = float(np.sum(win * pa * pb)) - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def test_ssim_identical_is_one():
    a = make_rng(108).random((16, 16))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_matches_window_loop_oracle():
    rng = make_rng(109)
    a = rng.random((18, 20))
    b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0.0, 1.0)
    assert ssim(a, b) == pytest.approx(ssim_loops(a, b), abs=1e-8)


def test_ssim_cube_averages_band_scores():
    rng = make_rng(110)
    a = rng.random((16, 16, 3))
    b = np.clip(a + 0.05 * rng.normal(size=a.shape), 0.0, 1.0)
    per_band = [ssim(a[:, :, i], b[:, :, i]) for i in range(3)]
    assert ssim(a, b) == pytest.approx(np.mean(per_band), abs=1e-12)


def test_ssim_penalizes_degradation_monotonically():
    rng = make_rng(111)
    a = rng.random((24, 24))
    mild = np.clip(a + 0.05 * rng.normal(size=a.shape), 0, 1)
    harsh = np.clip(a + 0.3 * rng.normal(size=a.shape), 0, 1)
    assert 1.0 > ssim(a, mild) > ssim(a, harsh)


def test_ssim_input_validation():
    small = np.ones((8, 8))
    with pytest.raises(ShapeError):
        ssim(small, small)  # below the 11x11 window


# ---------------------------------------------------------------------------
# spectral angle
# ---------------------------------------------------------------------------

def test_sam_identical_and_scaled_spectra_have_zero_angle():
    a = make_rng(112).random((6, 6, 4)) + 0.1
    assert sam(a, a) == pytest.approx(0.0, abs=1e-6)
    assert sam(a, 3.0 * a) == pytest.approx(0.0, abs=1e-6)


def test_sam_orthogonal_spectra_score_ninety_degrees():
    a = np.zeros((2, 2, 2))
    b = np.zeros((2, 2, 2))
    a[..., 0] = 1.0
    b[..., 1] = 1.0
    assert sam(a, b) == pytest.approx(90.0, abs=1e-12)


def test_sam_skips_zero_spectra_and_counts_them():
    a = np.ones((2, 2, 3))
    b = np.ones((2, 2, 3))
    a[0, 0] = 0.0
    b[1, 1] = 0.0
    b[0, 1] = [1.0, 0.0, 0.0]
    # two pixels skipped: the mean runs over the other two, one of them at
    # arccos(1/sqrt(3)); counting a skipped pixel at 0 or 90 degrees moves it
    angle = sam(a, b)
    assert angle == pytest.approx(np.degrees(np.arccos(1 / np.sqrt(3))) / 2, abs=1e-12)
    with pytest.raises(MetricError):
        sam(np.zeros((2, 2, 3)), np.ones((2, 2, 3)))


def test_sam_requires_cubes():
    with pytest.raises(ShapeError):
        sam(np.ones((4, 4)), np.ones((4, 4)))


# ---------------------------------------------------------------------------
# the Charbonnier training loss (eps 1e-3)
# ---------------------------------------------------------------------------

def charbonnier(a, b) -> float:
    return float(charbonnier_loss(Tensor(a), Tensor(b)).data)


def test_charbonnier_hand_values():
    a = np.zeros((2, 2))
    assert charbonnier(a, a) == pytest.approx(1e-3, abs=1e-18)
    b = np.full((2, 2), 3.0)
    want = np.sqrt(9.0 + 1e-6)
    assert charbonnier(a, b) == pytest.approx(want, abs=1e-12)


def test_charbonnier_interpolates_between_l2_and_l1():
    a = np.zeros(100)
    tiny = np.full(100, 1e-6)
    big = np.full(100, 10.0)
    # far below eps the penalty is flat near eps; far above it tracks |diff|
    assert charbonnier(a, tiny) == pytest.approx(1e-3, rel=1e-5)
    assert charbonnier(a, big) == pytest.approx(10.0, rel=1e-7)
