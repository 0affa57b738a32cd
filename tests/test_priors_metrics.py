"""Prior and metric tests: the dual TV iteration against its variational
contract, a plain 2-D reference and frozen references, plus the quality
metrics against hand formulas and loop oracles."""

import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cassikit import metrics, priors
from cassikit.errors import MetricError, ParameterError, ShapeError
from cassikit.metrics import (PSNR_CAP_DB, SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW, psnr,
                              sam, ssim)
from cassikit.priors import (DUAL_STEP, F32_SPAN, _div_flat, _grad_flat, fits_float32,
                             total_variation, tv_denoise)
from cassikit.tensor import Tensor
from cassikit.train import charbonnier_loss

from conftest import band_major, make_rng


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


# float32 entries: exact signed zeros, float32 subnormals and ordinary values
_tv_entries_f32 = st.one_of(
    st.sampled_from([float(np.float32(v)) for v in (0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40)]),
    st.floats(-4.0, 4.0, width=32, allow_nan=False, allow_subnormal=False))


@settings(max_examples=60)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 3), st.data())
def test_tv_kernel_matches_the_2d_reference_bit_for_bit_in_float32(h, w, n, data):
    """The same reference run on float32 planes: every op, the Python-float
    weight included, then rounds to float32 as the kernel's do."""
    cube = data.draw(hnp.arrays(np.float32, (h, w, n), elements=_tv_entries_f32))
    weight = data.draw(st.floats(1e-3, 10.0))
    iters = data.draw(st.integers(1, 30))
    out = tv_denoise(cube, weight, iters)
    assert out.dtype == np.float32
    for band in range(n):
        want = ref_tv_plane(np.ascontiguousarray(cube[:, :, band]), weight, iters)
        assert want.dtype == np.float32
        assert_same_bits(out[:, :, band], want)
        assert_same_bits(tv_denoise(cube[:, :, band].T, weight, iters),
                         ref_tv_plane(np.ascontiguousarray(cube[:, :, band].T), weight, iters))


@pytest.mark.parametrize("dtype,want", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float16, np.float64), (np.int64, np.float64)])
def test_tv_denoise_keeps_float32_and_reads_any_other_dtype_as_float64(dtype, want):
    g = (make_rng(112).random((6, 7, 2)) * 4).astype(dtype)
    for weight in (0.0, 0.2):
        out = tv_denoise(g, weight)
        assert out.dtype == want
        if want == np.float64:
            assert_same_bits(out, tv_denoise(g.astype(np.float64), weight))


def test_float32_range_rule_edges():
    lo, hi = 1.0 / F32_SPAN, F32_SPAN

    def fits(peak, weight):
        return fits_float32(np.array([0.5 * peak, -peak], dtype=np.float32), weight)

    assert fits(1.0, lo) and fits(0.0, hi) and fits(hi * hi, hi)
    assert not fits(1.0, lo / 2) and not fits(2.0, lo) and not fits(0.0, 2 * hi)
    assert not fits_float32(np.array([np.nan, 1.0], dtype=np.float32), 1.0)
    assert fits_float32(np.zeros((0, 3), dtype=np.float32), 1.0)


@pytest.mark.parametrize("scale,weight", [(1.0, 1e-30), (1.0, 1e-40), (1.0, 1e-72), (1.0, 1e40),
                                          (1.0, 2.0 ** -56), (1.0, 2.0 ** 56), (1e30, 1.0),
                                          (3e38, 2.0 ** 56)])
def test_float32_prox_at_extreme_weights_stays_finite_and_near_float64(scale, weight):
    """Outside the float32 range rule the kernel computes in float64 and
    rounds once; inside it float32 holds every intermediate.  Either way no
    overflow (a RuntimeWarning fails the test) and float32 rounding only."""
    g = (make_rng(113).random((12, 12, 2)) * scale).astype(np.float32)
    out = tv_denoise(g, weight)
    assert out.dtype == np.float32 and np.isfinite(out).all()
    want = tv_denoise(g.astype(np.float64), weight)
    assert np.abs(out - want).max() <= 1e-6 * scale


def test_tv_denoise_never_raises_total_variation_in_float32():
    g = make_rng(102).random((16, 16)).astype(np.float32)
    for weight in (0.05, 0.2, 1.0):
        assert total_variation(tv_denoise(g, weight)) <= total_variation(g)


def test_tv_denoise_decreases_rof_energy_in_float32():
    g = make_rng(103).random((16, 16)).astype(np.float32)
    w = 0.3
    out = tv_denoise(g, w, iters=50).astype(np.float64)
    e_in = w * total_variation(g)
    e_out = 0.5 * float(np.sum((out - g) ** 2)) + w * total_variation(out)
    assert e_out < e_in


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
    for bad in (np.ones(16), np.ones((2, 2, 2, 2))):
        for weight in (0.1, 0.0):  # weight 0 checks the rank before it returns a copy
            with pytest.raises(ShapeError, match="rank 2 or 3"):
                tv_denoise(bad, weight=weight)
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


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 4, 0), (0, 5)])
def test_tv_denoise_of_an_empty_input_is_an_empty_copy(shape):
    for dtype in (np.float32, np.float64):
        g = np.ones(shape, dtype=dtype)
        out = tv_denoise(g, weight=0.1)
        assert out.shape == shape and out.dtype == dtype and out is not g


def test_tv_denoise_allocates_nothing_per_iteration(monkeypatch):
    """tracemalloc sees every thread's allocations: per call, the caller's
    7 planes per worker and the output, and nothing per iteration.  The
    band-major copy, all that weight 0 runs, goes in strips of 4 KB here
    (2 rows of a C-ordered cube) and allocates nothing beside the output."""
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    monkeypatch.setattr(priors, "_STRIP_BYTES", 4096)
    cube = make_rng(107).random((64, 64, 4))
    for g, workers in ((cube[:, :, 0].copy(), 1), (cube, 2), (band_major(cube), 2),
                       (cube[:, ::2], 2)):
        monkeypatch.setattr(priors, "_cores", lambda: workers)
        h, w = g.shape[:2]
        tracemalloc.start()
        tv_denoise(g, weight=0.0)
        copy_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert copy_peak <= g.size * 8 + 1024
        peaks = []
        for iters in (1, 200):
            tracemalloc.start()
            tv_denoise(g, weight=0.1, iters=iters)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4096
        assert peaks[1] <= (7 * workers * h * w + g.size) * 8 + 16384


@pytest.mark.parametrize("weight", [1e-40, 1e40, 1e-72, 2.0 ** -57])
def test_float32_prox_outside_the_range_rule_is_the_rounded_float64_prox(weight):
    """The float64 fallback divides the float32 band in float64 and rounds
    once at the end: bit for bit the float64 prox, signs of zero included."""
    g = (make_rng(114).random((9, 11, 3)) - 0.5).astype(np.float32)
    g[0, :3, 0] = [0.0, -0.0, 0.0]
    assert not fits_float32(g, weight)
    assert_same_bits(tv_denoise(g, weight),
                     tv_denoise(g.astype(np.float64), weight).astype(np.float32))


def count_thread_starts(monkeypatch) -> list:
    """Record every thread that priors starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(priors.threading, "Thread", Recorded)
    return started


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tv_bands_have_the_same_bits_for_any_worker_count(monkeypatch, dtype):
    """More workers than cores, switching threads every microsecond: a band
    lost or written twice would change the bits."""
    g = (make_rng(115).random((12, 10, 5)) * 3).astype(dtype)
    want = np.stack([tv_denoise(g[:, :, band], 0.2) for band in range(5)], axis=2)
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 3, 7):
            monkeypatch.setattr(priors, "_cores", lambda: cores)
            del started[:]
            assert_same_bits(tv_denoise(g, 0.2), want)
            assert len(started) == min(cores, 5) - 1
            assert not any(thread.is_alive() for thread in started)
            del started[:]
            tv_denoise(g[:, :, :1], 0.2)  # one band: no thread
            tv_denoise(g[:, :, 0], 0.2)
            assert started == []
    finally:
        sys.setswitchinterval(interval)


def test_tv_bands_stay_on_the_calling_thread_below_the_threaded_plane_size(monkeypatch):
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(priors, "_cores", lambda: 4)
    tv_denoise(np.ones((255, 257, 4), dtype=np.float32), 0.2, iters=1)
    assert started == []
    tv_denoise(np.ones((256, 256, 4), dtype=np.float32), 0.2, iters=1)
    assert len(started) == 3


def test_a_worker_error_is_raised_in_the_caller_after_every_worker_ends(failing_tv_worker):
    before = threading.active_count()
    with pytest.raises(MemoryError, match="1.00 TiB"):
        tv_denoise(make_rng(116).random((8, 8, 4)), 0.2)
    assert threading.active_count() == before


def is_band_major(x) -> bool:
    return x.transpose(2, 0, 1).flags.c_contiguous


LAYOUTS = {"C": lambda x: x, "band-major": band_major,
           "strided": lambda x: np.repeat(x, 2, axis=1)[:, 1::2]}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype,weight", [(np.float32, 0.2), (np.float64, 0.2),
                                          (np.float32, 1e-40), (np.float32, 1e40)])
def test_tv_denoise_returns_band_major_cubes_with_the_reference_bits(monkeypatch, layout,
                                                                     dtype, weight):
    """Every input layout, float32, float64 and the float64 fallback of a
    float32 input, on 1, 2, 3 and 7 workers: each band's plane comes back
    contiguous, with the 2-D reference's bits (rounded once to float32 in
    the fallback)."""
    g = ((make_rng(118).random((12, 10, 5)) - 0.3) * 3).astype(dtype)
    g[0, :3, 1] = [0.0, -0.0, 0.0]
    wide = dtype == np.float32 and not fits_float32(g, weight)
    assert wide == (weight != 0.2)
    ref = g.astype(np.float64) if wide else g
    want = np.stack([ref_tv_plane(ref[:, :, band], weight, 20) for band in range(5)], axis=2)
    want = want.astype(dtype)
    x = LAYOUTS[layout](g)
    assert np.array_equal(x, g) and (layout == "C") == x.flags.c_contiguous
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(priors, "_cores", lambda: cores)
        del started[:]
        out = tv_denoise(x, weight)
        assert out.dtype == dtype and is_band_major(out)
        assert_same_bits(out, want)
        assert len(started) == min(cores, 5) - 1


def test_a_2d_input_gives_a_row_major_plane():
    g = make_rng(119).random((9, 7)).astype(np.float32)
    for x in (g, g.T.copy().T, np.repeat(g, 2, axis=1)[:, ::2]):
        for weight in (0.3, 0.0):
            out = tv_denoise(x, weight)
            assert out.shape == (9, 7) and out.flags.c_contiguous
            assert_same_bits(out, ref_tv_plane(g, weight, 20) if weight else g)
    assert is_band_major(tv_denoise(np.ones((4, 4, 3)), 0.0))


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
    with pytest.raises(MetricError):
        psnr(np.zeros(2, dtype=np.float32), np.array([0.0, np.inf], dtype=np.float32))


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 4, 0), (0,), (0, 5)])
def test_metrics_refuse_empty_operands_without_a_warning(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric in (psnr, ssim, sam):
            with pytest.raises(ShapeError, match="empty"):
                metric(np.zeros(shape), np.zeros(shape))


def _psnr_on_widened_copies(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / float(np.mean((a - b) ** 2))))


@pytest.mark.parametrize("da,db", [(np.float32, np.float64), (np.float64, np.float32),
                                   (np.float64, np.float64), (np.float32, np.float32)])
def test_psnr_equals_the_widened_formula_bit_for_bit(da, db):
    rng = make_rng(114)
    a = rng.random((20, 24, 3))
    b = a + 0.05 * rng.normal(size=a.shape)
    # contiguous, and band-major as read_cube lays a cube out
    for a_, b_ in ((a, b), (a.transpose(2, 0, 1).copy().transpose(1, 2, 0), b)):
        a_, b_ = a_.astype(da), b_.astype(db)
        assert psnr(a_, b_) == _psnr_on_widened_copies(a_, b_)


@pytest.mark.parametrize("shape", [(24, 20, 28), (3, 300, 28)])  # chunks of 3 rows; of 1
@pytest.mark.parametrize("da,db", [(np.float32, np.float32), (np.float64, np.float32)])
def test_psnr_of_band_major_pairs_equals_the_c_order_formula_bit_for_bit(monkeypatch, da, db,
                                                                         shape):
    """The squared errors are row-major whatever the operands' layout, so
    the mean sums in one order: a band-major pair, as the TV route scores
    its prox output against a cube from read_cube, reads the C-order value
    on 1, 2, 3 and 7 workers.  Unit noise puts the MSE near 1, where PSNR
    is near 0 dB and the last bit of the MSE shows in the result."""
    rng = make_rng(120)
    a = rng.random(shape)
    b = a + rng.normal(size=a.shape)
    a, b = a.astype(da), b.astype(db)
    want = _psnr_on_widened_copies(np.ascontiguousarray(a), np.ascontiguousarray(b))
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(metrics, "CHUNK", 2000)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(priors, "_cores", lambda: cores)
        for a_, b_ in ((a, b), (band_major(a), band_major(b)), (band_major(a), b),
                       (LAYOUTS["strided"](a), band_major(b))):
            del started[:]
            assert psnr(a_, b_) == want
            assert len(started) == (0 if a_ is a else cores - 1)


def test_psnr_of_float32_cubes_allocates_one_float64_buffer(monkeypatch):
    rng = make_rng(115)
    a = rng.random((128, 128, 8)).astype(np.float32)
    b = rng.random((128, 128, 8)).astype(np.float32)
    monkeypatch.setattr(priors, "_cores", lambda: 2)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    for a_, b_, workers in ((a, b, 1), (band_major(a), band_major(b), 2)):
        tracemalloc.start()
        psnr(a_, b_)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the float64 errors plus, per worker, the ufunc's fixed cast buffers
        # (two of 8,192 float64 values) and, for band-major cubes, one chunk
        # of CHUNK float64 values; widened operands would add two more
        # cube-sized buffers
        chunk = 0 if workers == 1 else metrics.CHUNK * 8
        assert peak <= a.size * 8 + workers * (256 * 1024 + chunk)


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


def ssim_formula(a, b):
    """The per-plane SSIM formula in float64, one band after another, each
    expression on whole arrays: the serial computation `ssim` must match
    bit for bit on any number of workers."""
    taps = metrics._gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    k = len(taps)

    def filt(img):
        h, w = img.shape
        rows = taps[0] * img[:h - k + 1]
        for i in range(1, k):
            rows += taps[i] * img[i:h - k + 1 + i]
        out = taps[0] * rows[:, :w - k + 1]
        for j in range(1, k):
            out += taps[j] * rows[:, j:w - k + 1 + j]
        return out

    def plane(x, y):
        mu_x, mu_y, e_xx, e_yy, e_xy = (filt(img) for img in (x, y, x * x, y * y, x * y))
        var_x = e_xx - mu_x * mu_x
        var_y = e_yy - mu_y * mu_y
        cov = e_xy - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + SSIM_K1 ** 2) * (2.0 * cov + SSIM_K2 ** 2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_K1 ** 2) * (var_x + var_y + SSIM_K2 ** 2)
        return float(np.mean(num / den))

    a, b = np.atleast_3d(a), np.atleast_3d(b)
    return float(np.mean([plane(np.ascontiguousarray(a[:, :, i], dtype=np.float64),
                                np.ascontiguousarray(b[:, :, i], dtype=np.float64))
                          for i in range(a.shape[2])]))


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


@pytest.mark.parametrize("da,db", [(np.float32, np.float32), (np.float64, np.float32)])
def test_ssim_has_the_serial_formulas_bits_on_any_number_of_workers(monkeypatch, da, db):
    """More workers than cores, switching threads every microsecond: a band
    scored twice, lost, or averaged out of order would change the bits."""
    rng = make_rng(121)
    a = rng.random((20, 17, 5))
    b = np.clip(a + 0.1 * rng.normal(size=a.shape), 0.0, 1.0)
    a, b = a.astype(da), band_major(b.astype(db))
    want = ssim_formula(a, b)
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 3, 7):
            monkeypatch.setattr(priors, "_cores", lambda: cores)
            del started[:]
            assert ssim(a, b) == want
            assert len(started) == min(cores, 5) - 1
            assert not any(thread.is_alive() for thread in started)
    finally:
        sys.setswitchinterval(interval)


def test_an_ssim_worker_error_is_raised_in_the_caller_after_every_worker_ends(monkeypatch):
    """The worker that is not the calling thread runs out of memory late,
    after worker 0 is done, so a caller that did not wait would return."""
    gaussian_filter = metrics._gaussian_filter
    caller = threading.current_thread()

    def failing(*args):
        if threading.current_thread() is not caller:
            time.sleep(0.05)
            raise MemoryError("Unable to allocate 1.00 TiB")
        return gaussian_filter(*args)

    monkeypatch.setattr(metrics, "_gaussian_filter", failing)
    monkeypatch.setattr(priors, "_cores", lambda: 2)
    monkeypatch.setattr(priors, "_THREADED_PLANE", 0)
    a = make_rng(122).random((16, 16, 4))
    before = threading.active_count()
    with pytest.raises(MemoryError, match="1.00 TiB"):
        ssim(a, a)
    assert threading.active_count() == before


@pytest.mark.parametrize("metric", [ssim, psnr])
def test_ssim_and_psnr_stay_on_the_calling_thread_below_the_threaded_plane_size(monkeypatch,
                                                                              metric):
    started = count_thread_starts(monkeypatch)
    monkeypatch.setattr(priors, "_cores", lambda: 4)
    small = band_major(np.ones((255, 257, 4), dtype=np.float32))
    metric(small, small)
    metric(np.ones((64, 64)), np.ones((64, 64)))
    assert started == []
    big = band_major(np.ones((256, 256, 4), dtype=np.float32))
    metric(big, big)
    assert len(started) == 3


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
# SSIM and SAM on float32 cubes: no whole-cube float64 copy, same bits
# ---------------------------------------------------------------------------

def _sam_on_widened_cubes(a, b):
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    flat_a, flat_b = a.reshape(-1, a.shape[2]), b.reshape(-1, b.shape[2])
    na, nb = np.linalg.norm(flat_a, axis=1), np.linalg.norm(flat_b, axis=1)
    valid = (na > 0) & (nb > 0)
    dots = np.sum(flat_a[valid] * flat_b[valid], axis=1)
    cosines = np.clip(dots / (na[valid] * nb[valid]), -1.0, 1.0)
    return float(np.mean(np.degrees(np.arccos(cosines))))


@pytest.mark.parametrize("shape", [(16, 20, 3), (40, 300, 28)])  # one chunk; many, the last short
@pytest.mark.parametrize("da,db", [(np.float32, np.float32), (np.float32, np.float64),
                                   (np.float64, np.float64)])
def test_ssim_and_sam_equal_the_whole_cube_formulas_bit_for_bit(shape, da, db):
    rng = make_rng(116)
    a = rng.random(shape)
    b = np.clip(a + 0.05 * rng.normal(size=shape), 0.0, 1.0)
    a[0, :2] = 0.0  # zero spectra, skipped by SAM
    # contiguous, and band-major as read_cube lays a cube out
    for a_, b_ in ((a, b), (a.transpose(2, 0, 1).copy().transpose(1, 2, 0), b),
                   (a, b.transpose(2, 0, 1).copy().transpose(1, 2, 0))):
        a_, b_ = a_.astype(da), b_.astype(db)
        assert ssim(a_, b_) == ssim_formula(a_, b_)
        assert sam(a_, b_) == _sam_on_widened_cubes(a_, b_)


@pytest.mark.parametrize("side,cores", [(128, 1), (256, 2)])
@pytest.mark.parametrize("metric", [ssim, sam])
def test_ssim_and_sam_of_float32_cubes_allocate_less_than_one_float64_cube(monkeypatch, metric,
                                                                           side, cores):
    monkeypatch.setattr(priors, "_cores", lambda: cores)
    rng = make_rng(117)
    a = rng.random((side, side, 28)).astype(np.float32)
    b = rng.random((side, side, 28)).astype(np.float32)
    tracemalloc.start()
    metric(a, b)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # one band pair per SSIM worker, each in SSIM_PLANES planes, or one
    # chunk of rows (SAM) is widened at a time; widening both operands
    # whole would take two of these
    assert peak < a.size * 8


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
