"""Engine tests: op values against numpy oracles, gradients against finite
differences, and the graph bookkeeping rules."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cassikit import tensor as T
from cassikit.cassi import HsiCube, SensingOperator, random_binary_mask
from cassikit.degradation import den_forward, register_den_params
from cassikit.errors import (GraphStateError, NumericalError, ParameterError,
                             ShapeError)
from cassikit.params import Initializer, ParamStore
from cassikit.tensor import Graph, Tensor, backward, fd_gradcheck, no_grad
from cassikit.transformer import LnltConfig, _register_block, block_forward

from conftest import make_rng


def leaf(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float array, so equality also sees the sign of zero."""
    return np.ascontiguousarray(a).view(np.uint32 if a.dtype == np.float32 else np.uint64)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

ELEMENTWISE_CASES = [
    ("add", lambda a, b: T.add(a, b), lambda a, b: a + b),
    ("sub", lambda a, b: T.sub(a, b), lambda a, b: a - b),
    ("mul", lambda a, b: T.mul(a, b), lambda a, b: a * b),
    ("div", lambda a, b: T.div(a, b), lambda a, b: a / b),
]


@pytest.mark.parametrize("name,fn,ref", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_binary_elementwise_values(name, fn, ref):
    rng = make_rng(10)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
    got = fn(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, ref(a, b), rtol=0, atol=1e-15)


def test_broadcasting_matches_numpy():
    rng = make_rng(11)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4,))
    np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_array_equal(T.mul(Tensor(a), Tensor(b)).data, a * b)


def test_operator_sugar_matches_functions():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
    np.testing.assert_array_equal((a + b).data, [4.0, 7.0])
    np.testing.assert_array_equal((a - b).data, [-2.0, -3.0])
    np.testing.assert_array_equal((a * b).data, [3.0, 10.0])
    np.testing.assert_array_equal((a / b).data, [1.0 / 3.0, 2.0 / 5.0])
    np.testing.assert_array_equal((-a).data, [-1.0, -2.0])
    np.testing.assert_array_equal((2.0 + a).data, [3.0, 4.0])


def test_relu_and_clamp_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(T.relu(Tensor(x)).data, np.maximum(x, 0.0))
    np.testing.assert_array_equal(T.clamp(Tensor(x), -1.0, 1.0).data, np.clip(x, -1.0, 1.0))


def test_clamp_rejects_inverted_bounds():
    with pytest.raises(ParameterError):
        T.clamp(Tensor([0.0]), 1.0, -1.0)


def test_gelu_matches_tanh_formula():
    """The activation is the tanh approximation with the published constants."""
    x = np.linspace(-4.0, 4.0, 41)
    got = T.gelu(Tensor(x)).data
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
    want = 0.5 * x * (1.0 + np.tanh(inner))
    np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("value", [0.5, [0.5], [[-1.5]]], ids=["0-d", "1-element", "1x1"])
def test_gelu_of_a_single_value(value):
    a = leaf(value)
    out = T.gelu(a)
    assert out.shape == a.shape
    x = 0.5 if np.ndim(value) == 0 else np.ravel(value)[0]
    want = 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))
    assert float(out.data.reshape(())) == want
    assert np.isfinite(backward(out)[a]).all()


def test_gelu_leaves_its_input_unchanged():
    x = make_rng(19).normal(size=(4, 5, 3))
    a = leaf(x.copy())
    out = T.gelu(a)
    backward(out, seed=np.ones(out.shape))
    np.testing.assert_array_equal(a.data, x)
    assert not np.shares_memory(out.data, a.data)


def test_softplus_is_stable_and_correct():
    x = np.array([-700.0, -10.0, 0.0, 10.0, 700.0])
    got = T.softplus(Tensor(x)).data
    np.testing.assert_allclose(got, np.logaddexp(0.0, x), atol=1e-15)
    assert got.min() > 0.0
    assert np.isfinite(got).all()


def test_softmax_rows_normalize():
    rng = make_rng(12)
    x = rng.normal(size=(5, 7)) * 30.0  # large logits stay stable
    y = T.softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(5), atol=1e-12)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(y, e / e.sum(axis=-1, keepdims=True), atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 1, 3), (4, 2, 16, 16), (1, 4, 9, 9), (2, 3, 7, 13)])
def test_softmax_in_place_keeps_the_bits_of_fresh_outputs(shape):
    """The shared softmax exponentiates and normalizes in its own buffer; the
    result matches fresh numpy outputs bit for bit, SIMD tail lengths too."""
    x = make_rng(14).normal(size=shape) * 5.0
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    kept = x.copy()
    got = T._softmax(x)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(x, kept)


def test_layer_norm_matches_manual_formula():
    rng = make_rng(13)
    x = rng.normal(size=(6, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    got = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_layer_norm_validates_affine_shapes():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_matmul_batched():
    rng = make_rng(14)
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 4, 5))
    np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b, atol=1e-14)


def test_shape_ops_roundtrip():
    rng = make_rng(15)
    x = rng.normal(size=(2, 3, 4))
    assert T.reshape(Tensor(x), (4, 6)).shape == (4, 6)
    pieces = [Tensor(x), Tensor(x)]
    np.testing.assert_array_equal(T.concat(pieces, axis=2).data, np.concatenate([x, x], axis=2))
    np.testing.assert_array_equal(T.slice_lastdim(Tensor(x), 1, 3).data, x[..., 1:3])


def test_slice_bounds_checked():
    with pytest.raises(ShapeError):
        T.slice_lastdim(Tensor(np.ones((2, 3))), 2, 2)
    with pytest.raises(ShapeError):
        T.slice_lastdim(Tensor(np.ones((2, 3))), 0, 4)


@pytest.mark.parametrize("axis", [None, 0, 1, (0, 2), -1])
def test_reductions_match_numpy(axis):
    rng = make_rng(16)
    x = rng.normal(size=(3, 4, 5))
    np.testing.assert_allclose(T.reduce_sum(Tensor(x), axis=axis).data, np.sum(x, axis=axis),
                               atol=1e-13)
    np.testing.assert_allclose(T.reduce_mean(Tensor(x), axis=axis).data, np.mean(x, axis=axis),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# convolution oracles (naive loops, no shared code with the implementation)
# ---------------------------------------------------------------------------

def conv2d_loops(x, w, b, stride, padding, groups):
    h, wd, cin = x.shape
    kh, kw, cin_g, cout = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    co_g = cout // groups
    out = np.zeros((ho, wo, cout))
    for oi in range(ho):
        for oj in range(wo):
            for oc in range(cout):
                gi = oc // co_g
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        for ic in range(cin_g):
                            acc += (xp[oi * stride + di, oj * stride + dj, gi * cin_g + ic]
                                    * w[di, dj, ic, oc])
                out[oi, oj, oc] = acc
    return out + (b if b is not None else 0.0)


CONV_CASES = [
    # kh, kw, stride, padding, cin, cout, groups
    (1, 1, 1, 0, 3, 5, 1),
    (3, 3, 1, 1, 4, 4, 1),
    (3, 3, 1, 1, 4, 4, 4),   # depthwise
    (5, 3, 2, 2, 2, 4, 1),
]


@pytest.mark.parametrize("kh,kw,stride,padding,cin,cout,groups", CONV_CASES)
def test_conv2d_against_loop_oracle(kh, kw, stride, padding, cin, cout, groups):
    rng = make_rng(17)
    x = rng.normal(size=(8, 9, cin))
    w = rng.normal(size=(kh, kw, cin // groups, cout))
    b = rng.normal(size=cout)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                   padding=padding, groups=groups).data
    want = conv2d_loops(x, w, b, stride, padding, groups)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv2d_validates_channels_and_geometry():
    x = Tensor(np.ones((4, 4, 3)))
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.ones((3, 3, 2, 4))), np.zeros(4))  # 2 * groups != 3
    with pytest.raises(ShapeError):
        T.conv2d(x, Tensor(np.ones((9, 9, 3, 1))), np.zeros(1))  # kernel larger than input
    with pytest.raises(ParameterError):
        T.conv2d(x, Tensor(np.ones((1, 1, 3, 1))), np.zeros(1), stride=0)
    x4 = Tensor(np.ones((4, 4, 4)))  # groups is 1 (dense) or Cin == Cout (depthwise)
    with pytest.raises(ParameterError):
        T.conv2d(x4, Tensor(np.ones((3, 3, 2, 4))), np.zeros(4), groups=2)
    with pytest.raises(ParameterError):
        T.conv2d(x4, Tensor(np.ones((3, 3, 1, 8))), np.zeros(8), groups=4)  # Cout != Cin
    with pytest.raises(ParameterError):
        T.conv2d(x4, Tensor(np.ones((3, 3, 4, 4))), np.zeros(4), groups=0)


def conv_transpose_loops(x, w, b):
    h, wd, cin = x.shape
    s, _, _, cout = w.shape
    out = np.zeros((h * s, wd * s, cout))
    for i in range(h):
        for j in range(wd):
            for di in range(s):
                for dj in range(s):
                    for oc in range(cout):
                        out[i * s + di, j * s + dj, oc] = x[i, j] @ w[di, dj, :, oc]
    return out + (b if b is not None else 0.0)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_transpose2d_against_loop_oracle(stride):
    rng = make_rng(18)
    x = rng.normal(size=(3, 4, 5))
    w = rng.normal(size=(stride, stride, 5, 2))
    b = rng.normal(size=2)
    got = T.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, conv_transpose_loops(x, w, b), atol=1e-12)


def test_conv_transpose2d_kernel_must_match_stride():
    with pytest.raises(ShapeError):
        T.conv_transpose2d(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 3, 1))), np.zeros(1))


# Random geometries: forward against the loop oracle, backward through the
# adjoint identities of a bilinear map, <g, conv(x, w)> = <dx, x> = <dw, w>.

@st.composite
def conv_geometries(draw):
    depthwise = draw(st.booleans())
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cin = draw(st.integers(1, 4))
    cout = cin if depthwise else draw(st.integers(1, 4))
    h = draw(st.integers(max(1, kh - 2 * padding), 8))
    w = draw(st.integers(max(1, kw - 2 * padding), 8))
    return kh, kw, stride, padding, cin, cout, cin if depthwise else 1, h, w


def _assert_adjoint(op, x, w, shape_out, seed):
    rng = make_rng(seed)
    xt, wt = leaf(x), leaf(w)
    out = op(xt, wt)
    assert out.shape == shape_out
    g = rng.normal(size=shape_out)
    grads = backward(out, seed=g)
    inner = float(np.sum(g * out.data))
    scale = max(1.0, abs(inner))
    assert abs(float(np.sum(grads[xt] * x)) - inner) <= 1e-10 * scale
    assert abs(float(np.sum(grads[wt] * w)) - inner) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@example((4, 4, 2, 1, 3, 4, 1, 8, 8))   # the LNLT down-sampling conv
@example((3, 3, 1, 1, 4, 4, 4, 5, 6))   # the depthwise 3x3
@example((1, 1, 3, 3, 1, 2, 1, 1, 1))   # most outputs read only padding
@given(conv_geometries())
def test_conv2d_random_geometry_matches_oracle_and_adjoint(geometry):
    kh, kw, stride, padding, cin, cout, groups, h, w = geometry
    rng = make_rng(30)
    x = rng.normal(size=(h, w, cin))
    k = rng.normal(size=(kh, kw, cin // groups, cout))
    b = rng.normal(size=cout)
    got = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding, groups).data
    want = conv2d_loops(x, k, b, stride, padding, groups)
    np.testing.assert_allclose(got, want, atol=1e-12)
    _assert_adjoint(lambda xt, wt: T.conv2d(xt, wt, np.zeros(cout), stride, padding, groups),
                    x, k, want.shape, seed=31)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 4))
def test_conv_transpose2d_random_geometry_is_adjoint(stride, h, w, cin, cout):
    rng = make_rng(32)
    x = rng.normal(size=(h, w, cin))
    k = rng.normal(size=(stride, stride, cin, cout))
    _assert_adjoint(lambda xt, wt: T.conv_transpose2d(xt, wt, np.zeros(cout)),
                    x, k, (h * stride, w * stride, cout), seed=33)


# Row strips: the forward sums each strip of output rows over all kernel taps
# before the next strip.  A small strip constant splits the oracle planes.

def _strip_bytes(rows: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int,
                 cout: int) -> int:
    """tensor._STRIP_BYTES that makes conv2d forward `rows` output rows at a time."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    assert ho > rows, "the plane must span more than one strip"
    return rows * wo * cout * 8


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("kh,kw,stride,padding,cin,cout,groups", CONV_CASES)
def test_conv2d_in_row_strips_matches_loop_oracle(monkeypatch, kh, kw, stride, padding, cin,
                                                  cout, groups, rows):
    monkeypatch.setattr(T, "_STRIP_BYTES", _strip_bytes(rows, 8, 9, kh, kw, stride, padding, cout))
    rng = make_rng(17)
    x = rng.normal(size=(8, 9, cin))
    w = rng.normal(size=(kh, kw, cin // groups, cout))
    b = rng.normal(size=cout)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                   padding=padding, groups=groups).data
    np.testing.assert_allclose(got, conv2d_loops(x, w, b, stride, padding, groups), atol=1e-12)


@settings(max_examples=40, deadline=None)
@example((4, 4, 2, 1, 3, 4, 1, 8, 8), 1)
@example((3, 3, 1, 1, 4, 4, 4, 5, 6), 2)
@example((5, 3, 2, 2, 2, 4, 1, 8, 7), 1)
@given(conv_geometries().filter(lambda g: (g[7] + 2 * g[3] - g[0]) // g[2] >= 1),
       st.integers(1, 3))
def test_conv2d_in_row_strips_random_geometry_matches_oracle_and_adjoint(geometry, rows):
    kh, kw, stride, padding, cin, cout, groups, h, w = geometry
    rows = min(rows, (h + 2 * padding - kh) // stride)
    rng = make_rng(30)
    x = rng.normal(size=(h, w, cin))
    k = rng.normal(size=(kh, kw, cin // groups, cout))
    b = rng.normal(size=cout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_STRIP_BYTES", _strip_bytes(rows, h, w, kh, kw, stride, padding, cout))
        got = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding, groups).data
        want = conv2d_loops(x, k, b, stride, padding, groups)
        np.testing.assert_allclose(got, want, atol=1e-12)
        _assert_adjoint(lambda xt, wt: T.conv2d(xt, wt, np.zeros(cout), stride, padding, groups),
                        x, k, want.shape, seed=31)


def conv2d_whole_plane(x, w, b, stride, padding, depthwise):
    """The tap loop without strips: zeros, then each kernel tap in row-major
    order added over the whole output plane, then the bias."""
    h, wd, _ = x.shape
    kh, kw, _, cout = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1

    def span(i, n_in, n_out):
        # outputs o whose input o*stride + i - padding lies inside [0, n_in)
        lo = max(0, -((i - padding) // stride))
        hi = min(n_out, (n_in - 1 + padding - i) // stride + 1)
        start = lo * stride + i - padding
        return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride), hi > lo

    out = np.zeros((ho, wo, cout))
    for i in range(kh):
        ro, ri, rows_ok = span(i, h, ho)
        for j in range(kw):
            co, ci, cols_ok = span(j, wd, wo)
            if rows_ok and cols_ok:
                tap = x[ri, ci] * w[i, j, 0] if depthwise else np.matmul(x[ri, ci], w[i, j])
                out[ro, co] += tap
    out += b
    return out


@pytest.mark.parametrize("h,w,cin,kh,kw,cout,stride,padding,groups", [
    (64, 118, 56, 3, 3, 56, 1, 1, 1),
    (64, 64, 32, 3, 3, 32, 1, 1, 32),
    (150, 121, 6, 5, 3, 24, 2, 2, 1),
], ids=["den-dense", "depthwise", "5x3-stride2-pad2"])
def test_conv2d_strips_are_bit_identical_to_the_whole_plane_sum(h, w, cin, kh, kw, cout, stride,
                                                                padding, groups):
    rng = make_rng(35)
    x = rng.normal(size=(h, w, cin))
    k = rng.normal(size=(kh, kw, cin // groups, cout))
    b = rng.normal(size=cout)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    assert ho * wo * cout * 8 > T._STRIP_BYTES, "the plane must span more than one strip"
    got = T.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding, groups).data
    want = conv2d_whole_plane(x, k, b, stride, padding, groups > 1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # sign of zero too


@pytest.mark.parametrize("h,w,cin,cout", [(1, 1, 1, 1), (3, 5, 4, 6), (6, 2, 7, 3)])
def test_pointwise_conv_backward_matches_brute_force_sums(h, w, cin, cout):
    """dx = g W^T, dW = X^T g and the bias gradient, each against its
    defining sum written as loops."""
    rng = make_rng(37)
    x, k, b = (leaf(rng.normal(size=s)) for s in ((h, w, cin), (1, 1, cin, cout), (cout,)))
    g = rng.normal(size=(h, w, cout))
    grads = backward(T.conv2d(x, k, b), seed=g)
    dx = np.zeros((h, w, cin))
    dw = np.zeros((1, 1, cin, cout))
    db = np.zeros(cout)
    for i in range(h):
        for j in range(w):
            for o in range(cout):
                db[o] += g[i, j, o]
                for c in range(cin):
                    dx[i, j, c] += g[i, j, o] * k.data[0, 0, c, o]
                    dw[0, 0, c, o] += x.data[i, j, c] * g[i, j, o]
    for t, want in ((x, dx), (k, dw), (b, db)):
        np.testing.assert_allclose(grads[t], want, rtol=1e-12, atol=1e-12)


def test_pointwise_conv_gradients_match_finite_differences():
    rng = make_rng(38)
    x = Tensor(rng.normal(size=(5, 4, 3)))
    store = _store_with({"w1": rng.normal(size=(1, 1, 3, 6)) * 0.5, "b1": rng.normal(size=6),
                         "w2": rng.normal(size=(1, 1, 6, 2)) * 0.5, "b2": rng.normal(size=2),
                         "probe": rng.normal(size=(5, 4, 2))})

    def f(p):
        u = T.gelu(T.conv2d(x, p["w1"], p["b1"]))
        return T.reduce_sum(T.mul(T.conv2d(u, p["w2"], p["b2"]), p["probe"]))

    report = fd_gradcheck(f, store, n_samples=40, seed=39)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"


@pytest.mark.parametrize("groups,kh", [(1, 1), (1, 3), (4, 3)], ids=["pointwise", "dense", "depthwise"])
def test_conv2d_backward_computes_no_gradient_for_an_untracked_input(groups, kh):
    rng = make_rng(40)
    x = Tensor(rng.normal(size=(5, 6, 4)))
    out = T.conv2d(x, leaf(rng.normal(size=(kh, kh, 4 // groups, 4))), leaf(np.zeros(4)),
                   padding=kh // 2, groups=groups)
    dx, dw, db = out._bwd(rng.normal(size=out.shape))
    assert dx is None and dw.shape == (kh, kh, 4 // groups, 4) and db.shape == (4,)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gate_equals_gelu_of_the_first_half_times_the_second_bit_for_bit(dtype):
    """Forward and gradient of the one-op gate equal those of slice, gelu and
    mul as separate ops, as raw bits, and its gradient is one buffer."""
    rng = make_rng(41)
    a = Tensor(rng.normal(size=(5, 6, 8)).astype(dtype), requires_grad=True)
    seed = rng.normal(size=(5, 6, 4)).astype(dtype)
    fused = T.gate(a)
    unfused = T.mul(T.gelu(T.slice_lastdim(a, 0, 4)), T.slice_lastdim(a, 4, 8))
    assert fused._op == "gate" and fused._parents == (a,)
    assert fused.data.dtype == dtype
    np.testing.assert_array_equal(bits(fused.data), bits(unfused.data))
    got, want = backward(fused, seed=seed)[a], backward(unfused, seed=seed)[a]
    assert got.shape == a.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(bits(got), bits(want))


@pytest.mark.parametrize("extent", [1, 3])
def test_gate_refuses_an_odd_channel_count(extent):
    with pytest.raises(ShapeError, match="gate needs an even"):
        T.gate(Tensor(np.ones((2, 2, extent))))


def test_channel_sums_of_layer_norm_and_conv_bias_match_numpy_sums():
    """The GEMV sums of gamma's, beta's and a conv bias's gradients agree with
    numpy's axis sums to rounding."""
    rng = make_rng(42)
    x, gamma, beta = (leaf(rng.normal(size=s)) for s in ((6, 5, 4), (4,), (4,)))
    g = rng.normal(size=(6, 5, 4))
    grads = backward(T.layer_norm(x, gamma, beta), seed=g)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = (x.data - mu) / np.sqrt(x.data.var(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
    np.testing.assert_allclose(grads[gamma], (g * xhat).sum(axis=(0, 1)), rtol=1e-12)
    np.testing.assert_allclose(grads[beta], g.sum(axis=(0, 1)), rtol=1e-12)
    b = leaf(np.zeros(4))
    got = backward(T.conv2d(Tensor(x.data), leaf(np.ones((3, 3, 4, 4))), b, padding=1), seed=g)[b]
    np.testing.assert_allclose(got, g.sum(axis=(0, 1)), rtol=1e-12)


@pytest.mark.parametrize("kh,kw,padding,groups", [(3, 3, 1, 1), (3, 3, 1, 4), (1, 1, 0, 1)],
                         ids=["dense", "depthwise", "pointwise"])
def test_conv2d_leaves_its_operands_unchanged(kh, kw, padding, groups):
    rng = make_rng(36)
    arrays = [rng.normal(size=(6, 7, 4)), rng.normal(size=(kh, kw, 4 // groups, 4)),
              rng.normal(size=4)]
    x, w, b = (leaf(a.copy()) for a in arrays)
    out = T.conv2d(x, w, b, padding=padding, groups=groups)
    backward(out, seed=rng.normal(size=out.shape))
    for t, a in zip((x, w, b), arrays):
        np.testing.assert_array_equal(t.data, a)
        assert not np.shares_memory(out.data, t.data)


@pytest.mark.parametrize("groups", [1, 32], ids=["dense", "depthwise"])
def test_conv2d_forward_makes_no_window_copy(groups):
    rng = make_rng(34)
    x = Tensor(rng.normal(size=(64, 64, 32)))
    w = Tensor(rng.normal(size=(3, 3, 32 // groups, 32)))
    b = Tensor(np.zeros(32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, w, b, padding=1, groups=groups)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # an im2col copy of the input alone is 9x the output
    assert peak < 3 * out.data.nbytes


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _store_with(arrays: dict) -> ParamStore:
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


def _transposed(a):
    """a^T as one recorded op: a numpy permutation whose backward is its inverse."""
    return T.make_op("transposed", a.data.T, (a,), lambda g: (g.T,))


GRAD_BUILDERS = {
    "mul-div": lambda p: T.reduce_sum(T.div(T.mul(p["a"], p["b"]), T.add(p["b"], 4.0))),
    "relu-clamp": lambda p: T.reduce_sum(T.mul(T.relu(p["a"]), T.clamp(p["b"], -0.5, 0.5))),
    "gelu": lambda p: T.reduce_sum(T.gelu(T.mul(p["a"], p["b"]))),
    "gate": lambda p: T.reduce_sum(T.mul(T.gate(T.mul(p["a"], p["b"])), T.gate(p["b"]))),
    "softplus-sqrt": lambda p: T.reduce_sum(T.sqrt(T.softplus(p["a"]))),
    "softmax": lambda p: T.reduce_sum(T.mul(T.softmax_lastdim(p["a"]), p["b"])),
    "layer-norm": lambda p: T.reduce_sum(
        T.mul(T.layer_norm(p["a"], p["g"], p["c"]), p["b"])),
    "matmul": lambda p: T.reduce_sum(T.matmul(p["a"], _transposed(p["b"]))),
    "concat-slice": lambda p: T.reduce_sum(
        T.slice_lastdim(T.concat([p["a"], p["b"]], axis=1), 1, 5)),
    "reduce-mean": lambda p: T.reduce_mean(T.mul(p["a"], p["a"])),
    "broadcast-add": lambda p: T.reduce_sum(T.mul(T.add(p["a"], p["row"]), p["b"])),
}


@pytest.mark.parametrize("name", sorted(GRAD_BUILDERS))
def test_gradients_match_finite_differences(name):
    rng = make_rng(20)
    store = _store_with({
        "a": rng.normal(size=(4, 4)),
        "b": rng.normal(size=(4, 4)),
        "g": rng.normal(size=4),
        "c": rng.normal(size=4),
        "row": rng.normal(size=4),
    })
    report = fd_gradcheck(GRAD_BUILDERS[name], store, n_samples=30, seed=21)
    assert report.passed, f"{name}: max rel err {report.max_rel_err:.3e}"


def test_conv_gradients_match_finite_differences():
    rng = make_rng(22)
    x = Tensor(rng.normal(size=(6, 6, 4)))
    store = _store_with({
        "w1": rng.normal(size=(3, 3, 4, 4)) * 0.3,   # dense conv
        "b1": rng.normal(size=4) * 0.1,
        "wd": rng.normal(size=(3, 3, 1, 4)) * 0.3,   # depthwise
        "wt": rng.normal(size=(2, 2, 4, 2)) * 0.3,   # transposed, stride 2
        "probe": rng.normal(size=(6, 6, 2)),
    })

    def f(p):
        u = T.conv2d(x, p["w1"], p["b1"], stride=1, padding=1, groups=1)
        u = T.conv2d(u, p["wd"], np.zeros(4), stride=1, padding=1, groups=4)
        u = T.conv_transpose2d(u, p["wt"], np.zeros(2))
        u = T.conv2d(u, Tensor(np.full((2, 2, 2, 2), 0.25)), np.zeros(2), stride=2)
        return T.reduce_sum(T.mul(u, p["probe"]))

    report = fd_gradcheck(f, store, n_samples=40, seed=23)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"


def test_composite_network_gradcheck():
    """One check through a conv, normalization, attention-style softmax mix."""
    rng = make_rng(24)
    x = Tensor(rng.normal(size=(4, 4, 3)))
    store = _store_with({
        "w": rng.normal(size=(3, 3, 3, 6)) * 0.2,
        "gamma": np.ones(6),
        "beta": np.zeros(6),
        "probe": rng.normal(size=(16, 6)),
    })

    def f(p):
        u = T.conv2d(x, p["w"], np.zeros(6), padding=1)
        u = T.layer_norm(u, p["gamma"], p["beta"])
        tok = T.reshape(u, (16, 6))
        att = T.softmax_lastdim(T.matmul(tok, _transposed(tok)))
        mixed = T.matmul(att, tok)
        return T.reduce_mean(T.mul(T.gelu(mixed), p["probe"]))

    report = fd_gradcheck(f, store, n_samples=50, seed=25)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"


def test_backward_seed_scales_linearly():
    a = leaf(make_rng(26).normal(size=(3, 3)))
    out = T.mul(a, a)
    g1 = backward(Graph.from_output(out))[a]
    out2 = T.mul(a, a)
    g2 = backward(Graph.from_output(out2), seed=2.0 * np.ones((3, 3)))[a]
    np.testing.assert_allclose(g2, 2.0 * g1, atol=1e-14)


def test_backward_accumulates_shared_leaf():
    """A leaf consumed twice receives the sum of both path gradients."""
    a = leaf(np.array([2.0, 3.0]))
    out = T.reduce_sum(T.add(T.mul(a, a), T.mul(3.0, a)))
    g = backward(out)[a]
    np.testing.assert_allclose(g, 2.0 * a.data + 3.0, atol=1e-14)


def test_backward_reports_zero_for_unused_params():
    store = _store_with({"used": np.ones(2), "idle": np.ones(3)})
    out = T.reduce_sum(T.mul(store["used"], 2.0))
    grads = backward(out, params=store)
    np.testing.assert_array_equal(grads[store["used"]], [2.0, 2.0])
    np.testing.assert_array_equal(grads[store["idle"]], np.zeros(3))


def test_backward_is_deterministic():
    def run():
        rng = make_rng(27)
        store = _store_with({"w": rng.normal(size=(3, 3, 2, 2)), "x": rng.normal(size=(5, 5, 2))})
        out = T.reduce_sum(T.gelu(T.conv2d(store["x"], store["w"], np.zeros(2), padding=1)))
        grads = backward(out, params=store)
        return {name: grads[store[name]].tobytes() for name in store.names()}

    assert run() == run()


def test_detached_tensor_has_no_graph():
    a = leaf(np.ones(3))
    out = T.mul(a, 2.0)
    assert out._tracked()
    cut = out.detach()
    assert not cut._tracked()
    with pytest.raises(GraphStateError):
        Graph.from_output(cut)
    with pytest.raises(GraphStateError):
        Graph.from_output(Tensor(np.ones(3)))


def test_backward_seed_shape_checked():
    a = leaf(np.ones((2, 2)))
    out = T.mul(a, a)
    with pytest.raises(ShapeError):
        backward(Graph.from_output(out), seed=np.ones(3))


def _branching_graph():
    """A leaf `a` feeding a diamond (two paths into one add), plus a constant."""
    a = leaf(make_rng(30).normal(size=(3, 4)))
    sq = T.mul(a, a)
    out = T.reduce_sum(T.add(T.gelu(sq), T.mul(sq, Tensor(np.full((3, 4), 2.0)))))
    return a, sq, out


def test_backward_consumes_the_graph_it_walks():
    twin, _, twin_out = _branching_graph()
    want = backward(twin_out)[twin]
    a, sq, out = _branching_graph()
    graph = Graph.from_output(out)
    nodes = list(graph.order)
    sq_data = weakref.ref(sq.data)
    del sq
    got = backward(graph)
    np.testing.assert_array_equal(got[a], want)
    assert graph.order == []
    for node in nodes:
        assert node._bwd is None, node._op
        assert node._parents == (() if node is a else None), node._op
    del nodes
    assert sq_data() is None  # held only by the walked graph
    # the leaf is untouched and roots a fresh graph
    assert a.requires_grad and a._tracked()
    np.testing.assert_array_equal(backward(T.reduce_sum(T.mul(a, 3.0)))[a], np.full((3, 4), 3.0))


def test_a_graph_is_backpropagated_once():
    _, _, out = _branching_graph()
    backward(out)
    with pytest.raises(GraphStateError, match="already backpropagated"):
        backward(out)
    _, _, out = _branching_graph()
    graph = Graph.from_output(out)
    backward(graph)
    with pytest.raises(GraphStateError, match="already backpropagated"):
        backward(graph)


def test_a_graph_through_a_consumed_node_raises():
    """A consumed node is not mistaken for a constant, which would drop the
    gradient through it without a word."""
    a, sq, out = _branching_graph()
    backward(out)
    with pytest.raises(GraphStateError, match=r"already backpropagated graph \(op 'mul'\)"):
        backward(T.reduce_sum(T.add(sq, a)))
    # the same when both graphs were built before either walk
    a, sq, out = _branching_graph()
    other = Graph.from_output(T.reduce_sum(T.mul(sq, 3.0)))
    backward(out)
    with pytest.raises(GraphStateError, match="already backpropagated graph"):
        backward(other)


# ---------------------------------------------------------------------------
# graph-free evaluation
# ---------------------------------------------------------------------------

def test_no_grad_ops_on_tracked_parents_return_untracked_tensors():
    a = leaf(make_rng(28).normal(size=(2, 3)))
    b = leaf(make_rng(29).normal(size=(3, 2)))
    with no_grad():
        out = T.reduce_sum(T.gelu(T.matmul(a, b)))
    assert not out._tracked()
    assert out._parents == () and out._bwd is None
    with pytest.raises(GraphStateError):
        Graph.from_output(out)
    assert T.matmul(a, b)._tracked()  # recording resumes after the block


def test_no_grad_restores_recording_after_exception_and_nesting():
    a = leaf(np.ones(3))
    with pytest.raises(NumericalError):
        with no_grad():
            T.div(a, 0.0)
    assert T.mul(a, 2.0)._tracked()
    with no_grad():
        with no_grad():
            assert not T.mul(a, 2.0)._tracked()
        assert not T.mul(a, 2.0)._tracked()  # leaving the inner block keeps the outer one
    assert T.mul(a, 2.0)._tracked()


def test_no_grad_is_per_thread():
    a = leaf(np.ones(3))
    seen = {}
    worker_inside, main_checked = threading.Event(), threading.Event()

    def worker():
        seen["while_main_off"] = T.mul(a, 2.0)._tracked()
        with no_grad():
            worker_inside.set()
            main_checked.wait(timeout=30)

    with no_grad():
        thread = threading.Thread(target=worker)
        thread.start()
        assert worker_inside.wait(timeout=30)
        assert not T.mul(a, 2.0)._tracked()
    seen["main_while_worker_off"] = T.mul(a, 2.0)._tracked()
    main_checked.set()
    thread.join()
    assert seen == {"while_main_off": True, "main_while_worker_off": True}


def test_no_grad_values_are_bit_identical_to_the_tracked_forward():
    cfg = LnltConfig(base_channels=8, heads=(2, 2, 4), local_window=4, nonlocal_grid=2)
    store = ParamStore()
    _register_block(Initializer(store, 84), "blk", 8, 2, cfg)
    w = store.scope("blk")
    x = Tensor(make_rng(85).normal(size=(8, 8, 8)))
    tracked = block_forward(x, w)
    with no_grad():
        free = block_forward(x, w)
    assert tracked._tracked() and not free._tracked()
    assert free.data.tobytes() == tracked.data.tobytes()

    op = SensingOperator.from_mask(random_binary_mask(6, 6, 2), 3, 2)
    store = ParamStore()
    register_den_params(Initializer(store, 86), 3)
    dw = store.scope("den")
    z = HsiCube(Tensor(make_rng(87).random(op.scene_shape)))
    tracked = den_forward(z, op, dw)
    with no_grad():
        free = den_forward(z, op, dw)
    for got, want in [(free.phi_hat.shifted_mask, tracked.phi_hat.shifted_mask),
                      (free.residual, tracked.residual), (free.mu, tracked.mu),
                      (free.eta, tracked.eta)]:
        assert want._tracked() and not got._tracked()
        assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# numerical guards
# ---------------------------------------------------------------------------

def test_division_by_zero_raises_named_error():
    with pytest.raises(NumericalError, match="div"):
        T.div(Tensor([1.0]), Tensor([0.0]))


def test_sqrt_of_negative_raises():
    with pytest.raises(NumericalError, match="sqrt"):
        T.sqrt(Tensor([-1.0]))


def test_constructor_rejects_non_finite():
    with pytest.raises(NumericalError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("pos", [0, 6, 11], ids=["first", "middle", "last"])
def test_finite_check_catches_every_non_finite_position(bad, pos):
    arr = np.ones(12)
    arr[pos] = bad
    with pytest.raises(NumericalError, match="non-finite values produced by op 'tensor'"):
        Tensor(arr.reshape(3, 4))


def test_finite_check_passes_finite_values_whose_sum_overflows():
    arr = np.zeros(12)
    arr[0], arr[11] = np.inf, -np.inf
    # numpy warns about the overflowing and the NaN sums; the check decides
    with np.errstate(over="ignore", invalid="ignore"):
        t = Tensor(np.full((3, 4), 1e308))
        assert np.isinf(t.data.sum())
        with pytest.raises(NumericalError):
            Tensor(arr)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_check_needs_no_errstate_for_an_overflowing_sum(dtype):
    """Finite values whose sum overflows pass without a numpy warning (which
    the test configuration turns into an error); an inf still raises."""
    big = np.finfo(dtype).max / 2
    t = Tensor(np.full(10, big, dtype))
    assert t.data.dtype == dtype
    T._check_finite(np.full(10, -big, dtype), "probe")
    arr = np.full(10, big, dtype)
    arr[3] = np.inf
    with pytest.raises(NumericalError, match="non-finite values produced by op 'probe'"):
        T._check_finite(arr, "probe")
    arr[3], arr[7] = -np.inf, np.inf  # the sum is NaN, not inf
    with pytest.raises(NumericalError):
        T._check_finite(arr, "probe")


def test_assign_validates_shape_and_values():
    t = leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        t._assign(np.ones(3))
    with pytest.raises(NumericalError):
        t._assign(np.full((2, 2), np.inf))


def test_fd_gradcheck_rejects_bad_step_and_nonscalar():
    store = _store_with({"a": np.ones(2)})
    with pytest.raises(ShapeError):
        fd_gradcheck(lambda p: T.mul(p["a"], 1.0), store)


# ---------------------------------------------------------------------------
# parameter store and initializer conventions
# ---------------------------------------------------------------------------

def test_param_store_rejects_duplicates_and_unknowns():
    store = ParamStore()
    store.add("w", np.ones(2))
    with pytest.raises(ParameterError):
        store.add("w", np.ones(2))
    with pytest.raises(ParameterError):
        store["missing"]


def test_param_store_keeps_the_dtype_of_its_arrays():
    store = ParamStore()
    store.add("a", np.ones(2, np.float32))
    assert (store["a"].data.dtype, store.dtype) == (np.float32, np.float32)
    store.add("b", [1.0, 2.0])
    assert (store["b"].data.dtype, store.dtype) == (np.float64, np.float64)
    init = Initializer(ParamStore(), 0)
    init.conv("c", 3, 3, 2, 2)
    assert init.store.dtype == np.float64


def test_param_store_scopes_resolve_registered_names():
    store = _store_with({"lnlt.enc1.0.local.q.point.w": np.ones(2), "top": np.zeros(1)})
    block = store.scope("lnlt").scope("enc1.0")
    want = store["lnlt.enc1.0.local.q.point.w"]
    assert block["local.q.point.w"] is want
    assert block.scope("local").scope("q")["point.w"] is want
    assert store.scope("lnlt.enc1.0.local")["q.point.w"] is want
    with pytest.raises(ParameterError, match="'lnlt.enc1.0.local.k.point.w'"):
        block.scope("local")["k.point.w"]


def test_param_store_roundtrip_and_counts():
    store = _store_with({"a": np.arange(6.0).reshape(2, 3), "b": np.zeros(4)})
    assert store.n_values == 10
    clone = ParamStore.from_arrays(store.arrays())
    assert clone.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(clone[name].data, store[name].data)


def test_initializer_draws_are_seeded_and_bounded():
    def build(seed):
        store = ParamStore()
        init = Initializer(store, seed)
        init.conv("c", 3, 3, 4, 8)
        init.linear("l", 16, 4)
        init.layer_norm("n", 8)
        init.zeros("pos", (2, 16, 16))
        return store

    s0, s0b, s1 = build(0), build(0), build(1)
    for name in s0.names():
        np.testing.assert_array_equal(s0[name].data, s0b[name].data)
    assert any(not np.array_equal(s0[n].data, s1[n].data) for n in s0.names())

    assert np.abs(s0["c.w"].data).max() <= 1.0 / math.sqrt(3 * 3 * 4)
    assert np.abs(s0["l.w"].data).max() <= 1.0 / math.sqrt(16)
    np.testing.assert_array_equal(s0["c.b"].data, np.zeros(8))
    np.testing.assert_array_equal(s0["n.gamma"].data, np.ones(8))
    np.testing.assert_array_equal(s0["n.beta"].data, np.zeros(8))
    np.testing.assert_array_equal(s0["pos"].data, np.zeros((2, 16, 16)))


# ---------------------------------------------------------------------------
# precision: float32 stays float32
# ---------------------------------------------------------------------------

def _case(fn, *shapes):
    """rng -> (fn(*leaves), leaves) on fresh float32 leaves of `shapes`."""
    def build(rng):
        leaves = tuple(Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                       for s in shapes)
        return fn(*leaves), leaves
    return build


def _op_cases():
    """Every op on float32 leaves; each constant is a Python number or a
    float64 or boolean array."""
    from cassikit.cassi import dispersion_support, shift_cube, unshift_cube
    from cassikit.transformer import attend
    m = (3, 4)
    return {
        "add": _case(T.add, m, (4,)),
        "sub": _case(T.sub, m, m),
        "mul": _case(T.mul, m, m),
        "div": _case(lambda a, b: T.div(a, T.add(T.mul(b, b), 1.0)), m, m),
        "add-constant": _case(lambda a: T.add(1e-8, a), m),
        "sub-constant": _case(lambda a: T.sub(a, np.full(m, 0.25)), m),
        "mul-constant": _case(lambda a: T.mul(a, 0.5), m),
        "rdiv-constant": _case(lambda a: 2.0 / T.add(T.mul(a, a), 1.0), m),
        "mul-boolean-constant": _case(
            lambda a: T.mul(shift_cube(a, 1), dispersion_support(3, 4, 2, 1)), (3, 4, 2)),
        "neg": _case(T.neg, m),
        "clamp": _case(lambda a: T.clamp(a, -0.5, 0.5), m),
        "sqrt": _case(lambda a: T.sqrt(T.add(T.mul(a, a), 1e-3)), m),
        "relu": _case(T.relu, m),
        "gelu": _case(T.gelu, m),
        "softplus": _case(T.softplus, m),
        "reshape": _case(lambda a: T.reshape(a, (2, 6)), m),
        "concat": _case(lambda a, b: T.concat([a, b], axis=0), m, m),
        "slice": _case(lambda a: T.slice_lastdim(a, 1, 3), m),
        "reduce-sum": _case(lambda a: T.reduce_sum(a, axis=0), m),
        "reduce-mean": _case(T.reduce_mean, m),
        "matmul": _case(T.matmul, m, (4, 2)),
        "softmax": _case(T.softmax_lastdim, m),
        "layer-norm": _case(T.layer_norm, m, (4,), (4,)),
        "conv2d-dense": _case(lambda x, w, b: T.conv2d(x, w, b, padding=1),
                              (5, 6, 3), (3, 3, 3, 2), (2,)),
        "conv2d-1x1": _case(T.conv2d, (5, 6, 3), (1, 1, 3, 2), (2,)),
        "conv2d-depthwise": _case(lambda x, w, b: T.conv2d(x, w, b, stride=2, padding=1, groups=3),
                                  (5, 6, 3), (3, 3, 1, 3), (3,)),
        "conv-transpose2d": _case(T.conv_transpose2d, (3, 2, 3), (2, 2, 3, 2), (2,)),
        "attend": _case(lambda qkv, pos: attend(qkv, pos, 2, 2, False), (4, 4, 12), (2, 4, 4)),
        "gate": _case(T.gate, (3, 4, 6)),
        "shift-unshift": _case(lambda a: unshift_cube(T.mul(shift_cube(a, 2), 2.0), 2), (3, 4, 3)),
    }


OP_CASES = _op_cases()


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_float32_inputs_give_float32_outputs_and_gradients(name):
    out, leaves = OP_CASES[name](make_rng(90))
    assert out.data.dtype == np.float32
    grads = backward(T.reduce_sum(out))
    for t in leaves:
        assert grads[t].dtype == np.float32, f"{name}: gradient of a {t.shape} leaf"


def test_float64_constants_keep_float64_and_seeds_follow_the_output():
    x = leaf(np.ones(3))
    assert T.mul(x, np.float32(0.5)).data.dtype == np.float64
    y = Tensor(np.ones(3, np.float32), requires_grad=True)
    grads = backward(T.mul(y, 3.0), seed=np.array([1.0, 2.0, 3.0]))
    assert grads[y].dtype == np.float32
    np.testing.assert_array_equal(grads[y], [3.0, 6.0, 9.0])


def test_tensor_keeps_float32_and_float64_and_widens_the_rest():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.ones(2)).data.dtype == np.float64
    for data in (np.ones(2, np.float16), np.ones(2, np.int32), [1, 2], 0.5, True):
        assert Tensor(data).data.dtype == np.float64


def test_assign_keeps_the_tensor_dtype_and_refuses_overflow():
    t = Tensor(np.ones(2, np.float32), requires_grad=True)
    t._assign(np.array([0.1, 0.2]))
    assert t.data.dtype == np.float32
    np.testing.assert_array_equal(t.data, np.array([0.1, 0.2], np.float32))
    with pytest.raises(NumericalError, match="'assign'"):
        t._assign(np.array([1.0, 1e39]))


def test_cast_rounds_forward_and_returns_the_gradient_in_the_source_dtype():
    x = leaf([0.1, 1.0 / 3.0])
    y = T.cast(x, np.float32)
    assert y.data.dtype == np.float32
    np.testing.assert_array_equal(y.data, np.array([0.1, 1.0 / 3.0], np.float32))
    g = backward(T.mul(y, 2.0))[x]
    assert g.dtype == np.float64
    np.testing.assert_array_equal(g, [2.0, 2.0])
    assert T.cast(x, np.float64) is x
    with pytest.raises(ParameterError):
        T.cast(x, np.float16)
    with pytest.raises(NumericalError, match="'cast'"):
        T.cast(Tensor([1e39]), np.float32)
