"""Denoiser tests: attention against brute-force token loops, exact trivial
cases, residual wiring, the U-shaped pipeline, and gradient fidelity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cassikit.cassi import HsiCube
from cassikit.errors import ParameterError, ShapeError
from cassikit.params import Initializer, ParamStore
from cassikit.tensor import (Tensor, add, backward, fd_gradcheck, make_op, matmul, mul,
                            no_grad, reduce_mean, softmax_lastdim)
from cassikit.transformer import (GDFN_EXPANSION, LnltConfig, SECTIONS,
                                  _register_block, _register_msa, attend,
                                  block_forward, cut, gdfn, lnlt_denoise,
                                  local_msa, merge, nonlocal_msa, qkv_project,
                                  register_lnlt_params)

from conftest import make_rng


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def msa_fixture(seed, c, heads, tokens, randomize=True):
    """An MSA weight set with non-trivial biases and position offsets."""
    store = ParamStore()
    _register_msa(Initializer(store, seed), "msa", c, heads, tokens)
    if randomize:
        rng = make_rng(seed + 1)
        store["msa.pos"]._assign(rng.normal(size=store["msa.pos"].shape) * 0.2)
        for name in store.names():
            if name.endswith(".b"):
                store[name]._assign(rng.normal(size=store[name].shape) * 0.05)
    return store, store.scope("msa")


def msa_arrays(store):
    return {name[len("msa."):]: store[name].copy_array() for name in store.names()}


def np_pointwise(x, w, b):
    return x @ w[0, 0] + b


def np_depthwise3(x, w, b):
    h, wd, c = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros_like(x)
    for di in range(3):
        for dj in range(3):
            out += xp[di:di + h, dj:dj + wd, :] * w[di, dj, 0, :]
    return out + b


def np_qkv(x, arrs, name):
    t = np_pointwise(x, arrs[f"{name}.point.w"], arrs[f"{name}.point.b"])
    return np_depthwise3(t, arrs[f"{name}.depth.w"], arrs[f"{name}.depth.b"])


def np_attend(q, k, v, pos_head, scale):
    """Single-head attention over token rows, softmax per query."""
    out = np.zeros_like(v)
    for t in range(q.shape[0]):
        logits = q[t] @ k.T * scale + pos_head[t]
        e = np.exp(logits - logits.max())
        out[t] = (e / e.sum()) @ v
    return out


def oracle_local(x, arrs, m, heads):
    h, w, c = x.shape
    d = c // heads
    q, k, v = (np_qkv(x, arrs, n) for n in ("q", "k", "v"))
    mixed = np.zeros_like(x)
    for wi in range(0, h, m):
        for wj in range(0, w, m):
            sl = (slice(wi, wi + m), slice(wj, wj + m))
            qw, kw, vw = (t[sl].reshape(m * m, c) for t in (q, k, v))
            ow = np.zeros((m * m, c))
            for head in range(heads):
                cs = slice(head * d, (head + 1) * d)
                ow[:, cs] = np_attend(qw[:, cs], kw[:, cs], vw[:, cs],
                                      arrs["pos"][head], 1.0 / np.sqrt(d))
            mixed[sl] = ow.reshape(m, m, c)
    return np_pointwise(mixed, arrs["proj.w"], arrs["proj.b"]) + x


def oracle_nonlocal(x, arrs, n, heads):
    h, w, c = x.shape
    bh, bw = h // n, w // n
    width = bh * bw * c
    d = width // heads
    q, k, v = (np_qkv(x, arrs, name) for name in ("q", "k", "v"))

    def cells(t):
        return np.stack([t[a * bh:(a + 1) * bh, b * bw:(b + 1) * bw, :].reshape(-1)
                         for a in range(n) for b in range(n)])

    qt, kt, vt = cells(q), cells(k), cells(v)
    out = np.zeros((n * n, width))
    for head in range(heads):
        cs = slice(head * d, (head + 1) * d)
        out[:, cs] = np_attend(qt[:, cs], kt[:, cs], vt[:, cs],
                               arrs["pos"][head], 1.0 / np.sqrt(d))
    mixed = np.zeros_like(x)
    for a in range(n):
        for b in range(n):
            mixed[a * bh:(a + 1) * bh, b * bw:(b + 1) * bw, :] = \
                out[a * n + b].reshape(bh, bw, c)
    return np_pointwise(mixed, arrs["proj.w"], arrs["proj.b"]) + x


def identity_msa(c, heads, tokens):
    """Zero queries and keys, identity value path, identity projection."""
    store = ParamStore()
    _register_msa(Initializer(store, 0), "msa", c, heads, tokens)
    eye = np.eye(c)[None, None]
    delta = np.zeros((3, 3, 1, c))
    delta[1, 1, 0, :] = 1.0
    for name in ("q", "k"):
        store[f"msa.{name}.point.w"]._assign(np.zeros((1, 1, c, c)))
        store[f"msa.{name}.depth.w"]._assign(np.zeros((3, 3, 1, c)))
    store["msa.v.point.w"]._assign(eye.copy())
    store["msa.v.depth.w"]._assign(delta)
    store["msa.proj.w"]._assign(eye.copy())
    return store.scope("msa")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        LnltConfig(base_channels=0)
    with pytest.raises(ParameterError):
        LnltConfig(heads=(1, 2))
    with pytest.raises(ParameterError):
        LnltConfig(base_channels=6, heads=(4, 2, 1))  # 6 % 4 != 0
    cfg = LnltConfig(base_channels=8)
    assert [cfg.level_channels(i) for i in range(3)] == [8, 16, 32]


def test_position_biases_start_at_zero():
    store = ParamStore()
    cfg = LnltConfig(base_channels=8, local_window=4, nonlocal_grid=2)
    register_lnlt_params(Initializer(store, 3), cfg, n_bands=4)
    pos_names = [n for n in store.names() if n.endswith(".pos")]
    assert len(pos_names) == 2 * len(SECTIONS) * cfg.blocks_per_level
    for name in pos_names:
        np.testing.assert_array_equal(store[name].data, 0.0)


def test_denoiser_checks_band_count():
    store = ParamStore()
    cfg = LnltConfig(base_channels=8, local_window=4, nonlocal_grid=2)
    register_lnlt_params(Initializer(store, 3), cfg, n_bands=4)
    lnlt_denoise(HsiCube(Tensor(np.ones((16, 16, 4)))), 1.0, store.scope("lnlt"))
    with pytest.raises(ShapeError, match="embed conv expects 4 bands, got 6"):
        lnlt_denoise(HsiCube(Tensor(np.ones((16, 16, 6)))), 1.0, store.scope("lnlt"))


def test_denoiser_rejects_an_upsampling_kernel_that_is_not_the_down_stride():
    # conv_transpose2d's stride is its kernel extent, so a 3x3 up kernel
    # yields a decoder map that the skip join must refuse
    store = ParamStore()
    cfg = LnltConfig(base_channels=8, local_window=4, nonlocal_grid=2)
    register_lnlt_params(Initializer(store, 3), cfg, n_bands=4)
    arrays = dict(store.arrays())
    arrays["lnlt.up2.w"] = np.zeros((3, 3) + arrays["lnlt.up2.w"].shape[2:])
    with pytest.raises(ShapeError):
        lnlt_denoise(HsiCube(Tensor(np.ones((16, 16, 4)))), 1.0,
                     ParamStore.from_arrays(arrays).scope("lnlt"))


# ---------------------------------------------------------------------------
# attention against brute force
# ---------------------------------------------------------------------------

def test_qkv_projection_matches_composition():
    rng = make_rng(60)
    store, w = msa_fixture(61, c=4, heads=2, tokens=16)
    x = rng.normal(size=(6, 6, 4))
    got = qkv_project(Tensor(x), w.scope("q")).data
    arrs = msa_arrays(store)
    np.testing.assert_allclose(got, np_qkv(x, arrs, "q"), atol=1e-12)


def oracle_cases(square, other):
    """(hw, side, heads, C): 16x16 at C=8 for each (side, heads) in `square`,
    then the non-square `other` cases."""
    return ([pytest.param((16, 16), s, h, 8, id=f"{s}-{h}") for s, h in square]
            + [pytest.param(hw, s, h, c, id=f"{hw[0]}x{hw[1]}-{s}-{h}") for hw, s, h, c in other])


NON_SQUARE = [((8, 16), 4, 2, 8), ((16, 8), 4, 2, 8), ((12, 8), 4, 3, 6)]


@pytest.mark.parametrize("hw,m,heads,c", oracle_cases([(4, 1), (4, 2), (8, 4), (8, 1)], NON_SQUARE))
def test_local_attention_matches_loops(hw, m, heads, c):
    store, w = msa_fixture(62 + m + heads, c=c, heads=heads, tokens=m * m)
    x = make_rng(63 + m).normal(size=(*hw, c))
    got = local_msa(Tensor(x), w).data
    want = oracle_local(x, msa_arrays(store), m, heads)
    assert np.abs(got - want).max() <= 1e-5


@pytest.mark.parametrize("hw,n,heads,c", oracle_cases([(2, 1), (2, 2), (4, 4), (4, 1)], NON_SQUARE))
def test_nonlocal_attention_matches_loops(hw, n, heads, c):
    store, w = msa_fixture(64 + n + heads, c=c, heads=heads, tokens=n * n)
    x = make_rng(65 + n).normal(size=(*hw, c))
    got = nonlocal_msa(Tensor(x), w).data
    want = oracle_nonlocal(x, msa_arrays(store), n, heads)
    assert np.abs(got - want).max() <= 1e-5


@st.composite
def token_layouts(draw):
    """(h, w, mh, mw, heads, c, cell_tokens): a plane of gh x gw windows (or
    grid cells) of mh x mw pixels, and a head count that divides the token width."""
    mh, mw, gh, gw = (draw(st.integers(1, 3)) for _ in range(4))
    c = draw(st.integers(1, 4))
    cell_tokens = draw(st.booleans())
    width = mh * mw * c if cell_tokens else c
    heads = draw(st.sampled_from([k for k in range(1, width + 1) if width % k == 0]))
    return gh * mh, gw * mw, mh, mw, heads, c, cell_tokens


@settings(max_examples=100)
@given(token_layouts(), st.integers(0, 2**32 - 1))
@example((4, 6, 2, 3, 3, 1, True), 0)   # 2x3 cells, width-2 heads split each cell row
@example((4, 4, 2, 2, 4, 2, True), 1)   # width-2 heads end mid-row of a 2-pixel, 2-channel row
@example((4, 4, 2, 2, 2, 4, False), 2)  # local: 2x2 windows, two heads of width 2
def test_cut_and_merge_are_exact_inverses_and_adjoints(layout, seed):
    h, w, mh, mw, heads, c, cell_tokens = layout
    count = (h // mh) * (w // mw)
    sets, length = (1, count) if cell_tokens else (count, mh * mw)
    rng = make_rng(seed)
    # small integers, so every inner product below is exact in float64
    a = rng.integers(-8, 9, size=(h, w, c)).astype(np.float64)
    t = cut(a, mh, mw, heads, cell_tokens)
    assert t.shape == (sets, heads, length, h * w * c // (sets * heads * length))
    b = rng.integers(-8, 9, size=t.shape).astype(np.float64)
    assert np.array_equal(merge(t, h, w, mh, mw), a)
    assert np.array_equal(cut(merge(b, h, w, mh, mw), mh, mw, heads, cell_tokens), b)
    assert np.vdot(t, b) == np.vdot(a, merge(b, h, w, mh, mw))


def unfused_attend(q, k, v, pos, mh, mw, cell_tokens):
    """The attention core as separate engine ops: a recorded `cut` of each
    operand (K's transposed), matmul, scale, bias, softmax, matmul and a
    recorded `merge`."""
    h, w, c = q.shape
    heads = pos.shape[0]
    d = (mh * mw * c if cell_tokens else c) // heads

    def tokens(t, axes=(0, 1, 2, 3)):
        return make_op("cut", cut(t.data, mh, mw, heads, cell_tokens).transpose(axes), (t,),
                       lambda g: (merge(g.transpose(axes), h, w, mh, mw),))

    logits = add(mul(matmul(tokens(q), tokens(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d)), pos)
    out = matmul(softmax_lastdim(logits), tokens(v))
    return make_op("merge", merge(out.data, h, w, mh, mw), (out,),
                   lambda g: (cut(g, mh, mw, heads, cell_tokens),))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def closure_arrays(fn):
    """The arrays a function's closure keeps alive, also through nested closures."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif callable(value) and hasattr(value, "__closure__"):
            found += closure_arrays(value)
    return found


@settings(max_examples=40)
@given(token_layouts(), st.integers(0, 2**32 - 1))
@example((4, 6, 2, 3, 3, 1, True), 0)   # 2x3 cells, width-2 heads split each cell row
@example((4, 4, 2, 2, 4, 2, True), 1)   # width-2 heads end mid-row of a 2-pixel, 2-channel row
@example((8, 8, 4, 4, 2, 4, False), 2)  # local: 4x4 windows, two heads of width 2
@example((8, 12, 4, 4, 4, 8, False), 3)  # local: 2x3 windows, four heads of width 2
def test_attend_matches_the_unfused_ops_bit_for_bit(layout, seed):
    """Output, dQ, dK, dV and dpos of the one-op core, whose backward
    recomputes the softmax, equal those of the separate ops as uint64 bits;
    the recorded op keeps only its four inputs, and a `no_grad` forward gives
    the same bits."""
    h, w, mh, mw, heads, c, cell_tokens = layout
    length = (h // mh) * (w // mw) if cell_tokens else mh * mw
    rng = make_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(h, w, c)), requires_grad=True) for _ in range(3))
    pos = Tensor(rng.normal(size=(heads, length, length)) * 0.2, requires_grad=True)
    seed_grad = rng.normal(size=(h, w, c))
    fused = attend(q, k, v, pos, mh, mw, cell_tokens)
    assert fused._op == "attend" and fused._parents == (q, k, v, pos)
    assert closure_arrays(fused._bwd) == []
    with no_grad():
        plain = attend(q, k, v, pos, mh, mw, cell_tokens)
    unfused = unfused_attend(q, k, v, pos, mh, mw, cell_tokens)
    np.testing.assert_array_equal(bits(fused.data), bits(plain.data))
    np.testing.assert_array_equal(bits(fused.data), bits(unfused.data))
    got, want = backward(fused, seed=seed_grad), backward(unfused, seed=seed_grad)
    for leaf in (q, k, v, pos):
        assert got[leaf].shape == leaf.shape
        np.testing.assert_array_equal(bits(got[leaf]), bits(want[leaf]))


def test_uniform_local_attention_is_window_mean_plus_input():
    """Zero Q/K and identity V turn each window into its token mean."""
    c, m = 4, 4
    w = identity_msa(c, heads=2, tokens=m * m)
    x = make_rng(66).normal(size=(8, 8, c))
    got = local_msa(Tensor(x), w).data
    want = np.zeros_like(x)
    for wi in range(0, 8, m):
        for wj in range(0, 8, m):
            sl = (slice(wi, wi + m), slice(wj, wj + m))
            want[sl] = x[sl].reshape(-1, c).mean(axis=0)
    np.testing.assert_allclose(got, want + x, atol=1e-6)


def test_uniform_nonlocal_attention_averages_grid_cells():
    c, n = 4, 2
    w = identity_msa(c, heads=1, tokens=n * n)
    x = make_rng(67).normal(size=(8, 8, c))
    got = nonlocal_msa(Tensor(x), w).data
    cells = x.reshape(n, 4, n, 4, c).transpose(0, 2, 1, 3, 4)  # [n, n, bh, bw, c]
    mean_cell = cells.reshape(n * n, 4, 4, c).mean(axis=0)
    want = np.tile(mean_cell, (n, n, 1))
    np.testing.assert_allclose(got, want + x, atol=1e-6)


def test_attention_rows_are_distributions():
    """With identity values, a constant input passes through mixing unchanged
    only if every attention row sums to one; random Q/K weights and the
    zero-padded depthwise convs keep the attention itself non-uniform."""
    c = 8
    x = np.broadcast_to(make_rng(69).normal(size=c), (8, 8, c)).copy()
    for seed, tokens, attend in ((68, 16, local_msa), (70, 4, nonlocal_msa)):
        store, w = msa_fixture(seed, c=c, heads=2, tokens=tokens)
        delta = np.zeros((3, 3, 1, c))
        delta[1, 1, 0, :] = 1.0
        store["msa.v.point.w"]._assign(np.eye(c)[None, None])
        store["msa.v.depth.w"]._assign(delta)
        store["msa.proj.w"]._assign(np.eye(c)[None, None])
        for name in ("msa.v.point.b", "msa.v.depth.b", "msa.proj.b"):
            store[name]._assign(np.zeros(c))
        np.testing.assert_allclose(attend(Tensor(x), w).data, 2.0 * x, atol=1e-12)


def test_nonlocal_token_count_is_size_independent():
    """One (heads, N^2, N^2) position table serves every image size."""
    n, heads, c = 2, 2, 4
    store, w = msa_fixture(71, c=c, heads=heads, tokens=n * n)
    assert w["pos"].shape == (heads, n * n, n * n)
    for hw in (8, 16):
        x = make_rng(72).normal(size=(hw, hw, c))
        got = nonlocal_msa(Tensor(x), w).data
        assert np.abs(got - oracle_nonlocal(x, msa_arrays(store), n, heads)).max() <= 1e-5


def test_attention_divisibility_checks():
    store, w = msa_fixture(73, c=4, heads=2, tokens=16)
    with pytest.raises(ShapeError):
        local_msa(Tensor(np.ones((6, 6, 4))), w)
    with pytest.raises(ShapeError):
        nonlocal_msa(Tensor(np.ones((6, 6, 4))), w)
    store, w = msa_fixture(73, c=4, heads=3, tokens=16)
    with pytest.raises(ShapeError):
        local_msa(Tensor(np.ones((8, 8, 4))), w)  # channels % heads


# ---------------------------------------------------------------------------
# feed-forward and block wiring
# ---------------------------------------------------------------------------

def gdfn_fixture(seed, c):
    store = ParamStore()
    init = Initializer(store, seed)
    e = GDFN_EXPANSION * c
    init.conv("g.b1.point", 1, 1, c, e)
    init.conv("g.b1.depth", 3, 3, 1, e)
    init.conv("g.b2.point", 1, 1, c, e)
    init.conv("g.b2.depth", 3, 3, 1, e)
    init.conv("g.proj", 1, 1, e, c)
    return store, store.scope("g")


def test_gdfn_matches_manual_composition():
    store, w = gdfn_fixture(74, c=4)
    rng = make_rng(75)
    for name in store.names():
        if name.endswith(".b"):
            store[name]._assign(rng.normal(size=store[name].shape) * 0.05)
    x = rng.normal(size=(6, 6, 4))
    got = gdfn(Tensor(x), w).data

    def branch(prefix):
        t = np_pointwise(x, store[f"g.{prefix}.point.w"].data, store[f"g.{prefix}.point.b"].data)
        return np_depthwise3(t, store[f"g.{prefix}.depth.w"].data, store[f"g.{prefix}.depth.b"].data)

    b1, b2 = branch("b1"), branch("b2")
    act = 0.5 * b1 * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (b1 + 0.044715 * b1 ** 3)))
    want = np_pointwise(act * b2, store["g.proj.w"].data, store["g.proj.b"].data) + x
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gdfn_expansion_width():
    store, w = gdfn_fixture(76, c=8)
    assert w["b1.point.w"].shape == (1, 1, 8, 16)
    assert w["proj.w"].shape == (1, 1, 16, 8)


def test_zeroed_block_passes_normalized_input_through():
    """With every conv kernel at zero each sub-module reduces to x + 0."""
    cfg = LnltConfig(base_channels=4, heads=(2, 2, 2), local_window=4, nonlocal_grid=2)
    store = ParamStore()
    _register_block(Initializer(store, 77), "blk", 4, 2, cfg)
    for name in store.names():
        if name.endswith(".w"):
            store[name]._assign(np.zeros(store[name].shape))
    w = store.scope("blk")
    x = make_rng(78).normal(size=(8, 8, 4))
    got = block_forward(Tensor(x), w).data

    def ln(a):
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        return (a - mu) / np.sqrt(var + 1e-5)

    # both attention modules and the feed-forward collapse to zero residuals,
    # leaving exactly the three stacked normalizations
    np.testing.assert_allclose(got, ln(ln(ln(x))), atol=1e-12)


def test_block_gradients_match_finite_differences():
    cfg = LnltConfig(base_channels=8, heads=(2, 2, 4), local_window=4, nonlocal_grid=2)
    store = ParamStore()
    _register_block(Initializer(store, 79), "blk", 8, 2, cfg)
    w = store.scope("blk")
    x = Tensor(make_rng(80).normal(size=(8, 8, 8)) * 0.5)
    probe = Tensor(make_rng(81).normal(size=(8, 8, 8)))

    def f(params):
        return reduce_mean(mul(block_forward(x, w), probe))

    report = fd_gradcheck(f, store, n_samples=60, seed=82)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"
    assert len(report.rows) >= 50


# ---------------------------------------------------------------------------
# full denoiser
# ---------------------------------------------------------------------------

def denoiser_fixture(n_bands=4, seed=83):
    cfg = LnltConfig(base_channels=8, local_window=4, nonlocal_grid=4)
    store = ParamStore()
    register_lnlt_params(Initializer(store, seed), cfg, n_bands)
    return store, store.scope("lnlt")


def test_denoiser_preserves_shape_and_is_finite():
    store, weights = denoiser_fixture()
    x = HsiCube(Tensor(make_rng(84).random((16, 16, 4)) * 2.0))
    out = lnlt_denoise(x, 0.7, weights)
    assert out.shape == (16, 16, 4)
    assert np.isfinite(out.numpy()).all()


def test_denoiser_output_is_input_plus_residual():
    """Zeroing the final conv forces the residual, and so the change, to zero."""
    store, weights = denoiser_fixture()
    store["lnlt.out.w"]._assign(np.zeros(store["lnlt.out.w"].shape))
    store["lnlt.out.b"]._assign(np.zeros(store["lnlt.out.b"].shape))
    x = HsiCube(Tensor(make_rng(85).random((16, 16, 4))))
    out = lnlt_denoise(x, 0.7, weights)
    np.testing.assert_array_equal(out.numpy(), x.numpy())


def test_denoiser_conditions_on_eta():
    store, weights = denoiser_fixture()
    x = HsiCube(Tensor(make_rng(86).random((16, 16, 4))))
    out_lo = lnlt_denoise(x, 0.1, weights).numpy()
    out_hi = lnlt_denoise(x, 5.0, weights).numpy()
    assert not np.array_equal(out_lo, out_hi)
    out_scalar = lnlt_denoise(x, Tensor(np.array(0.1)), weights).numpy()
    np.testing.assert_array_equal(out_lo, out_scalar)


def test_denoiser_divisibility_and_eta_shape_checks():
    store, weights = denoiser_fixture()
    with pytest.raises(ShapeError):
        lnlt_denoise(HsiCube(Tensor(np.ones((12, 16, 4)))), 1.0, weights)
    with pytest.raises(ShapeError):
        lnlt_denoise(HsiCube(Tensor(np.ones((16, 16, 4)))), np.ones(2), weights)


def test_denoiser_gradients_match_finite_differences():
    store, weights = denoiser_fixture()
    x = HsiCube(Tensor(make_rng(88).random((16, 16, 4))))
    probe = Tensor(make_rng(89).normal(size=(16, 16, 4)))

    def f(params):
        out = lnlt_denoise(x, 0.7, weights)
        return reduce_mean(mul(out.data, probe))

    report = fd_gradcheck(f, store, n_samples=20, seed=90)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"
