"""Windowed-attention denoiser with local and non-local token mixing.

A three-level U-shaped network of identical blocks.  Each block applies, in
order: layer norm, local window attention, layer norm, non-local window
attention, layer norm, and a gated feed-forward — each of the three
sub-modules adds its own input back (the residual closes over the normalized
features, matching the update equations the block implements).

Both attention modules run one multi-head self-attention core and differ
only in how they cut the plane into tokens.  Local attention cuts MxM
windows; each window is a token set whose tokens are its pixels, so
attention is an (M^2 x M^2) matrix per window and head, and the per-head
width is C/heads.  Non-local attention cuts the (H/N)x(W/N) cells of an NxN
grid and makes each cell one token of width H*W*C/N^2, all in a single set,
so its attention matrix is (N^2 x N^2) per head regardless of the image
size; the per-head width is H*W*C/(heads*N^2).  In the core, Q, K, V each
come from a pointwise conv followed by a depthwise 3x3 conv, the logits get
a learned (zero-initialized) position bias before softmax, and a pointwise
output projection finishes.  The core, from the Q, K, V planes and the bias
to the attended plane, is one recorded op, `attend`, that keeps only its
four inputs: its backward cuts the tokens again and recomputes the logits
and softmax with the forward's numpy calls, so no (tokens x tokens) array
outlives the forward and the gradients equal those of separate ops bit for
bit.  `cut` and `merge` are mutual inverses and adjoints, so each carries
the other's gradient.

The denoiser conditions on the stage's fidelity weight eta by appending one
constant eta-valued channel to its input before the embedding conv, and it
predicts a residual: output = input + R.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cassi import HsiCube
from .errors import ParameterError, ShapeError
from .params import Initializer, ParamScope
from .tensor import (Tensor, _softmax, _softmax_vjp, add, as_tensor, concat, conv2d,
                     conv_transpose2d, gelu, layer_norm, make_op, mul)

GDFN_EXPANSION = 2
SECTIONS = ("enc1", "enc2", "mid", "dec2", "dec1")


@dataclass(frozen=True)
class LnltConfig:
    """Architecture of fresh weights; the forward pass reads it back from them.

    Level widths are (C, 2C, 4C) with per-level head counts `heads`.
    `local_window` is M (pixels per window side); `nonlocal_grid` is N
    (grid cells per image side).  Inputs must have H and W divisible by
    4*M and 4*N so that every level tiles exactly after two downsamplings.
    """

    base_channels: int = 32
    blocks_per_level: int = 1
    heads: tuple = (1, 2, 4)
    local_window: int = 8
    nonlocal_grid: int = 8

    def __post_init__(self):
        if self.base_channels < 1 or self.blocks_per_level < 1:
            raise ParameterError("base_channels and blocks_per_level must be >= 1")
        if len(self.heads) != 3 or any(h < 1 for h in self.heads):
            raise ParameterError(f"heads must be three positive counts, got {self.heads}")
        if self.local_window < 1 or self.nonlocal_grid < 1:
            raise ParameterError("window sizes must be >= 1")
        for level, h in enumerate(self.heads):
            width = self.base_channels * (1 << level)
            if width % h:
                raise ParameterError(f"level {level} width {width} not divisible by {h} heads")

    def level_channels(self, level: int) -> int:
        return self.base_channels * (1 << level)


_LEVEL_OF_SECTION = {"enc1": 0, "enc2": 1, "mid": 2, "dec2": 1, "dec1": 0}


def _register_msa(init: Initializer, prefix: str, c: int, heads: int, tokens: int) -> None:
    for name in ("q", "k", "v"):
        init.conv(f"{prefix}.{name}.point", 1, 1, c, c)
        init.conv(f"{prefix}.{name}.depth", 3, 3, 1, c)
    init.zeros(f"{prefix}.pos", (heads, tokens, tokens))
    init.conv(f"{prefix}.proj", 1, 1, c, c)


def _register_block(init: Initializer, prefix: str, c: int, heads: int, cfg: LnltConfig) -> None:
    m2 = cfg.local_window ** 2
    n2 = cfg.nonlocal_grid ** 2
    e = GDFN_EXPANSION * c
    init.layer_norm(f"{prefix}.ln1", c)
    _register_msa(init, f"{prefix}.local", c, heads, m2)
    init.layer_norm(f"{prefix}.ln2", c)
    _register_msa(init, f"{prefix}.nonlocal", c, heads, n2)
    init.layer_norm(f"{prefix}.ln3", c)
    init.conv(f"{prefix}.gdfn.b1.point", 1, 1, c, e)
    init.conv(f"{prefix}.gdfn.b1.depth", 3, 3, 1, e)
    init.conv(f"{prefix}.gdfn.b2.point", 1, 1, c, e)
    init.conv(f"{prefix}.gdfn.b2.depth", 3, 3, 1, e)
    init.conv(f"{prefix}.gdfn.proj", 1, 1, e, c)


def register_lnlt_params(init: Initializer, cfg: LnltConfig, n_bands: int) -> None:
    """Register denoiser weights in a fixed, documented order."""
    c = cfg.base_channels
    init.conv("lnlt.embed", 3, 3, n_bands + 1, c)
    for section in SECTIONS:
        level = _LEVEL_OF_SECTION[section]
        width = cfg.level_channels(level)
        for b in range(cfg.blocks_per_level):
            _register_block(init, f"lnlt.{section}.{b}", width, cfg.heads[level], cfg)
        if section == "enc1":
            init.conv("lnlt.down1", 4, 4, c, 2 * c)
        elif section == "enc2":
            init.conv("lnlt.down2", 4, 4, 2 * c, 4 * c)
        elif section == "mid":
            init.conv_transpose("lnlt.up2", 2, 4 * c, 2 * c)
            init.conv("lnlt.fuse2", 1, 1, 4 * c, 2 * c)
        elif section == "dec2":
            init.conv_transpose("lnlt.up1", 2, 2 * c, c)
            init.conv("lnlt.fuse1", 1, 1, 2 * c, c)
    init.conv("lnlt.out", 3, 3, c, n_bands)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def qkv_project(x: Tensor, w: ParamScope) -> Tensor:
    """Pointwise conv then depthwise 3x3 conv (padding 1, shape-preserving)."""
    t = conv2d(x, w["point.w"], w["point.b"])
    c = t.shape[-1]
    return conv2d(t, w["depth.w"], w["depth.b"], padding=1, groups=c)


def cut(a: np.ndarray, mh: int, mw: int, heads: int, cell_tokens: bool) -> np.ndarray:
    """[H, W, C] -> [sets, heads, length, d] over row-major Mh x Mw windows with
    row-major pixels inside.  A window is a set of pixel tokens, or with
    `cell_tokens` one token of a single set; heads are contiguous width-d chunks
    of each token.  `merge` is its exact inverse (and adjoint)."""
    h, w, c = a.shape
    count = (h // mh) * (w // mw)
    sets, length = (1, count) if cell_tokens else (count, mh * mw)
    t = a.reshape(h // mh, mh, w // mw, mw, c).transpose(0, 2, 1, 3, 4).reshape(count, mh * mw, c)
    return t.reshape(sets, length, heads, -1).transpose(0, 2, 1, 3)


def merge(t: np.ndarray, h: int, w: int, mh: int, mw: int) -> np.ndarray:
    """[sets, heads, length, d] -> [H, W, C]; the exact inverse of `cut`."""
    t = t.transpose(0, 2, 1, 3).reshape((h // mh) * (w // mw), mh * mw, -1)
    return t.reshape(h // mh, w // mw, mh, mw, -1).transpose(0, 2, 1, 3, 4).reshape(h, w, -1)


def attention_layout(w: ParamScope) -> tuple:
    """(heads, s) from an attention module's (heads, s^2, s^2) position bias;
    s is the window side M (local) or the grid side N (non-local)."""
    shape = w["pos"].shape
    side = math.isqrt(shape[1]) if len(shape) == 3 else 0
    if side < 1 or side * side != shape[1] or shape[1] != shape[2]:
        raise ShapeError(f"{w.prefix}.pos has shape {shape}, not (heads, s*s, s*s)")
    return shape[0], side


def attend(q: Tensor, k: Tensor, v: Tensor, pos: Tensor, mh: int, mw: int,
           cell_tokens: bool) -> Tensor:
    """softmax(Q K^T / sqrt(d) + pos) V over the tokens `cut` makes from the
    [H, W, C] planes q, k, v, `merge`d back to [H, W, C]; heads come from the
    (heads, length, length) bias.  One recorded op: its backward recomputes
    the cuts, the logits and the softmax from the four inputs."""
    h, wdt, c = q.shape
    heads = pos.shape[0]
    width = mh * mw * c if cell_tokens else c
    if width % heads:
        raise ShapeError(f"token width {width} not divisible by {heads} heads")
    scale = 1.0 / math.sqrt(width // heads)

    def tokens():  # the same numpy calls in forward and backward
        qt, kt, vt = (cut(t.data, mh, mw, heads, cell_tokens) for t in (q, k, v))
        k_t = kt.transpose(0, 1, 3, 2)
        logits = np.matmul(qt, k_t)
        logits *= scale
        logits += pos.data
        return qt, k_t, vt, _softmax(logits)

    def bwd(g):
        qt, k_t, vt, p = tokens()
        g = cut(g, mh, mw, heads, cell_tokens)
        dv = np.matmul(np.swapaxes(p, -1, -2), g)
        dlogits = _softmax_vjp(p, np.matmul(g, np.swapaxes(vt, -1, -2)))
        dqk = dlogits * scale
        dq = np.matmul(dqk, np.swapaxes(k_t, -1, -2))
        dk_t = np.matmul(np.swapaxes(qt, -1, -2), dqk)
        return (merge(dq, h, wdt, mh, mw), merge(dk_t.transpose(0, 1, 3, 2), h, wdt, mh, mw),
                merge(dv, h, wdt, mh, mw), dlogits.sum(axis=0))

    _, _, vt, p = tokens()
    return make_op("attend", merge(np.matmul(p, vt), h, wdt, mh, mw), (q, k, v, pos), bwd)


def _msa(x: Tensor, w: ParamScope, mh: int, mw: int, cell_tokens: bool) -> Tensor:
    """`attend` over the `qkv_project`ed planes of x, projected, plus x."""
    q, k, v = (qkv_project(x, w.scope(name)) for name in ("q", "k", "v"))
    mixed = attend(q, k, v, w["pos"], mh, mw, cell_tokens)
    return add(conv2d(mixed, w["proj.w"], w["proj.b"]), x)


def local_msa(x: Tensor, w: ParamScope) -> Tensor:
    """Attention among the pixels of each M x M window, [windows, heads, M^2, M^2];
    heads and M come from the position bias."""
    h, wdt, _ = x.shape
    m = attention_layout(w)[1]
    if h % m or wdt % m:
        raise ShapeError(f"extents {(h, wdt)} not divisible by window {m}")
    return _msa(x, w, m, m, cell_tokens=False)


def nonlocal_msa(x: Tensor, w: ParamScope) -> Tensor:
    """Attention among the cells of an N x N grid, [1, heads, N^2, N^2] at any
    image size; heads and N come from the position bias."""
    h, wdt, _ = x.shape
    n = attention_layout(w)[1]
    if h % n or wdt % n:
        raise ShapeError(f"extents {(h, wdt)} not divisible by grid {n}")
    return _msa(x, w, h // n, wdt // n, cell_tokens=True)


def gdfn(x: Tensor, w: ParamScope) -> Tensor:
    """Gated feed-forward: two parallel pointwise+depthwise branches, one
    GELU-gated, multiplied, projected back, plus the input."""
    c1 = w.ranked("b1.point.w", 4).shape[3]
    b1 = conv2d(conv2d(x, w["b1.point.w"], w["b1.point.b"]), w["b1.depth.w"], w["b1.depth.b"],
                padding=1, groups=c1)
    b2 = conv2d(conv2d(x, w["b2.point.w"], w["b2.point.b"]), w["b2.depth.w"], w["b2.depth.b"],
                padding=1, groups=c1)
    gated = mul(gelu(b1), b2)
    return add(conv2d(gated, w["proj.w"], w["proj.b"]), x)


def block_forward(x: Tensor, w: ParamScope) -> Tensor:
    """One denoiser block: LN -> local MSA -> LN -> non-local MSA -> LN -> GDFN."""
    t = layer_norm(x, w["ln1.gamma"], w["ln1.beta"])
    t = local_msa(t, w.scope("local"))
    u = layer_norm(t, w["ln2.gamma"], w["ln2.beta"])
    u = nonlocal_msa(u, w.scope("nonlocal"))
    s = layer_norm(u, w["ln3.gamma"], w["ln3.beta"])
    return gdfn(s, w.scope("gdfn"))


def section_blocks(w: ParamScope, section: str) -> int:
    """Number of blocks registered under `section` (block 0 must exist)."""
    return next(n for n in itertools.count(1) if f"{section}.{n}.ln1.gamma" not in w)


def lnlt_denoise(x: HsiCube, eta, w: ParamScope) -> HsiCube:
    """Denoise a cube conditioned on eta; returns input + predicted residual.
    Widths, heads, window and grid sides and block counts come from `w`."""
    h, wdt, n_bands = x.shape
    embed_w = w.ranked("embed.w", 4)
    if embed_w.shape[2] != n_bands + 1:
        raise ShapeError(f"embed conv expects {embed_w.shape[2] - 1} bands, got {n_bands}")
    window = attention_layout(w.scope("enc1.0.local"))[1]
    grid = attention_layout(w.scope("enc1.0.nonlocal"))[1]
    if any(h % (4 * s) or wdt % (4 * s) for s in (window, grid)):
        raise ShapeError(f"extents {(h, wdt)} must be divisible by 4*window and 4*grid "
                         f"({4 * window}, {4 * grid})")
    eta_t = as_tensor(eta)
    if eta_t.data.size != 1:
        raise ShapeError(f"eta must be a scalar, got shape {eta_t.shape}")

    chan = mul(Tensor(np.ones((h, wdt, 1))), eta_t)
    x0 = conv2d(concat([x.data, chan], axis=2), embed_w, w["embed.b"], padding=1)

    def run_section(t, section):
        for b in range(section_blocks(w, section)):
            t = block_forward(t, w.scope(f"{section}.{b}"))
        return t

    e1 = run_section(x0, "enc1")
    e2 = run_section(conv2d(e1, w["down1.w"], w["down1.b"], stride=2, padding=1), "enc2")
    m = run_section(conv2d(e2, w["down2.w"], w["down2.b"], stride=2, padding=1), "mid")
    u2 = conv_transpose2d(m, w["up2.w"], w["up2.b"])
    d2 = run_section(conv2d(concat([u2, e2], axis=2), w["fuse2.w"], w["fuse2.b"]), "dec2")
    u1 = conv_transpose2d(d2, w["up1.w"], w["up1.b"])
    d1 = run_section(conv2d(concat([u1, e1], axis=2), w["fuse1.w"], w["fuse1.b"]), "dec1")
    res = conv2d(d1, w["out.w"], w["out.b"], padding=1)
    return HsiCube(add(x.data, res))
