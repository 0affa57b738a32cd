"""Windowed-attention denoiser with local and non-local token mixing.

A three-level U-shaped network of identical blocks.  Each block applies, in
order: layer norm, local window attention, layer norm, non-local window
attention, layer norm, and a gated feed-forward — each of the three
sub-modules adds its own input back (the residual closes over the normalized
features, matching the update equations the block implements).

Local attention partitions the plane into MxM pixel windows; tokens are
pixels, attention is an (M^2 x M^2) matrix per window and head, and the
per-head channel width is C/heads.  Non-local attention partitions the plane
into an NxN grid and flattens each cell into a single token of width
H*W*C/N^2, so its attention matrix is (N^2 x N^2) per head regardless of the
image size; the per-head width is H*W*C/(heads*N^2).  Q, K, V all come from
a pointwise conv followed by a depthwise 3x3 conv; both attention variants
add a learned (zero-initialized) position bias to the logits before softmax
and finish with a pointwise output projection.

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
from .tensor import (Tensor, add, as_tensor, concat, conv2d, conv_transpose2d,
                     gelu, layer_norm, matmul, mul, reshape, softmax_lastdim,
                     transpose)

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


def _to_windows(t: Tensor, m: int) -> Tensor:
    """[H, W, C] -> [T, M^2, C] row-major windows, row-major pixels inside."""
    h, w, c = t.shape
    t = reshape(t, (h // m, m, w // m, m, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    return reshape(t, ((h // m) * (w // m), m * m, c))


def _from_windows(t: Tensor, h: int, w: int, m: int) -> Tensor:
    c = t.shape[-1]
    t = reshape(t, (h // m, w // m, m, m, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    return reshape(t, (h, w, c))


def _split_heads(t: Tensor, heads: int) -> Tensor:
    """[T, L, C] -> [T, heads, L, C/heads] (contiguous channel chunks)."""
    tt, ll, c = t.shape
    t = reshape(t, (tt, ll, heads, c // heads))
    return transpose(t, (0, 2, 1, 3))


def _merge_heads(t: Tensor) -> Tensor:
    tt, heads, ll, d = t.shape
    t = transpose(t, (0, 2, 1, 3))
    return reshape(t, (tt, ll, heads * d))


def attention_layout(w: ParamScope) -> tuple:
    """(heads, s) from an attention module's (heads, s^2, s^2) position bias;
    s is the window side M (local) or the grid side N (non-local)."""
    shape = w["pos"].shape
    side = math.isqrt(shape[1]) if len(shape) == 3 else 0
    if side < 1 or side * side != shape[1] or shape[1] != shape[2]:
        raise ShapeError(f"{w.prefix}.pos has shape {shape}, not (heads, s*s, s*s)")
    return shape[0], side


def local_msa(x: Tensor, w: ParamScope) -> Tensor:
    """Per-window multi-head self-attention over pixel tokens.

    Attention logits are Q K^T / sqrt(C/heads) plus the learned position
    bias; the projected result adds the input back.  The attention tensor
    has shape [windows, heads, M^2, M^2]; heads and M come from the bias.
    """
    h, wdt, c = x.shape
    heads, m = attention_layout(w)
    if h % m or wdt % m:
        raise ShapeError(f"extents {(h, wdt)} not divisible by window {m}")
    if c % heads:
        raise ShapeError(f"{c} channels not divisible by {heads} heads")
    d = c // heads
    q = _split_heads(_to_windows(qkv_project(x, w.scope("q")), m), heads)
    k = _split_heads(_to_windows(qkv_project(x, w.scope("k")), m), heads)
    v = _split_heads(_to_windows(qkv_project(x, w.scope("v")), m), heads)
    logits = add(mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d)), w["pos"])
    attn = softmax_lastdim(logits)
    mixed = _from_windows(_merge_heads(matmul(attn, v)), h, wdt, m)
    return add(conv2d(mixed, w["proj.w"], w["proj.b"]), x)


def _to_grid_tokens(t: Tensor, n: int) -> Tensor:
    """[H, W, C] -> [N^2, H*W*C/N^2]: each grid cell flattens to one token."""
    h, w, c = t.shape
    t = reshape(t, (n, h // n, n, w // n, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    return reshape(t, (n * n, (h // n) * (w // n) * c))


def _from_grid_tokens(t: Tensor, h: int, w: int, c: int, n: int) -> Tensor:
    t = reshape(t, (n, n, h // n, w // n, c))
    t = transpose(t, (0, 2, 1, 3, 4))
    return reshape(t, (h, w, c))


def nonlocal_msa(x: Tensor, w: ParamScope) -> Tensor:
    """Multi-head self-attention over grid-cell tokens.

    The token count is N^2 independent of image size; token width is
    H*W*C/N^2 and the per-head width H*W*C/(heads*N^2).  The attention
    tensor has shape [heads, N^2, N^2]; heads and N come from the bias.
    """
    h, wdt, c = x.shape
    heads, n = attention_layout(w)
    if h % n or wdt % n:
        raise ShapeError(f"extents {(h, wdt)} not divisible by grid {n}")
    token_width = (h // n) * (wdt // n) * c
    if token_width % heads:
        raise ShapeError(f"token width {token_width} not divisible by {heads} heads")
    d = token_width // heads
    def tokens(proj):
        t = _to_grid_tokens(proj, n)
        t = reshape(t, (n * n, heads, d))
        return transpose(t, (1, 0, 2))
    q = tokens(qkv_project(x, w.scope("q")))
    k = tokens(qkv_project(x, w.scope("k")))
    v = tokens(qkv_project(x, w.scope("v")))
    logits = add(mul(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d)), w["pos"])
    attn = softmax_lastdim(logits)
    mixed = transpose(matmul(attn, v), (1, 0, 2))
    mixed = _from_grid_tokens(reshape(mixed, (n * n, token_width)), h, wdt, c, n)
    return add(conv2d(mixed, w["proj.w"], w["proj.b"]), x)


def gdfn(x: Tensor, w: ParamScope) -> Tensor:
    """Gated feed-forward: two parallel pointwise+depthwise branches, one
    GELU-gated, multiplied, projected back, plus the input."""
    c1 = w["b1.point.w"].shape[3]
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
    embed_w = w["embed.w"]
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
    u2 = conv_transpose2d(m, w["up2.w"], w["up2.b"], stride=2)
    d2 = run_section(conv2d(concat([u2, e2], axis=2), w["fuse2.w"], w["fuse2.b"]), "dec2")
    u1 = conv_transpose2d(d2, w["up1.w"], w["up1.b"], stride=2)
    d1 = run_section(conv2d(concat([u1, e1], axis=2), w["fuse1.w"], w["fuse1.b"]), "dec1")
    res = conv2d(d1, w["out.w"], w["out.b"], padding=1)
    return HsiCube(add(x.data, res))
