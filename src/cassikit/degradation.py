"""Learned per-stage correction of the sensing operator.

Fabrication and alignment errors make the nominal mask-and-shear operator an
approximation of the physical one.  Before each data step, this module
estimates a residual on the sheared mask stack from the current scene
estimate and the nominal operator, and predicts the stage's penalty weight
mu and denoiser conditioning eta:

    residual = ConvStack(concat(shear(z), Phi))          [H, W', N]
    Phi_hat  = clip(Phi + residual, 0, 1.5)
    (mu, eta) = softplus(MLP(GAP(residual)))

The conv stack is an entry 1x1 conv to width 2N, three residual blocks
(3x3 conv, ReLU, 3x3 conv, skip), and an exit 1x1 conv to N channels.  The
exit output is masked to the dispersion support, so Phi_hat keeps the exact
sheared structure and Phi_hat Phi_hat^T stays diagonal; the closed-form data
step stays valid by construction.  One residual tensor feeds both Phi_hat
and the scalar head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cassi import HsiCube, SensingOperator, shift_cube
from .errors import ShapeError
from .params import Initializer, ParamScope
from .tensor import (Tensor, add, clamp, concat, conv2d, gelu, matmul, mul,
                     reduce_mean, relu, reshape, slice_lastdim, softplus)

N_BLOCKS = 3


@dataclass(frozen=True)
class DegradationEstimate:
    """Outputs of one estimator pass; mu and eta are positive scalars."""

    phi_hat: SensingOperator
    residual: Tensor
    mu: Tensor
    eta: Tensor


def register_den_params(init: Initializer, n_bands: int) -> None:
    """Register estimator weights (width 2N inside the stack)."""
    width = 2 * n_bands
    init.conv("den.entry", 1, 1, width, width)
    for i in range(N_BLOCKS):
        init.conv(f"den.block{i}.conv1", 3, 3, width, width)
        init.conv(f"den.block{i}.conv2", 3, 3, width, width)
    init.conv("den.exit", 1, 1, width, n_bands)
    init.linear("den.head.fc1", n_bands, n_bands)
    init.linear("den.head.fc2", n_bands, 2)


def residual_block(x: Tensor, w: ParamScope) -> Tensor:
    """x + Conv3x3(ReLU(Conv3x3(x))); same-width, padding 1."""
    t = relu(conv2d(x, w["conv1.w"], w["conv1.b"], padding=1))
    return add(x, conv2d(t, w["conv2.w"], w["conv2.b"], padding=1))


def gap_mlp(residual: Tensor, w: ParamScope) -> tuple:
    """Global-average-pool the residual per channel, then a two-layer MLP
    with GELU in between; softplus keeps both outputs strictly positive."""
    n = residual.shape[-1]
    fc1_w = w.ranked("fc1.w", 2)
    if fc1_w.shape[0] != n:
        raise ShapeError(f"head expects {fc1_w.shape[0]} channels, got {n}")
    v = reshape(reduce_mean(residual, axis=(0, 1)), (1, n))
    hidden = gelu(add(matmul(v, fc1_w), w["fc1.b"]))
    out = softplus(add(matmul(hidden, w["fc2.w"]), w["fc2.b"]))
    mu = reshape(slice_lastdim(out, 0, 1), ())
    eta = reshape(slice_lastdim(out, 1, 2), ())
    return mu, eta


def den_forward(z_prev: HsiCube, op: SensingOperator, w: ParamScope) -> DegradationEstimate:
    """Estimate the corrected operator and (mu, eta) for the coming stage."""
    exit_w = w.ranked("exit.w", 4)
    if exit_w.shape[3] != op.n_bands:
        raise ShapeError(f"estimator exit width {exit_w.shape[3]} != {op.n_bands} bands")
    if z_prev.shape != op.scene_shape:
        raise ShapeError(f"estimate {z_prev.shape} does not match operator scene {op.scene_shape}")
    entry_w = w.ranked("entry.w", 4)
    if 2 * op.n_bands != entry_w.shape[2]:
        raise ShapeError(
            f"estimator entry width {entry_w.shape[2]} != 2 * {op.n_bands} bands")
    zs = shift_cube(z_prev.data, op.step)
    feats = concat([zs, op.shifted_mask], axis=2)
    t = conv2d(feats, entry_w, w["entry.b"])
    for i in range(N_BLOCKS):
        t = residual_block(t, w.scope(f"block{i}"))
    raw = conv2d(t, exit_w, w["exit.b"])
    support = Tensor(op.support.astype(np.float64))
    residual = mul(raw, support)
    phi_hat_mask = clamp(add(op.shifted_mask, residual), 0.0, 1.5)
    phi_hat = SensingOperator(phi_hat_mask, op.step)
    mu, eta = gap_mlp(residual, w.scope("head"))
    return DegradationEstimate(phi_hat=phi_hat, residual=residual, mu=mu, eta=eta)
