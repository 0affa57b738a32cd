"""Adam training loop for the learned reconstruction pipeline.

The objective is the Charbonnier distance between the K-stage reconstruction
and the ground-truth cube.  One shared parameter store serves all stages, so
each weight's gradient accumulates contributions from every stage through
plain reverse-mode backprop.  The learning rate ramps linearly from zero
over the warmup steps, then follows a half-cosine decay to zero; gradients
are clipped to a global L2 norm before the update.  Gradients, Adam's
moments and the weights each live in one flat buffer in store order, so a
clip or an update is a few whole-buffer numpy calls, not a few per tensor.

`train_overfit` is the supported desk-scale regime: simulate one measurement
from a small truth patch, then fit the pipeline to reproduce the patch.  It
runs in the weights' dtype (float32 for the weights `init_pipeline_params`
makes): the truth, the operator and so the measurement are cast to it, and
Adam's moments follow the weights.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .cassi import HsiCube, Measurement, SensingOperator, forward_measure
from .errors import DivergenceError, NumericalError, ParameterError
from .hqs import ReconConfig, run_hqs
from .params import ParamStore
from .tensor import Tensor, _check_finite, add, backward, cast, mul, reduce_mean, sqrt, sub


# Fixed optimizer and loss settings: one value in use each, so no config field.
BETA1 = 0.9             # Adam first-moment decay
BETA2 = 0.999           # Adam second-moment decay
ADAM_EPS = 1e-8         # Adam denominator guard
CLIP_NORM = 1.0         # global gradient-norm clip
CHARBONNIER_EPS = 1e-3  # Charbonnier loss smoothing


@dataclass
class TrainConfig:
    steps: int = 500
    lr: float = 4e-4
    warmup_steps: int = 10

    def validate(self) -> None:
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ParameterError(f"lr must be finite and >= 0, got {self.lr}")
        if self.warmup_steps < 0 or self.warmup_steps > self.steps:
            raise ParameterError(f"warmup {self.warmup_steps} invalid for {self.steps} steps")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Schedule for 0-based `step`: linear warmup (lr_0 = 0), cosine decay."""
    if step < cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    span = cfg.steps - cfg.warmup_steps
    if span <= 0:
        return cfg.lr
    t = (step - cfg.warmup_steps) / span
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamState:
    """Adam over one flat buffer.  `weights` is the store's values moved into
    one contiguous buffer (`ParamStore.flatten`: each tensor's data becomes a
    view of it); `m` and `v`, the first and second moments, and the scratch
    buffers share its layout and dtype."""

    def __init__(self, params: ParamStore):
        self.weights = params.flatten()
        self.m = np.zeros_like(self.weights)
        self.v = np.zeros_like(self.weights)
        self._scratch = (np.empty_like(self.weights), np.empty_like(self.weights))
        self.t = 0


def clip_global_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place so its L2 norm is at most max_norm.

    Returns the pre-clip norm, summed in float64 so that float32 gradients
    cannot overflow it."""
    wide = grads.astype(np.float64)
    total = math.sqrt(wide @ wide)
    if total > max_norm:
        grads *= max_norm / (total + 1e-12)
    return total


def adam_step(state: AdamState, grads: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of `state.weights` in place; `grads` is
    the flat gradient in the same layout.

    Each element takes the operations of the per-tensor formula
    w - lr * m_hat / (sqrt(v_hat) + eps) in the same order, so it gets the
    same bits.  The new weights are checked before any weight changes: a
    non-finite one raises NumericalError and leaves the weights as they were.
    """
    state.t += 1
    t = state.t
    new, denom = state._scratch
    state.m *= BETA1
    state.m += np.multiply(grads, 1.0 - BETA1, out=new)
    state.v *= BETA2
    np.multiply(grads, grads, out=new)
    new *= 1.0 - BETA2
    state.v += new
    np.divide(state.v, 1.0 - BETA2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - BETA1 ** t, out=new)
    new *= lr
    new /= denom
    np.subtract(state.weights, new, out=new)
    _check_finite(new, "assign")
    np.copyto(state.weights, new)


def charbonnier_loss(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable mean sqrt(diff^2 + eps^2), eps = CHARBONNIER_EPS."""
    diff = sub(a, b)
    return reduce_mean(sqrt(add(mul(diff, diff), CHARBONNIER_EPS * CHARBONNIER_EPS)))


@dataclass
class TrainResult:
    params: ParamStore
    curve: list  # (step, lr, loss)

    @property
    def first_loss(self) -> float:
        return self.curve[0][2]

    @property
    def last_loss(self) -> float:
        return self.curve[-1][2]


def train_overfit(truth: HsiCube, op: SensingOperator, params: ParamStore,
                  tcfg: TrainConfig, rcfg: ReconConfig) -> TrainResult:
    """Fit the learned pipeline to reproduce one truth patch.

    Simulates one noiseless measurement, then runs `steps` iterations of
    forward / backward / clip / Adam.  The loss curve records (step, lr,
    loss) with the loss evaluated before each update.
    Raises DivergenceError naming the step if the loss, a gradient or an
    updated weight ever goes non-finite.
    """
    tcfg.validate()
    rcfg.validate()
    if rcfg.stages < 1:
        raise ParameterError(f"training needs at least one stage, got stages={rcfg.stages}")
    op = op.astype(params.dtype)
    truth_t = cast(truth.data, params.dtype).detach()
    y = forward_measure(HsiCube(truth_t), op)
    state = AdamState(params)
    curve: list = []
    for step in range(tcfg.steps):
        lr = lr_at(step, tcfg)
        try:
            loss_val, grads = _loss_and_grads(y, op, rcfg, params, truth_t)
            curve.append((step, lr, loss_val))
            clip_global_norm(grads, CLIP_NORM)
            adam_step(state, grads, lr)
        except NumericalError as exc:
            raise DivergenceError(f"non-finite training state at step {step}: {exc}") from exc
    return TrainResult(params=params, curve=curve)


def _loss_and_grads(y: Measurement, op: SensingOperator, rcfg: ReconConfig, params: ParamStore,
                    truth_t: Tensor) -> tuple:
    """One step's forward and backward: (loss value, flat gradient in store
    order, the layout of `AdamState.weights`).

    The step's graph lives only in this call, and `backward` frees it as it
    walks, so no tensor of one step is alive during the next step's forward.
    """
    # `result` stays bound through the walk: the final estimate, allocated
    # last, keeps the freed graph below the heap top, so the allocator does
    # not return it to the OS for the next forward to fault back in.
    result = run_hqs(y, op, rcfg, params)
    loss = charbonnier_loss(result.z.data, truth_t)
    grad_map = backward(loss, params=params)
    flat = np.concatenate([grad_map[t].ravel() for _, t in params.items()])
    return float(loss.data.reshape(())), flat


def curve_csv(curve: list) -> str:
    """Loss curve as CSV: step, lr, loss."""
    buf = io.StringIO()
    buf.write("step,lr,loss\n")
    for step, lr, loss in curve:
        buf.write(f"{step},{lr:.9g},{loss:.9g}\n")
    return buf.getvalue()
