"""Adam training loop for the learned reconstruction pipeline.

The objective is the Charbonnier distance between the K-stage reconstruction
and the ground-truth cube.  One shared parameter store serves all stages, so
each weight's gradient accumulates contributions from every stage through
plain reverse-mode backprop.  The learning rate ramps linearly from zero
over the warmup steps, then follows a half-cosine decay to zero; gradients
are clipped to a global L2 norm before the update.

`train_overfit` is the supported desk-scale regime: simulate one measurement
from a small truth patch, then fit the pipeline to reproduce the patch.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .cassi import HsiCube, SensingOperator, forward_measure
from .errors import DivergenceError, NumericalError, ParameterError
from .hqs import ReconConfig, run_hqs
from .params import ParamStore
from .tensor import Tensor, add, backward, mul, reduce_mean, sqrt, sub


@dataclass
class TrainConfig:
    steps: int = 500
    lr: float = 4e-4
    warmup_steps: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    charbonnier_eps: float = 1e-3

    def validate(self) -> None:
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.lr < 0:
            raise ParameterError(f"lr must be >= 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError(f"betas must be in [0, 1), got {(self.beta1, self.beta2)}")
        if self.warmup_steps < 0 or self.warmup_steps > self.steps:
            raise ParameterError(f"warmup {self.warmup_steps} invalid for {self.steps} steps")
        if self.clip_norm <= 0 or self.adam_eps <= 0 or self.charbonnier_eps <= 0:
            raise ParameterError("clip_norm, adam_eps and charbonnier_eps must be > 0")


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
    """First/second moment accumulators, bias-corrected at each step."""

    def __init__(self, params: ParamStore):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm <= max_norm.

    Returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for name in grads:
            grads[name] = grads[name] * scale
    return total


def adam_step(params: ParamStore, grads: dict, state: AdamState, lr: float,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update: grads maps name -> ndarray."""
    state.t += 1
    t = state.t
    for name, tensor in params.items():
        g = grads[name]
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * (g * g)
        m_hat = state.m[name] / (1.0 - cfg.beta1 ** t)
        v_hat = state.v[name] / (1.0 - cfg.beta2 ** t)
        tensor._assign(tensor.data - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps))


def charbonnier_loss(a: Tensor, b: Tensor, eps: float = 1e-3) -> Tensor:
    """Differentiable mean sqrt(diff^2 + eps^2)."""
    if eps <= 0:
        raise ParameterError(f"charbonnier eps must be > 0, got {eps}")
    diff = sub(a, b)
    return reduce_mean(sqrt(add(mul(diff, diff), eps * eps)))


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
    Raises DivergenceError if the loss ever goes non-finite.
    """
    tcfg.validate()
    rcfg.validate()
    y = forward_measure(truth, op)
    truth_t = truth.data.detach()
    state = AdamState(params)
    curve: list = []
    for step in range(tcfg.steps):
        lr = lr_at(step, tcfg)
        try:
            result = run_hqs(y, op, rcfg, params)
            loss = charbonnier_loss(result.z.data, truth_t, tcfg.charbonnier_eps)
            grad_map = backward(loss, params=params)
        except NumericalError as exc:
            raise DivergenceError(f"non-finite training state at step {step}: {exc}") from exc
        loss_val = float(loss.data.reshape(()))
        if not np.isfinite(loss_val):
            raise DivergenceError(f"non-finite loss at step {step}")
        curve.append((step, lr, loss_val))
        grads = {name: grad_map[params[name]] for name in params.names()}
        clip_global_norm(grads, tcfg.clip_norm)
        adam_step(params, grads, state, lr, tcfg)
    return TrainResult(params=params, curve=curve)


def curve_csv(curve: list) -> str:
    """Loss curve as CSV: step, lr, loss."""
    buf = io.StringIO()
    buf.write("step,lr,loss\n")
    for step, lr, loss in curve:
        buf.write(f"{step},{lr:.9g},{loss:.9g}\n")
    return buf.getvalue()
