"""Half-quadratic-splitting reconstruction loop.

The reconstruction energy  0.5*||y - Phi x||^2 + lambda * R(x)  is split
with an auxiliary variable z and solved by alternating

    x_k = argmin_x ||y - Phi x||^2 + mu_k ||x - z_{k-1}||^2
    z_k = Denoiser(x_k, eta_k)

Because Phi Phi^T is diagonal for the mask-and-shear operator, the x-update
has the closed form implemented by `data_step`:

    x = z + Phi^T [ (y - Phi z) / (mu + diag(Phi Phi^T)) ]

which `test` code verifies against a dense normal-equation solve on small
instances.  Two ways to drive the recurrence:

* classical: fixed operator Phi, geometric mu schedule mu_k = mu_1 * rho^(k-1),
  eta_k = mu_k / lambda, and a training-free denoiser (identity or TV);
* learned: a degradation estimator refines Phi and predicts (mu_k, eta_k)
  from z_{k-1} each stage, and the windowed-attention denoiser consumes
  eta_k.  One shared parameter store serves every stage.

The TV denoiser is used as the proximal map of weight * TV at weight
tv_scale / eta_k (larger eta means a tighter data fit and lighter smoothing).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import metrics
from .cassi import (HsiCube, Measurement, SensingOperator, adjoint_apply,
                    forward_measure, phi_gram_diag, shift_cube)
from .errors import MissingParamsError, NumericalError, ParameterError, ShapeError
from .params import ParamStore
from .priors import tv_denoise
from .tensor import Tensor, as_tensor, div, mul, no_grad, reduce_sum, sub

DENOISERS = ("identity", "tv", "lnlt")
INIT_MODES = ("adjoint", "normalized-adjoint")


@dataclass
class LnltSettings:
    """Denoiser architecture knobs; mirrored by transformer.LnltConfig."""

    base_channels: int = 32
    blocks_per_level: int = 1
    heads: tuple = (1, 2, 4)
    local_window: int = 8
    nonlocal_grid: int = 8


@dataclass
class ReconConfig:
    """Everything `run_hqs` needs besides the data and the weights.

    `seed` is recorded for provenance; the recurrence itself is
    deterministic.  The geometric mu schedule and lambda apply only when
    `use_den` is off; with the estimator on, (mu_k, eta_k) are predicted
    per stage.
    """

    stages: int = 9
    denoiser: str = "tv"
    use_den: bool = False
    init: str = "normalized-adjoint"
    mu_start: float = 1e-4
    mu_growth: float = 3.0
    lam: float = 1e-4
    tv_iters: int = 20
    tv_scale: float = 1.0
    init_eps: float = 1e-8
    lnlt: LnltSettings = field(default_factory=LnltSettings)
    seed: int = 0

    def validate(self) -> None:
        if self.stages < 0:
            raise ParameterError(f"stages must be >= 0, got {self.stages}")
        if self.denoiser not in DENOISERS:
            raise ParameterError(f"unknown denoiser {self.denoiser!r}")
        if self.init not in INIT_MODES:
            raise ParameterError(f"unknown init mode {self.init!r}")
        if self.mu_start <= 0 or self.mu_growth <= 0 or self.lam <= 0:
            raise ParameterError("mu_start, mu_growth and lam must be > 0")
        if self.init_eps <= 0:
            raise ParameterError(f"init_eps must be > 0, got {self.init_eps}")


@dataclass
class StageState:
    """Diagnostics captured after each stage (values detached)."""

    stage: int
    x: np.ndarray
    z: np.ndarray
    mu: float
    eta: float
    residual_norm: float
    psnr_vs_truth: Optional[float]


@dataclass
class InitState:
    z0: np.ndarray
    residual_norm: float
    psnr_vs_truth: Optional[float]


@dataclass
class ReconResult:
    z: HsiCube
    init: InitState
    stages: list

    @property
    def trace_rows(self) -> list:
        """(stage, mu, eta, residual_norm, psnr) rows; stage 0 has no mu/eta."""
        rows = [(0, None, None, self.init.residual_norm, self.init.psnr_vs_truth)]
        for s in self.stages:
            rows.append((s.stage, s.mu, s.eta, s.residual_norm, s.psnr_vs_truth))
        return rows


def data_step(z: HsiCube, y: Measurement, op: SensingOperator, mu) -> HsiCube:
    """Closed-form x-update; `mu` is a positive scalar (float or Tensor)."""
    mu_t = as_tensor(mu)
    if mu_t.data.size != 1:
        raise ShapeError(f"mu must be a scalar, got shape {mu_t.shape}")
    if float(mu_t.data.reshape(())) <= 0:
        raise ParameterError("mu must be > 0")
    if z.shape != op.scene_shape:
        raise ShapeError(f"z {z.shape} does not match operator scene {op.scene_shape}")
    if y.shape != op.measurement_shape:
        raise ShapeError(f"y {y.shape} does not match operator {op.measurement_shape}")
    xs = shift_cube(z.data, op.step)
    resid = sub(y.data, reduce_sum(mul(op.shifted_mask, xs), axis=2))
    denom = mu_t + phi_gram_diag(op)
    if denom.data.min() <= 0:
        raise NumericalError("degenerate denominator in data step")
    corr = adjoint_apply(Measurement(div(resid, denom)), op)
    return HsiCube(z.data + corr.data)


def init_estimate(y: Measurement, op: SensingOperator, mode: str = "normalized-adjoint",
                  eps: float = 1e-8) -> HsiCube:
    """Initial scene estimate from the measurement.

    'adjoint' is plain Phi^T y; 'normalized-adjoint' first divides the
    measurement by eps + diag(Phi Phi^T), which equalizes per-pixel band
    coverage and is the default starting point.
    """
    if mode not in INIT_MODES:
        raise ParameterError(f"unknown init mode {mode!r}")
    if mode == "adjoint":
        return adjoint_apply(y, op)
    gram = phi_gram_diag(op)
    return adjoint_apply(Measurement(div(y.data, eps + gram)), op)


def _residual_norm(y: Measurement, z: HsiCube, op: SensingOperator) -> float:
    """||y - Phi z|| for the trace; records no graph even while training."""
    with no_grad():
        return float(np.linalg.norm(y.data.data - forward_measure(z, op).data.data))


def _mu_schedule(cfg: ReconConfig, k: int) -> float:
    """Geometric continuation; k is 1-based."""
    return cfg.mu_start * cfg.mu_growth ** (k - 1)


def run_hqs(y: Measurement, op: SensingOperator, cfg: ReconConfig,
            params: Union[ParamStore, Sequence[ParamStore], None] = None,
            truth: Optional[HsiCube] = None) -> ReconResult:
    """Run K stages and return the final estimate plus the full trace.

    `params` holds the learned weights: one shared store (the default,
    recurrent weight sharing) or a sequence of K stores for the
    stage-specific ablation.  Classical configurations pass None.
    K = 0 returns the initialization unchanged.
    """
    cfg.validate()
    needs_params = cfg.use_den or cfg.denoiser == "lnlt"
    if needs_params and params is None:
        raise MissingParamsError(
            f"denoiser={cfg.denoiser!r} use_den={cfg.use_den} requires a parameter store")
    if isinstance(params, ParamStore) or params is None:
        stage_params = [params] * cfg.stages
    else:
        stage_params = list(params)
        if len(stage_params) != cfg.stages:
            raise ParameterError(
                f"per-stage parameter list has {len(stage_params)} entries for {cfg.stages} stages")

    truth_np = truth.numpy() if truth is not None else None

    z = init_estimate(y, op, cfg.init, cfg.init_eps)
    z0_np = z.numpy()
    init_resid = _residual_norm(y, z, op)
    init_psnr = metrics.psnr(z0_np, truth_np) if truth_np is not None else None
    init_state = InitState(z0=z0_np, residual_norm=init_resid, psnr_vs_truth=init_psnr)

    stages: list = []
    for k in range(1, cfg.stages + 1):
        p = stage_params[k - 1]
        if cfg.use_den:
            from .degradation import den_forward, den_weights
            est = den_forward(z, op, den_weights(p, op.n_bands))
            phi_k, mu_k, eta_k = est.phi_hat, est.mu, est.eta
        else:
            phi_k = op
            mu_k = _mu_schedule(cfg, k)
            eta_k = mu_k / cfg.lam

        x = data_step(z, y, phi_k, mu_k)

        if cfg.denoiser == "identity":
            z = x
        elif cfg.denoiser == "tv":
            weight = cfg.tv_scale / float(as_tensor(eta_k).data.reshape(()))
            z = HsiCube(Tensor(tv_denoise(x.data.data, weight, cfg.tv_iters)))
        else:
            from .transformer import lnlt_denoise, lnlt_weights
            z = lnlt_denoise(x, eta_k, lnlt_weights(p, cfg.lnlt, op.n_bands), cfg.lnlt)

        z_np = z.data.data
        mu_f = float(as_tensor(mu_k).data.reshape(()))
        eta_f = float(as_tensor(eta_k).data.reshape(()))
        if mu_f <= 0 or eta_f <= 0:
            raise NumericalError(f"non-positive mu/eta at stage {k}: mu={mu_f}, eta={eta_f}")
        resid = _residual_norm(y, z, phi_k)
        stage_psnr = metrics.psnr(z_np, truth_np) if truth_np is not None else None
        stages.append(StageState(stage=k, x=x.numpy(), z=z.numpy(), mu=mu_f, eta=eta_f,
                                 residual_norm=resid, psnr_vs_truth=stage_psnr))

    return ReconResult(z=z, init=init_state, stages=stages)


def trace_csv(result: ReconResult) -> str:
    """Stage trace as CSV: stage, mu, eta, residual_norm, psnr_vs_truth."""
    buf = io.StringIO()
    buf.write("stage,mu,eta,residual_norm,psnr_vs_truth\n")
    for stage, mu, eta, resid, p in result.trace_rows:
        mu_s = "" if mu is None else f"{mu:.9g}"
        eta_s = "" if eta is None else f"{eta:.9g}"
        p_s = "" if p is None else f"{p:.6f}"
        buf.write(f"{stage},{mu_s},{eta_s},{resid:.9g},{p_s}\n")
    return buf.getvalue()
