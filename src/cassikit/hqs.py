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
  eta_k.  One shared parameter store serves every stage, and its dtype sets
  the route's precision: the measurement and the operator are cast to it
  (float32 for the weights `init_pipeline_params` makes and `read_params`
  loads).  The classical route keeps its inputs' precision: the CLI builds
  them in float32, the `.hsic` payload's precision, unless
  `classical_dtype` finds that the mu schedule needs float64.

The TV denoiser is used as the proximal map of weight * TV at weight
TV_SCALE / eta_k (larger eta means a tighter data fit and lighter smoothing).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .cassi import (HsiCube, Measurement, SensingOperator, adjoint_apply,
                    forward_measure, phi_gram_diag)
from .degradation import den_forward
from .errors import MissingParamsError, NumericalError, ParameterError, ShapeError
from .params import ParamStore
from .priors import fits_float32, tv_denoise
from .tensor import Tensor, add, as_tensor, cast, div, no_grad, sub
from .transformer import LnltConfig, lnlt_denoise

DENOISERS = ("identity", "tv", "lnlt")


# bench/run.py still imports this name; drop it with the next benchmark change
LnltSettings = LnltConfig


# Fixed settings of the classical route and the initialization; each has
# one value in use, so none of them is a config field.
LAM = 1e-4        # classical eta_k = mu_k / LAM
TV_ITERS = 20     # Chambolle iterations per TV prox
TV_SCALE = 1.0    # TV prox weight is TV_SCALE / eta_k
INIT_EPS = 1e-8   # normalized-adjoint guard against zero band coverage


@dataclass
class ReconConfig:
    """Everything `run_hqs` needs besides the data and the weights.

    The geometric mu schedule applies only when `use_den` is off; with the
    estimator on, (mu_k, eta_k) are predicted per stage.  `validate` refuses
    a schedule whose last mu is not a finite float > 0 before any stage runs.
    """

    stages: int = 9
    denoiser: str = "tv"
    use_den: bool = False
    mu_start: float = 1e-4
    mu_growth: float = 3.0

    def validate(self) -> None:
        if self.stages < 0:
            raise ParameterError(f"stages must be >= 0, got {self.stages}")
        if self.denoiser not in DENOISERS:
            raise ParameterError(f"unknown denoiser {self.denoiser!r}")
        for key in ("mu_start", "mu_growth"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{key} must be finite and > 0, got {value}")
        if not self.use_den:
            try:
                last = _mu_schedule(self, max(self.stages, 1))
            except OverflowError:
                last = math.inf
            if not (math.isfinite(last) and last > 0):
                raise ParameterError(
                    f"stages {self.stages} with mu_growth {self.mu_growth} take the last mu "
                    f"to {last} (mu_start {self.mu_start}); it must be a finite float > 0")


@dataclass(frozen=True)
class TraceRow:
    """One line of the stage trace; stage 0 is the initialization (no mu/eta)."""

    stage: int
    mu: Optional[float]
    eta: Optional[float]
    residual_norm: float
    psnr_vs_truth: Optional[float]


@dataclass
class ReconResult:
    """The final estimate and the scalar trace; no iterate is kept."""

    z: HsiCube
    trace: list


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
    resid = sub(y.data, forward_measure(z, op).data)
    denom = add(mu, phi_gram_diag(op))  # a float mu takes the operator's dtype
    if denom.data.min() <= 0:
        raise NumericalError("degenerate denominator in data step")
    corr = adjoint_apply(Measurement(div(resid, denom)), op)
    return HsiCube(z.data + corr.data)


def init_estimate(y: Measurement, op: SensingOperator) -> HsiCube:
    """Initial scene estimate: the normalized adjoint Phi^T [y / (INIT_EPS +
    diag(Phi Phi^T))], which equalizes per-pixel band coverage."""
    gram = phi_gram_diag(op)
    return adjoint_apply(Measurement(div(y.data, INIT_EPS + gram)), op)


def _residual_norm(y: Measurement, z: HsiCube, op: SensingOperator) -> float:
    """||y - Phi z|| for the trace; records no graph even while training."""
    with no_grad():
        return float(np.linalg.norm(y.data.data - forward_measure(z, op).data.data))


def _mu_schedule(cfg: ReconConfig, k: int) -> float:
    """Geometric continuation; k is 1-based."""
    return cfg.mu_start * cfg.mu_growth ** (k - 1)


def classical_dtype(y: np.ndarray, cfg: ReconConfig) -> type:
    """The classical route's precision on measurement `y`: float32 while each
    stage's TV prox computes in float32 (`priors.fits_float32`) on a scene
    as large as y's peak, and float64 otherwise.  The mu schedule is
    geometric, so its first and last stages bound it; `cfg` is validated
    first, so both are finite."""
    cfg.validate()
    etas = [_mu_schedule(cfg, k) / LAM for k in {1, max(cfg.stages, 1)}]
    fits = all(eta > 0 and fits_float32(y, TV_SCALE / eta) for eta in etas)
    return np.float32 if fits else np.float64


def run_hqs(y: Measurement, op: SensingOperator, cfg: ReconConfig,
            params: Optional[ParamStore] = None,
            truth: Optional[HsiCube] = None) -> ReconResult:
    """Run K stages and return the final estimate plus one trace row per stage.

    `params` holds the learned weights, one store shared by every stage
    (recurrent weight sharing); the learned route runs in their dtype.
    Classical configurations pass None.
    K = 0 returns the initialization unchanged.
    """
    cfg.validate()
    needs_params = cfg.use_den or cfg.denoiser == "lnlt"
    if needs_params:
        if params is None:
            raise MissingParamsError(
                f"denoiser={cfg.denoiser!r} use_den={cfg.use_den} requires a parameter store")
        y, op = Measurement(cast(y.data, params.dtype)), op.astype(params.dtype)

    truth_np = truth.data.data if truth is not None else None

    def row(stage, mu, eta, z_k, phi):
        psnr = metrics.psnr(z_k.data.data, truth_np) if truth_np is not None else None
        return TraceRow(stage, mu, eta, _residual_norm(y, z_k, phi), psnr)

    z = init_estimate(y, op)
    trace = [row(0, None, None, z, op)]
    for k in range(1, cfg.stages + 1):
        if cfg.use_den:
            est = den_forward(z, op, params.scope("den"))
            phi_k, mu_k, eta_k = est.phi_hat, est.mu, est.eta
        else:
            phi_k = op
            mu_k = _mu_schedule(cfg, k)
            eta_k = mu_k / LAM

        mu_f = float(as_tensor(mu_k).data.reshape(()))
        eta_f = float(as_tensor(eta_k).data.reshape(()))
        if mu_f <= 0 or eta_f <= 0:
            raise NumericalError(f"non-positive mu/eta at stage {k}: mu={mu_f}, eta={eta_f}")

        x = data_step(z, y, phi_k, mu_k)
        # drop each iterate after its last read: unless a graph holds them, the
        # previous estimate is freed before the denoiser runs and the data
        # step's output before the trace reads the new estimate
        del z

        if cfg.denoiser == "identity":
            z = x
        elif cfg.denoiser == "tv":
            # the prox returns the route's dtype (tv_denoise: a float32 cube it
            # cannot hold in float32 computes in float64 and is rounded back)
            z = HsiCube(Tensor(tv_denoise(x.data.data, TV_SCALE / eta_f, TV_ITERS)))
        else:
            z = lnlt_denoise(x, eta_k, params.scope("lnlt"))
        del x

        trace.append(row(k, mu_f, eta_f, z, phi_k))

    return ReconResult(z=z, trace=trace)


def trace_csv(result: ReconResult) -> str:
    """Stage trace as CSV: stage, mu, eta, residual_norm, psnr_vs_truth."""
    buf = io.StringIO()
    buf.write("stage,mu,eta,residual_norm,psnr_vs_truth\n")
    for r in result.trace:
        mu_s = "" if r.mu is None else f"{r.mu:.9g}"
        eta_s = "" if r.eta is None else f"{r.eta:.9g}"
        p_s = "" if r.psnr_vs_truth is None else f"{r.psnr_vs_truth:.6f}"
        buf.write(f"{r.stage},{mu_s},{eta_s},{r.residual_norm:.9g},{p_s}\n")
    return buf.getvalue()
