"""Coded-aperture snapshot spectral imaging (CASSI) measurement model.

A scene cube X in R^{H x W x N} is modulated per band by one 2D coded mask,
each band is then sheared horizontally by a band-dependent integer shift
d_n = step * (n - 1), and the sensor integrates over bands:

    Y(h, w') = sum_n M(h, w' - d_n) * X(h, w' - d_n, n) + noise

with detector width W' = W + step * (N - 1).  Equivalently y = Phi x in
matrix form, where Phi is built from N horizontally concatenated diagonal
blocks, so Phi Phi^T is diagonal: the quantity `phi_gram_diag` returns that
diagonal as an H x W' image, and the data-consistency step in hqs.py relies
on it.

The shear and its inverse are recorded as differentiable primitives so that
learned operator corrections can flow gradients through measurement and
adjoint applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OperatorError, OracleCapError, ParameterError, ShapeError
from .tensor import Tensor, as_tensor, make_op, mul, reduce_sum, reshape


@dataclass(frozen=True)
class HsiCube:
    """Hyperspectral scene, [H, W, N] with N spectral bands."""

    data: Tensor

    def __post_init__(self):
        if self.data.data.ndim != 3:
            raise ShapeError(f"HsiCube expects rank 3, got {self.data.shape}")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]

    def numpy(self) -> np.ndarray:
        return self.data.copy_array()


@dataclass(frozen=True)
class Mask2D:
    """Coded aperture, [H, W], nonnegative transmittances."""

    data: Tensor

    def __post_init__(self):
        if self.data.data.ndim != 2:
            raise ShapeError(f"Mask2D expects rank 2, got {self.data.shape}")
        if self.data.data.min() < 0:
            raise OperatorError("mask has negative transmittances")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def numpy(self) -> np.ndarray:
        return self.data.copy_array()


@dataclass(frozen=True)
class Measurement:
    """Sensor image, [H, W'] with W' = W + step * (N - 1)."""

    data: Tensor

    def __post_init__(self):
        if self.data.data.ndim != 2:
            raise ShapeError(f"Measurement expects rank 2, got {self.data.shape}")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def numpy(self) -> np.ndarray:
        return self.data.copy_array()


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise model: 'none', or 'shot' (Poisson at `bits` depth).

    Shot noise scales the clean measurement to a [0, 2^bits] photon budget,
    draws one Poisson sample per pixel from a PCG64 stream seeded with
    `seed`, and rescales; runs are bit-reproducible for a fixed seed.
    """

    kind: str = "none"
    bits: int = 11
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "shot"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.bits < 1:
            raise ParameterError(f"noise bits must be >= 1, got {self.bits}")


def shift_cube(x, step: int) -> Tensor:
    """Shear [H, W, N] -> [H, W + step*(N-1), N]; band n moves right by step*(n-1).

    Linear and injective; recorded as a differentiable primitive whose
    backward is the inverse shear restricted to the occupied columns.
    """
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"shift_cube expects rank 3, got {x.shape}")
    if step < 0:
        raise ParameterError(f"shift step must be >= 0, got {step}")
    h, w, n = x.shape
    wp = w + step * (n - 1)
    out = np.zeros((h, wp, n))
    for band in range(n):
        d = step * band
        out[:, d:d + w, band] = x.data[:, :, band]

    def bwd(g):
        dx = np.empty((h, w, n))
        for band in range(n):
            d = step * band
            dx[:, :, band] = g[:, d:d + w, band]
        return (dx,)

    return make_op("shift_cube", out, (x,), bwd)


def unshift_cube(xs, step: int) -> Tensor:
    """Inverse shear [H, W', N] -> [H, W, N]; discards out-of-window values.

    Adjoint of `shift_cube` (exact left inverse on sheared cubes).
    """
    xs = as_tensor(xs)
    if xs.data.ndim != 3:
        raise ShapeError(f"unshift_cube expects rank 3, got {xs.shape}")
    if step < 0:
        raise ParameterError(f"shift step must be >= 0, got {step}")
    h, wp, n = xs.shape
    w = wp - step * (n - 1)
    if w < 1:
        raise ShapeError(f"unshift_cube: width {wp} too small for {n} bands at step {step}")
    out = np.empty((h, w, n))
    for band in range(n):
        d = step * band
        out[:, :, band] = xs.data[:, d:d + w, band]

    def bwd(g):
        dxs = np.zeros((h, wp, n))
        for band in range(n):
            d = step * band
            dxs[:, d:d + w, band] = g[:, :, band]
        return (dxs,)

    return make_op("unshift_cube", out, (xs,), bwd)


def dispersion_support(h: int, w: int, n_bands: int, step: int) -> np.ndarray:
    """Boolean [H, W', N]: True where a sheared cube may be nonzero."""
    wp = w + step * (n_bands - 1)
    sup = np.zeros((h, wp, n_bands), dtype=bool)
    for band in range(n_bands):
        d = step * band
        sup[:, d:d + w, band] = True
    return sup


class SensingOperator:
    """Mask-and-shear measurement operator.

    Holds the sheared mask stack [H, W', N] (band n is the coded mask shifted
    right by step*(n-1); zero off its shifted window).  Instances built from
    a learned correction keep the same support by construction, which is what
    keeps Phi Phi^T diagonal and the closed-form data step valid.
    """

    def __init__(self, shifted_mask, step: int, check_support: bool = True):
        sm = as_tensor(shifted_mask)
        if sm.data.ndim != 3:
            raise ShapeError(f"shifted mask expects rank 3, got {sm.shape}")
        if step < 0:
            raise ParameterError(f"shift step must be >= 0, got {step}")
        h, wp, n = sm.shape
        w = wp - step * (n - 1)
        if w < 1:
            raise ShapeError(f"shifted mask width {wp} too small for {n} bands at step {step}")
        self.shifted_mask = sm
        self.step = step
        self.h, self.w, self.wp, self.n_bands = h, w, wp, n
        self.support = dispersion_support(h, w, n, step)
        if check_support and np.any(sm.data[~self.support] != 0.0):
            raise OperatorError("shifted mask has energy outside the dispersion support")

    @classmethod
    def from_mask(cls, mask, n_bands: int, step: int) -> "SensingOperator":
        mask = mask if isinstance(mask, Mask2D) else Mask2D(as_tensor(mask))
        if n_bands < 1:
            raise ParameterError(f"n_bands must be >= 1, got {n_bands}")
        h, w = mask.shape
        planes = np.repeat(mask.data.data[:, :, None], n_bands, axis=2)
        shifted = shift_cube(Tensor(planes), step)
        return cls(shifted, step, check_support=False)

    @property
    def scene_shape(self) -> tuple:
        return (self.h, self.w, self.n_bands)

    @property
    def measurement_shape(self) -> tuple:
        return (self.h, self.wp)


def _require_scene_match(x: HsiCube, op: SensingOperator) -> None:
    if x.shape != op.scene_shape:
        raise ShapeError(f"scene {x.shape} does not match operator scene {op.scene_shape}")


def apply_shot_noise(clean: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """Poisson shot noise at the given bit depth.

    The clean measurement is normalized by its max to [0, 1], scaled to a
    full well of 2^bits counts, Poisson-sampled per pixel, and rescaled to
    the original range.  An all-zero measurement passes through unchanged.
    """
    if clean.min() < 0:
        raise ParameterError("shot noise requires a nonnegative measurement")
    peak = clean.max()
    if peak <= 0:
        return clean.copy()
    full_well = float(2 ** bits)
    lam = clean / peak * full_well
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.poisson(lam).astype(np.float64)
    return counts * (peak / full_well)


def forward_measure(x: HsiCube, op: SensingOperator, noise: NoiseConfig | None = None) -> Measurement:
    """Apply the operator: modulate, shear, integrate over bands, add noise."""
    _require_scene_match(x, op)
    if op.shifted_mask.data.min() < 0:
        raise OperatorError("operator mask has negative values")
    xs = shift_cube(x.data, op.step)
    y = reduce_sum(mul(op.shifted_mask, xs), axis=2)
    if noise is None or noise.kind == "none":
        return Measurement(y)
    if y._tracked():
        raise ParameterError("noise injection requires inputs detached from any gradient graph")
    noisy = apply_shot_noise(y.data, noise.bits, noise.seed)
    return Measurement(Tensor(noisy))


def adjoint_apply(y: Measurement, op: SensingOperator) -> HsiCube:
    """Apply Phi^T: broadcast over bands, re-weight by the mask, unshear."""
    if y.shape != op.measurement_shape:
        raise ShapeError(f"measurement {y.shape} does not match operator {op.measurement_shape}")
    ybc = reshape(y.data, (op.h, op.wp, 1))
    cube = unshift_cube(mul(op.shifted_mask, ybc), op.step)
    return HsiCube(cube)


def phi_gram_diag(op: SensingOperator) -> Tensor:
    """Diagonal of Phi Phi^T as an [H, W'] image: sum_n mask_n^2."""
    return reduce_sum(mul(op.shifted_mask, op.shifted_mask), axis=2)


def materialize_dense(op: SensingOperator, cap: int = 50_000) -> np.ndarray:
    """Dense Phi in R^{HW' x HW'N}, for small-instance oracle checks only.

    Flattening convention: measurement index p = h*W' + w'; scene (sheared)
    index j = n*H*W' + p, i.e. band-major planes each in row-major order.
    Refuses instances whose column count exceeds `cap`.
    """
    rows = op.h * op.wp
    cols = rows * op.n_bands
    if cols > cap or rows > cap:
        raise OracleCapError(f"dense operator {rows}x{cols} exceeds cap {cap}")
    dense = np.zeros((rows, cols))
    mask = op.shifted_mask.data
    for band in range(op.n_bands):
        d = np.arange(rows)
        dense[d, band * rows + d] = mask[:, :, band].reshape(-1)
    return dense


def random_binary_mask(h: int, w: int, seed: int, density: float = 0.5) -> Mask2D:
    """Seeded Bernoulli coded aperture (PCG64 stream from `seed`)."""
    if not 0.0 < density < 1.0:
        raise ParameterError(f"mask density must be in (0, 1), got {density}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = (rng.random((h, w)) < density).astype(np.float64)
    return Mask2D(Tensor(bits))
