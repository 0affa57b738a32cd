"""Coded-aperture snapshot spectral imaging (CASSI) measurement model.

A scene cube X in R^{H x W x N} is modulated per band by one 2D coded mask,
each band is then sheared horizontally by a band-dependent integer shift
d_n = step * (n - 1), and the sensor integrates over bands:

    Y(h, w') = sum_n M(h, w' - d_n) * X(h, w' - d_n, n) + noise

with detector width W' = W + step * (N - 1).  Equivalently y = Phi x in
matrix form, where Phi is built from N horizontally concatenated diagonal
blocks, so Phi Phi^T is diagonal: the quantity `phi_gram_diag` returns that
diagonal as an H x W' image, and the data-consistency step in hqs.py relies
on it.  `forward_measure` applies Phi only; `apply_shot_noise` is the
separate noise step.

The shear and its inverse are recorded as differentiable primitives so that
learned operator corrections can flow gradients through measurement and
adjoint applications; both wrap one numpy shear pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OperatorError, OracleCapError, ParameterError, ShapeError
from .tensor import Tensor, as_tensor, make_op, mul, reduce_sum, reshape, seeded_rng


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


def _band_view(a: np.ndarray, w: int, step: int) -> np.ndarray:
    """[H, W, N] view of a sheared [H, W', N] array: band b's W columns from
    column step*b on, read with band stride step*s1 + s2."""
    h, _, n = a.shape
    s0, s1, s2 = a.strides
    return np.lib.stride_tricks.as_strided(a, (h, w, n), (s0, s1, step * s1 + s2))


def _shear(a: np.ndarray, step: int) -> np.ndarray:
    """[H, W, N] -> [H, W + step*(N-1), N]; band b (from 0) moves right by step*b."""
    h, w, n = a.shape
    out = np.zeros((h, w + step * (n - 1), n), dtype=a.dtype)
    _band_view(out, w, step)[...] = a
    return out


def _unshear(a: np.ndarray, step: int) -> np.ndarray:
    """[H, W', N] -> [H, W' - step*(N-1), N]; the inverse of `_shear` on its range."""
    _, wp, n = a.shape
    return _band_view(a, wp - step * (n - 1), step).copy()


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
    return make_op("shift_cube", _shear(x.data, step), (x,), lambda g: (_unshear(g, step),))


def unshift_cube(xs, step: int) -> Tensor:
    """Inverse shear [H, W', N] -> [H, W, N]; discards out-of-window values.

    Adjoint of `shift_cube` (exact left inverse on sheared cubes).
    """
    xs = as_tensor(xs)
    if xs.data.ndim != 3:
        raise ShapeError(f"unshift_cube expects rank 3, got {xs.shape}")
    if step < 0:
        raise ParameterError(f"shift step must be >= 0, got {step}")
    _, wp, n = xs.shape
    if wp - step * (n - 1) < 1:
        raise ShapeError(f"unshift_cube: width {wp} too small for {n} bands at step {step}")
    return make_op("unshift_cube", _unshear(xs.data, step), (xs,), lambda g: (_shear(g, step),))


def dispersion_support(h: int, w: int, n_bands: int, step: int) -> np.ndarray:
    """Boolean [H, W', N]: True where a sheared cube may be nonzero."""
    return _shear(np.broadcast_to(True, (h, w, n_bands)), step)  # a view: no H*W*N copy


class SensingOperator:
    """Mask-and-shear measurement operator.

    Holds the sheared mask stack [H, W', N] (band n is the coded mask shifted
    right by step*(n-1); zero off its shifted window).  Instances built from
    a learned correction keep the same support by construction, which is what
    keeps Phi Phi^T diagonal and the closed-form data step valid.
    """

    def __init__(self, shifted_mask, step: int):
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
        if np.any(sm.data[~self.support] != 0.0):
            raise OperatorError("shifted mask has energy outside the dispersion support")
        if sm.data.min() < 0:
            raise OperatorError("operator mask has negative values")

    @classmethod
    def from_mask(cls, mask, n_bands: int, step: int) -> "SensingOperator":
        mask = mask if isinstance(mask, Mask2D) else Mask2D(as_tensor(mask))
        if n_bands < 1:
            raise ParameterError(f"n_bands must be >= 1, got {n_bands}")
        planes = np.repeat(mask.data.data[:, :, None], n_bands, axis=2)
        return cls(shift_cube(Tensor(planes), step), step)

    @property
    def scene_shape(self) -> tuple:
        return (self.h, self.w, self.n_bands)

    @property
    def measurement_shape(self) -> tuple:
        return (self.h, self.wp)


def apply_shot_noise(clean: np.ndarray, bits: int, seed: int) -> np.ndarray:
    """Poisson shot noise at the given bit depth.

    The clean measurement is normalized by its max to [0, 1], scaled to a
    full well of 2^bits counts, Poisson-sampled per pixel, and rescaled to
    the original range.  An all-zero measurement passes through unchanged.
    """
    if not 1 <= bits <= 62:
        raise ParameterError(f"noise bits must be in [1, 62], got {bits}")
    if clean.min() < 0:
        raise ParameterError("shot noise requires a nonnegative measurement")
    rng = seeded_rng(seed)
    peak = clean.max()
    if peak <= 0:
        return clean.copy()
    full_well = float(2 ** bits)
    lam = clean / peak * full_well
    counts = rng.poisson(lam).astype(np.float64)
    return counts * (peak / full_well)


def forward_measure(x: HsiCube, op: SensingOperator) -> Measurement:
    """Apply the operator: modulate, shear, integrate over bands."""
    if x.shape != op.scene_shape:
        raise ShapeError(f"scene {x.shape} does not match operator scene {op.scene_shape}")
    xs = shift_cube(x.data, op.step)
    return Measurement(reduce_sum(mul(op.shifted_mask, xs), axis=2))


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
    rng = seeded_rng(seed)
    bits = (rng.random((h, w)) < density).astype(np.float64)
    return Mask2D(Tensor(bits))
