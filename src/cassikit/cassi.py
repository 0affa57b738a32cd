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

`forward_measure` and `adjoint_apply` are each one recorded differentiable
op, so learned operator corrections can flow gradients through them; both
compute in the promoted dtype of their operands.  The measurement shears x
into one [H, W', N] buffer, multiplies it by the mask in place and sums over
bands; that sum, like the one in the adjoint's y gradient, reads the
off-window zeros too, which fixes the order of its additions.  The adjoint
multiplies the mask's band view by a strided band view of y straight into
[H, W, N].  `shift_cube` and `unshift_cube` record the shear pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OperatorError, OracleCapError, ParameterError, ShapeError
from .tensor import Tensor, as_tensor, cast, make_op, mul, reduce_sum, seeded_rng

DENSE_CAP = 50_000  # largest row or column count materialize_dense builds


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


def _plane_band_view(a: np.ndarray, w: int, n: int, step: int) -> np.ndarray:
    """[H, W, N] view of an [H, W'] plane: band b reads the plane's W columns
    from column step*b on (`_band_view` of the plane repeated over bands)."""
    return _band_view(np.broadcast_to(a[:, :, None], (*a.shape, n)), w, step)


def _shear(a: np.ndarray, step: int, dtype=None) -> np.ndarray:
    """[H, W, N] -> [H, W + step*(N-1), N]; band b (from 0) moves right by step*b.
    The result holds `dtype` (default a's)."""
    h, w, n = a.shape
    out = np.zeros((h, w + step * (n - 1), n), dtype=dtype or a.dtype)
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
        self._gram = None  # phi_gram_diag's cache, kept while the mask records no graph
        if np.any(sm.data[~self.support] != 0.0):
            raise OperatorError("shifted mask has energy outside the dispersion support")
        if sm.data.min() < 0:
            raise OperatorError("operator mask has negative values")

    @classmethod
    def from_mask(cls, mask, n_bands: int, step: int) -> "SensingOperator":
        mask = mask if isinstance(mask, Mask2D) else Mask2D(as_tensor(mask))
        if n_bands < 1:
            raise ParameterError(f"n_bands must be >= 1, got {n_bands}")
        plane = mask.data.data
        planes = np.broadcast_to(plane[:, :, None], (*plane.shape, n_bands))  # a view
        return cls(Tensor(_shear(planes, step)), step)

    def astype(self, dtype) -> "SensingOperator":
        """This operator with its mask stack in `dtype`; itself if it holds it."""
        if self.shifted_mask.data.dtype == dtype:
            return self
        return SensingOperator(cast(self.shifted_mask, dtype), self.step)

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
    """Apply the operator: modulate, shear, integrate over bands (one op)."""
    if x.shape != op.scene_shape:
        raise ShapeError(f"scene {x.shape} does not match operator scene {op.scene_shape}")
    xt, mt, step = x.data, op.shifted_mask, op.step
    w, n = op.w, op.n_bands
    dtype = np.promote_types(xt.data.dtype, mt.data.dtype)
    prod = _shear(xt.data, step, dtype)
    prod *= mt.data

    def bwd(g):
        gm = gx = None
        if mt._tracked():
            gm = _shear(xt.data, step, dtype)
            gm *= g[:, :, None]
        if xt._tracked():
            gx = np.empty(xt.data.shape, dtype)
            np.multiply(_plane_band_view(g, w, n, step), _band_view(mt.data, w, step), out=gx)
        return gm, gx

    return Measurement(make_op("measure", prod.sum(axis=2), (mt, xt), bwd))


def adjoint_apply(y: Measurement, op: SensingOperator) -> HsiCube:
    """Apply Phi^T: each band reads y on its shifted window, re-weighted by the
    mask (one op, with no [H, W', N] intermediate)."""
    if y.shape != op.measurement_shape:
        raise ShapeError(f"measurement {y.shape} does not match operator {op.measurement_shape}")
    yt, mt, step = y.data, op.shifted_mask, op.step
    w, n = op.w, op.n_bands
    out = np.empty(op.scene_shape, np.promote_types(yt.data.dtype, mt.data.dtype))
    np.multiply(_band_view(mt.data, w, step), _plane_band_view(yt.data, w, n, step), out=out)

    def bwd(g):
        gs = _shear(g, step)
        gy = (gs * mt.data).sum(axis=2) if yt._tracked() else None
        if not mt._tracked():
            return None, gy
        gs *= yt.data[:, :, None]
        return gs, gy

    return HsiCube(make_op("adjoint", out, (mt, yt), bwd))


def phi_gram_diag(op: SensingOperator) -> Tensor:
    """Diagonal of Phi Phi^T as an [H, W'] image: sum_n mask_n^2.

    Computed once per operator whose mask records no graph (the classical
    route's fixed operator); a mask on a gradient path gets a fresh node."""
    if op._gram is not None:
        return op._gram
    gram = reduce_sum(mul(op.shifted_mask, op.shifted_mask), axis=2)
    if not gram._tracked():
        op._gram = gram
    return gram


def materialize_dense(op: SensingOperator) -> np.ndarray:
    """Dense Phi in R^{HW' x HW'N}, for small-instance oracle checks only.

    Flattening convention: measurement index p = h*W' + w'; scene (sheared)
    index j = n*H*W' + p, i.e. band-major planes each in row-major order.
    Refuses instances with more than DENSE_CAP rows or columns.
    """
    rows = op.h * op.wp
    cols = rows * op.n_bands
    if cols > DENSE_CAP or rows > DENSE_CAP:
        raise OracleCapError(f"dense operator {rows}x{cols} exceeds cap {DENSE_CAP}")
    dense = np.zeros((rows, cols))
    mask = op.shifted_mask.data
    for band in range(op.n_bands):
        d = np.arange(rows)
        dense[d, band * rows + d] = mask[:, :, band].reshape(-1)
    return dense


def random_binary_mask(h: int, w: int, seed: int) -> Mask2D:
    """Seeded Bernoulli(0.5) coded aperture (PCG64 stream from `seed`)."""
    rng = seeded_rng(seed)
    bits = (rng.random((h, w)) < 0.5).astype(np.float64)
    return Mask2D(Tensor(bits))
