"""Training-free image prior: per-band total-variation denoising.

`tv_denoise` solves the ROF proximal problem

    u* = argmin_u  0.5 * ||u - g||^2 + weight * TV(u)

independently per spectral band with the projected-dual iteration of
Chambolle (fixed dual step 0.25, isotropic TV, forward differences with
replicated far edges).  Twenty dual iterations is the plug-and-play default;
the solution tightens monotonically with more iterations.

The kernel divides each band once by the weight into a contiguous plane and
runs every iteration on flat row-major buffers, writing each op in place.
It rests on one invariant: the gradient is zero at the far edge (gx on the
last row, gy on the last column), so the duals px and py stay exactly zero
there.  The divergence is then px minus px shifted down one row plus py
minus py shifted one element along the flattened plane: the first shift
reads a zero last row where a row has no successor, the second reads a zero
last column where a row wraps into the next.  gy is the flat forward
difference with its wrapped last column set back to zero.  Every op is a
contiguous 1-D pass, and an axis of length 1 needs no special case: its
differences and duals are all zero.

Bands are split over one worker per core (`os.sched_getaffinity`): worker k
takes bands k, k + workers, ...  The calling thread is worker 0 and plain
threads run the others.  Before `tv_denoise` returns they have all ended,
and the first error any of them raised is raised again.  The calling thread
allocates 7 planes per worker up front; no worker allocates per iteration.
Every worker runs the same ops in the same order on its own bands, so the
output has the same bits for any worker count.  A 2-D input, a single band,
a 1-core host or a plane under 2^16 pixels (256x256) runs on the calling
thread alone: on smaller planes each op is so short that handing numpy's
released GIL between threads costs more than the second core gains.

A float32 input is denoised in float32 and a float64 one in float64; any
other dtype is read as float64.  A float32 input computes in float32 while
`fits_float32` holds: the weight is a normal float32 number within
[2^-56, 2^56] and |g|/weight is at most 2^56.  The duals stay within 1, so
|u| <= |g|/weight + 4 and the squared gradient of u is at most
8 (2^56 + 4)^2, about 2^115, 2^13 below the largest float32.  Otherwise the
kernel computes the float32 input in float64 and rounds the result once.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ParameterError, ShapeError

DUAL_STEP = 0.25
F32_SPAN = 2.0 ** 56  # float32 computes while weight and |g|/weight are within it
_THREADED_PLANE = 1 << 16  # pixels; on smaller planes GIL hand-offs cost more than a core gains


def fits_float32(x: np.ndarray, weight: float) -> bool:
    """Whether the prox of float32 x at `weight` computes in float32 (see the
    module docstring)."""
    peak = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
    return 1.0 / F32_SPAN <= weight <= F32_SPAN and peak <= F32_SPAN * weight


def _grad2d(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences; zero at the far edge."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:-1, :] = u[1:, :] - u[:-1, :]
    gy[:, :-1] = u[:, 1:] - u[:, :-1]
    return gx, gy


def total_variation(u: np.ndarray) -> float:
    """Isotropic TV of a 2D plane (or summed over bands for a cube)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 3:
        return float(sum(total_variation(u[:, :, i]) for i in range(u.shape[2])))
    if u.ndim != 2:
        raise ShapeError(f"total_variation expects rank 2 or 3, got rank {u.ndim}")
    gx, gy = _grad2d(u)
    return float(np.sum(np.sqrt(gx * gx + gy * gy)))


def _grad_flat(u: np.ndarray, w: int, gx: np.ndarray, gy: np.ndarray) -> None:
    """Forward differences of a flattened plane of width w, into gx and gy.

    gx's last row is never written and must hold zeros already.
    """
    np.subtract(u[w:], u[:-w], out=gx[:-w])
    np.subtract(u[1:], u[:-1], out=gy[:-1])
    gy[w - 1::w] = 0.0


def _div_flat(px: np.ndarray, py: np.ndarray, w: int, out: np.ndarray,
              tmp: np.ndarray) -> np.ndarray:
    """Negative adjoint of `_grad_flat` for duals that are zero on the far
    edge (px on the last row, py on the last column); tmp is scratch."""
    out[:w] = px[:w]
    np.subtract(px[w:], px[:-w], out=out[w:])
    tmp[0] = py[0]
    np.subtract(py[1:], py[:-1], out=tmp[1:])
    out += tmp
    return out


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tv_worker(x: np.ndarray, weight: float, iters: int, out: np.ndarray,
               planes: np.ndarray, first: int) -> None:
    """Chambolle's dual iteration in the planes' dtype on bands first,
    first + workers, ... of x [H, W, N], into out."""
    h, w, n = x.shape
    g_w, px, py, gx, gy, u, denom = planes[first]
    for band in range(first, n, len(planes)):
        g = x[:, :, band]
        np.divide(g, weight, out=g_w.reshape(h, w), dtype=g_w.dtype)
        for buf in (px, py, gx, gy):
            buf.fill(0.0)
        for _ in range(iters):
            _div_flat(px, py, w, u, denom)
            u -= g_w
            _grad_flat(u, w, gx, gy)
            np.multiply(gx, gx, out=denom)
            np.multiply(gy, gy, out=u)
            denom += u
            np.sqrt(denom, out=denom)
            denom *= DUAL_STEP
            denom += 1.0
            gx *= DUAL_STEP
            gx += px
            np.divide(gx, denom, out=px)
            gy *= DUAL_STEP
            gy += py
            np.divide(gy, denom, out=py)
        _div_flat(px, py, w, u, denom)
        u *= weight
        np.subtract(g, u.reshape(h, w), out=out[:, :, band], dtype=g_w.dtype)


def _tv_bands(x: np.ndarray, weight: float, iters: int, out: np.ndarray, dtype) -> None:
    """The prox in `dtype` of each band of x [H, W, N], into out, on one
    worker per core; the calling thread is worker 0 and waits for the rest."""
    h, w, n = x.shape
    workers = min(_cores(), n) if h * w >= _THREADED_PLANE else 1
    planes = np.empty((workers, 7, h * w), dtype=dtype)
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            _tv_worker(x, weight, iters, out, planes, first)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=work, args=(first,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def tv_denoise(x: np.ndarray, weight: float, iters: int = 20) -> np.ndarray:
    """Proximal TV denoising, applied per band for rank-3 inputs.

    A float32 input gives a float32 output; any other input is read, and
    denoised, as float64.  weight = 0 and an empty input short-circuit to a
    copy, after the rank is checked.  The output never has larger per-band
    total variation than the input.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    weight = float(weight)  # a Python float takes a float32 input's dtype
    if not math.isfinite(weight):
        raise ParameterError(f"tv weight must be finite, got {weight}")
    if weight < 0:
        raise ParameterError(f"tv weight must be >= 0, got {weight}")
    if iters < 1:
        raise ParameterError(f"tv iters must be >= 1, got {iters}")
    if x.ndim not in (2, 3):
        raise ShapeError(f"tv_denoise expects rank 2 or 3, got rank {x.ndim}")
    if weight == 0.0 or x.size == 0:
        return x.copy()
    dtype = x.dtype
    if dtype == np.float32 and not fits_float32(x, weight):
        dtype = np.float64
    out = np.empty_like(x)
    _tv_bands(np.atleast_3d(x), weight, iters, np.atleast_3d(out), dtype)
    return out
