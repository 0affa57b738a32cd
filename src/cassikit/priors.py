"""Training-free image prior: per-band total-variation denoising.

`tv_denoise` solves the ROF proximal problem

    u* = argmin_u  0.5 * ||u - g||^2 + weight * TV(u)

independently per spectral band with the projected-dual iteration of
Chambolle (fixed dual step 0.25, isotropic TV, forward differences with
replicated far edges).  Twenty dual iterations is the plug-and-play default;
the solution tightens monotonically with more iterations.

`tv_denoise` returns a rank-3 input's prox as a band-major cube: an
[H, W, N] view of an [N, H, W] buffer, the `.hsic` payload's layout.  It
copies its input into that buffer a strip of about 256 KB of rows at a
time (`copy_rows`, `_STRIP_BYTES`), so each strip's transpose stays in
cache, and then denoises every band in place on its contiguous plane.  A
2-D input gives a row-major plane.  `phantom` and `fileio.write_cube`
make their transposing copies with `copy_rows` too.

The kernel divides each band once by the weight into a plane of its own and
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

Bands are split over one worker per core (`band_workers`): worker k takes
bands k, k + workers, ...  `run_workers` runs worker 0 on the calling
thread and the others on plain threads; before it returns they have all
ended, and the first error any of them raised is raised again.
`metrics.ssim` and `metrics.psnr` split their work the same way.  The calling thread
allocates 7 planes per worker up front; no worker allocates per iteration.
Every worker runs the same ops in the same order on its own bands, so the
output has the same bits for any worker count and any input layout.  A
2-D input, a single band, a 1-core host or a plane under 2^16 pixels
(256x256) runs on the calling thread alone: on smaller planes each op is so
short that handing numpy's released GIL between threads costs more than
the second core gains.

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
_STRIP_BYTES = 1 << 18  # input bytes per strip of the band-major copy


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


def band_workers(pixels: int, bands: int) -> int:
    """Workers for `bands` planes of `pixels` pixels each: one per core, up
    to one per band, and the calling thread alone below _THREADED_PLANE."""
    return min(_cores(), bands) if pixels >= _THREADED_PLANE else 1


def run_workers(work, workers: int) -> None:
    """Call work(k) for k in range(workers): k = 0 on the calling thread, the
    others on plain threads.  Every thread has ended when this returns, and
    the first error any worker raised is raised again."""
    errors: list[BaseException] = []

    def guarded(k: int) -> None:
        try:
            work(k)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=guarded, args=(k,))
            thread.start()
            threads.append(thread)
        guarded(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def copy_rows(out: np.ndarray, x: np.ndarray, each=None) -> None:
    """out[...] = x for arrays of one shape, cast to out's dtype, a strip of
    about _STRIP_BYTES of x's rows (its first axis) at a time, so that a
    transposing copy's strip stays in cache.  each(strip), when given, is
    called on each strip of out once it is written, while it is in cache."""
    rows = max(1, _STRIP_BYTES // max(1, x[:1].nbytes))
    for r in range(0, len(x), rows):
        out[r:r + rows] = x[r:r + rows]
        if each is not None:
            each(out[r:r + rows])


def _band_major(x: np.ndarray) -> np.ndarray:
    """A copy of x [H, W, N] as a band-major [N, H, W] array."""
    h, w, n = x.shape
    out = np.empty((n, h, w), dtype=x.dtype)
    copy_rows(out.transpose(1, 2, 0), x)
    return out


def _tv_worker(cube: np.ndarray, weight: float, iters: int, planes: np.ndarray,
               first: int) -> None:
    """Chambolle's dual iteration in the planes' dtype on bands first,
    first + workers, ... of the band-major cube [N, H, W], each in place."""
    n, h, w = cube.shape
    g_w, px, py, gx, gy, u, denom = planes[first]
    for band in range(first, n, len(planes)):
        g = cube[band].reshape(-1)
        np.divide(g, weight, out=g_w, dtype=g_w.dtype)
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
        np.subtract(g, u, out=g, dtype=g_w.dtype)


def tv_denoise(x: np.ndarray, weight: float, iters: int = 20) -> np.ndarray:
    """Proximal TV denoising, applied per band for rank-3 inputs.

    A float32 input gives a float32 output; any other input is read, and
    denoised, as float64.  A rank-3 input gives a band-major cube and a 2-D
    one a row-major plane, whatever the input's layout.  weight = 0 and an
    empty input short-circuit to that copy, after the rank is checked.  The
    output never has larger per-band total variation than the input.
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
    cube = _band_major(np.atleast_3d(x))
    if weight > 0.0 and x.size > 0:
        dtype = x.dtype
        if dtype == np.float32 and not fits_float32(x, weight):
            dtype = np.float64
        n, h, w = cube.shape
        workers = band_workers(h * w, n)
        planes = np.empty((workers, 7, h * w), dtype=dtype)
        run_workers(lambda first: _tv_worker(cube, weight, iters, planes, first), workers)
    return cube.transpose(1, 2, 0) if x.ndim == 3 else cube[0]
