"""Image-quality metrics for hyperspectral reconstructions.

All metrics take plain numpy arrays (cubes [H, W, N] or single planes) and
compute in float64, widening a float32 operand piece by piece: PSNR forms
one row-major float64 array of squared errors, SSIM widens one band pair at
a time into contiguous planes and SAM one chunk of rows at a time, so no
whole-cube float64 copy of an operand is made.  An empty operand is a
ShapeError.  PSNR and SSIM score cubes normalized to [0, 1], so peak and
data range are 1; SSIM follows the standard Gaussian-window formulation
(11x11 window, sigma 1.5, K1 = 0.01, K2 = 0.03) averaged over bands; SAM is
the mean per-pixel spectral angle in degrees.

PSNR's mean runs over its row-major squared errors, so it sums in one
order for operands in any layout (C-ordered, or band-major from `read_cube`
and `tv_denoise`); cubes in other layouts are transposed into it a chunk
of rows at a time.  PSNR's chunks and SSIM's band pairs are split over the
TV prox's workers (`priors.band_workers`, `priors.run_workers`): on every
core for planes of at least 2^16 pixels.  The calling thread allocates each
worker's scratch (one chunk for PSNR, SSIM_PLANES float64 planes for SSIM),
and SSIM averages its band values in band order, so each result has the
same bits for any worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, ShapeError
from .priors import band_workers, run_workers

PSNR_CAP_DB = 99.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_PLANES = 10  # float64 scratch planes per SSIM worker (see _ssim_plane)

CHUNK = 1 << 15  # values per widened chunk of rows in `psnr` and `sam` (256 KiB in float64)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as non-empty arrays of one shape and finite values, each in
    its own dtype."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ in shape: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError(f"metric operands are empty: shape {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricError("metric operands contain non-finite values")
    return a, b


def _squared_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b) ** 2 in float64, in a new row-major buffer.  Cubes that are
    not both row-major go a chunk of rows at a time, band by band into a
    worker's scratch that is squared there and then transposed into place,
    so that band-major operands are read contiguously."""
    err = np.empty(a.shape)
    if a.ndim != 3 or (a.flags.c_contiguous and b.flags.c_contiguous):
        np.subtract(a, b, out=err, dtype=np.float64)
        return np.multiply(err, err, out=err)
    h, w, n = a.shape
    rows = max(1, CHUNK // (w * n))
    workers = band_workers(h * w, n)
    chunks = np.empty((workers, n, rows, w))

    def work(first: int) -> None:
        for r in range(first * rows, h, workers * rows):
            k = min(rows, h - r)
            chunk = chunks[first, :, :k]
            np.subtract(a[r:r + k].transpose(2, 0, 1), b[r:r + k].transpose(2, 0, 1),
                        out=chunk, dtype=np.float64)
            chunk *= chunk
            err[r:r + k] = chunk.transpose(1, 2, 0)

    run_workers(work, workers)
    return err


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB at peak 1; identical inputs give the 99 dB cap."""
    a, b = _operands(a, b)
    err = _squared_error(a, b)  # one float64 buffer, no widened operand
    mse = float(np.mean(err))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian; the 2-D SSIM window is its outer product."""
    coords = np.arange(size) - (size - 1) / 2.0
    g1 = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    return g1 / g1.sum()


def _gaussian_filter(img: np.ndarray, taps: np.ndarray, rows: np.ndarray,
                     tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """'valid' correlation with the separable window into `out`: shifted row
    taps into `rows`, then shifted column taps, with no window copy of the
    plane; `tmp` is a flat scratch buffer of at least rows.size values."""
    k = len(taps)
    hv, wv = out.shape
    tmp_rows, tmp_out = tmp[:rows.size].reshape(rows.shape), tmp[:out.size].reshape(out.shape)
    np.multiply(img[:hv], taps[0], out=rows)
    for i in range(1, k):
        rows += np.multiply(img[i:hv + i], taps[i], out=tmp_rows)
    np.multiply(rows[:, :wv], taps[0], out=out)
    for j in range(1, k):
        out += np.multiply(rows[:, j:wv + j], taps[j], out=tmp_out)
    return out


def _ssim_plane(a: np.ndarray, b: np.ndarray, planes: np.ndarray) -> float:
    """SSIM of one band pair, widened into float64 scratch: `planes` holds
    SSIM_PLANES flat buffers of at least a.size values each."""
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 ** 2  # (K * data range) ** 2 at data range 1
    c2 = SSIM_K2 ** 2
    h, w = a.shape
    hv, wv = h - SSIM_WINDOW + 1, w - SSIM_WINDOW + 1

    def view(i, rows, cols):
        return planes[i, :rows * cols].reshape(rows, cols)

    pa, pb, prod = (view(i, h, w) for i in range(3))
    rows, tmp = view(3, hv, w), planes[4]
    mu_a, mu_b, e_aa, e_bb, e_ab = (view(i, hv, wv) for i in range(5, 10))
    np.copyto(pa, a)
    np.copyto(pb, b)
    _gaussian_filter(pa, taps, rows, tmp, mu_a)
    _gaussian_filter(pb, taps, rows, tmp, mu_b)
    for x, y, e in ((pa, pa, e_aa), (pb, pb, e_bb), (pa, pb, e_ab)):
        _gaussian_filter(np.multiply(x, y, out=prod), taps, rows, tmp, e)

    # the formula below, each op in place, in the order written:
    #   var_a = e_aa - mu_a mu_a, var_b = e_bb - mu_b mu_b, cov = e_ab - mu_a mu_b
    #   num = (2 mu_a mu_b + c1) (2 cov + c2)
    #   den = (mu_a mu_a + mu_b mu_b + c1) (var_a + var_b + c2)
    den, t = view(2, hv, wv), tmp[:hv * wv].reshape(hv, wv)  # prod and tmp are free now
    e_aa -= np.multiply(mu_a, mu_a, out=den)
    e_bb -= np.multiply(mu_b, mu_b, out=t)
    den += t
    den += c1
    e_aa += e_bb
    e_aa += c2
    den *= e_aa
    e_ab -= np.multiply(mu_a, mu_b, out=t)
    num = np.multiply(mu_a, 2.0, out=t)
    num *= mu_b
    num += c1
    e_ab *= 2.0
    e_ab += c2
    num *= e_ab
    num /= den
    return float(np.mean(num))


def _ssim_bands(a: np.ndarray, b: np.ndarray, workers: int) -> float:
    """Mean SSIM over the band pairs of [H, W, N] cubes on `workers` workers:
    worker k scores bands k, k + workers, ..."""
    h, w, n = a.shape
    planes = np.empty((workers, SSIM_PLANES, h * w))
    values = np.full(n, np.nan)  # a band no worker scored shows as NaN

    def work(first: int) -> None:
        for band in range(first, n, workers):
            values[band] = _ssim_plane(a[:, :, band], b[:, :, band], planes[first])

    run_workers(work, workers)
    return float(np.mean(values))


def ssim(a, b) -> float:
    """Mean structural similarity at data range 1; cubes average the per-band values."""
    a, b = _operands(a, b)
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    elif a.ndim != 3:
        raise ShapeError(f"ssim expects rank 2 or 3, got rank {a.ndim}")
    h, w, n = a.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs extents >= {SSIM_WINDOW}, got {(h, w)}")
    return _ssim_bands(a, b, band_workers(h * w, n))


def sam(a, b) -> float:
    """Mean spectral angle in degrees over pixels of [H, W, N] cubes.

    Pixels where either spectrum has zero norm carry no angle and are
    skipped.  All pixels skipped means the metric is undefined and raises
    MetricError.
    """
    a, b = _operands(a, b)
    if a.ndim != 3:
        raise ShapeError(f"sam expects rank-3 cubes, got rank {a.ndim}")
    h, w, n = a.shape
    rows = max(1, CHUNK // (w * n))
    angles = np.empty(h * w)
    count = 0
    for r in range(0, h, rows):
        # astype keeps each operand's memory order (a band-major cube from
        # read_cube sums its norms band by band) and the product is C-ordered,
        # so each sum runs in the order it runs over the whole widened cube
        ca = a[r:r + rows].astype(np.float64).reshape(-1, n)
        cb = b[r:r + rows].astype(np.float64).reshape(-1, n)
        na = np.linalg.norm(ca, axis=1)
        nb = np.linalg.norm(cb, axis=1)
        valid = (na > 0) & (nb > 0)
        dots = np.multiply(ca, cb, order="C").sum(axis=1)[valid]
        cosines = np.clip(dots / (na[valid] * nb[valid]), -1.0, 1.0)
        k = len(cosines)
        angles[count:count + k] = np.degrees(np.arccos(cosines))
        count += k
    if count == 0:
        raise MetricError("sam undefined: every pixel has a zero spectrum")
    return float(np.mean(angles[:count]))
