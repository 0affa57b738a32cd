"""Image-quality metrics for hyperspectral reconstructions.

All metrics take plain numpy arrays (cubes [H, W, N] or single planes) and
compute in float64, widening a float32 operand piece by piece: PSNR forms
one float64 difference, SSIM widens one contiguous band pair at a time and
SAM one chunk of rows at a time, so no whole-cube float64 copy of an
operand is made.  PSNR and SSIM score cubes normalized to [0, 1], so
peak and data range are 1; SSIM follows the standard Gaussian-window
formulation (11x11 window, sigma 1.5, K1 = 0.01, K2 = 0.03) averaged over
bands; SAM is the mean per-pixel spectral angle in degrees.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, ShapeError

PSNR_CAP_DB = 99.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

SAM_CHUNK = 1 << 15  # values per widened chunk of rows in `sam` (256 KiB in float64)


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as arrays of one shape and finite values, each in its own dtype."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricError("metric operands contain non-finite values")
    return a, b


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB at peak 1; identical inputs give the 99 dB cap."""
    a, b = _operands(a, b)
    err = np.subtract(a, b, dtype=np.float64)  # one float64 buffer, no widened operand
    err *= err
    mse = float(np.mean(err))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(1.0 / mse))


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian; the 2-D SSIM window is its outer product."""
    coords = np.arange(size) - (size - 1) / 2.0
    g1 = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    return g1 / g1.sum()


def _gaussian_filter(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """'valid' correlation with the separable window: shifted row taps, then
    shifted column taps, with no window copy of the plane."""
    k = len(taps)
    h, w = img.shape
    rows = taps[0] * img[:h - k + 1]
    for i in range(1, k):
        rows += taps[i] * img[i:h - k + 1 + i]
    out = taps[0] * rows[:, :w - k + 1]
    for j in range(1, k):
        out += taps[j] * rows[:, j:w - k + 1 + j]
    return out


def _ssim_plane(a: np.ndarray, b: np.ndarray) -> float:
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 ** 2  # (K * data range) ** 2 at data range 1
    c2 = SSIM_K2 ** 2

    mu_a, mu_b, e_aa, e_bb, e_ab = (_gaussian_filter(img, taps)
                                    for img in (a, b, a * a, b * b, a * b))
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def ssim(a, b) -> float:
    """Mean structural similarity at data range 1; cubes average the per-band values."""
    a, b = _operands(a, b)
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    elif a.ndim != 3:
        raise ShapeError(f"ssim expects rank 2 or 3, got rank {a.ndim}")
    h, w = a.shape[:2]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs extents >= {SSIM_WINDOW}, got {(h, w)}")

    def plane(x, i):  # one band, contiguous, in float64
        return np.ascontiguousarray(x[:, :, i], dtype=np.float64)

    return float(np.mean([_ssim_plane(plane(a, i), plane(b, i)) for i in range(a.shape[2])]))


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
    rows = max(1, SAM_CHUNK // (w * n))
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
