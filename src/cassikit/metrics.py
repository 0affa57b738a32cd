"""Image-quality metrics for hyperspectral reconstructions.

All metrics take plain numpy arrays (cubes [H, W, N] or single planes) and
read them in float64.  PSNR and SSIM score cubes normalized to [0, 1], so
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


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MetricError("metric operands contain non-finite values")
    return a, b


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB at peak 1; identical inputs give the 99 dB cap."""
    a, b = _check_pair(a, b)
    mse = float(np.mean((a - b) ** 2))
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
    a, b = _check_pair(a, b)
    if a.ndim == 2:
        planes = [(a, b)]
    elif a.ndim == 3:
        planes = [(a[:, :, i], b[:, :, i]) for i in range(a.shape[2])]
    else:
        raise ShapeError(f"ssim expects rank 2 or 3, got rank {a.ndim}")
    h, w = planes[0][0].shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs extents >= {SSIM_WINDOW}, got {(h, w)}")
    return float(np.mean([_ssim_plane(pa, pb) for pa, pb in planes]))


def sam(a, b) -> float:
    """Mean spectral angle in degrees over pixels of [H, W, N] cubes.

    Pixels where either spectrum has zero norm carry no angle and are
    skipped.  All pixels skipped means the metric is undefined and raises
    MetricError.
    """
    a, b = _check_pair(a, b)
    if a.ndim != 3:
        raise ShapeError(f"sam expects rank-3 cubes, got rank {a.ndim}")
    flat_a = a.reshape(-1, a.shape[2])
    flat_b = b.reshape(-1, b.shape[2])
    na = np.linalg.norm(flat_a, axis=1)
    nb = np.linalg.norm(flat_b, axis=1)
    valid = (na > 0) & (nb > 0)
    if not np.any(valid):
        raise MetricError("sam undefined: every pixel has a zero spectrum")
    dots = np.sum(flat_a[valid] * flat_b[valid], axis=1)
    cosines = np.clip(dots / (na[valid] * nb[valid]), -1.0, 1.0)
    return float(np.mean(np.degrees(np.arccos(cosines))))

