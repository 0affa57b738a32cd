"""Synthetic hyperspectral scenes for demos, selftests and training toys.

A phantom mixes a smooth spectral gradient background with four seeded
geometric shapes (rectangles and disks), each carrying its own smooth
spectrum, then normalizes to [0, 1].  Generation is deterministic: one PCG64
stream derived from the seed.

The background is separable: band b's plane is (0.5 + a_b(x)) + c_b(y),
scaled by s_b, so `sin` runs over [N, 1, W] arguments and `cos` over
[N, H, 1] ones, and one broadcast add builds the cube band-major, [N, H, W].
Each shape adds its spectrum in place where its [H, W] region holds, the
cube is normalized in place, and the result is copied into a C-order
[H, W, N] array a strip of rows at a time (`priors.copy_rows`).  Every
element goes through the same float64 arithmetic as a per-band build over
a full H x W grid, so the values are the same bits.
"""

from __future__ import annotations

import numpy as np

from .cassi import HsiCube
from .errors import ParameterError
from .priors import copy_rows
from .tensor import Tensor, seeded_rng


def generate_phantom(h: int, w: int, n_bands: int, seed: int = 0) -> HsiCube:
    if h < 1 or w < 1 or n_bands < 1:
        raise ParameterError(f"phantom extents must be >= 1, got {(h, w, n_bands)}")
    rng = seeded_rng(seed)
    yy = np.linspace(0, 1, h)[:, None]
    xx = np.linspace(0, 1, w)
    bands = np.linspace(0, 1, n_bands)
    lam = bands[:, None, None]

    # smooth background: low-frequency spatial ramp with a drifting spectrum
    phase = rng.uniform(0, 2 * np.pi, size=3)
    cube = np.empty((n_bands, h, w))
    np.add(0.5 + 0.25 * np.sin(2 * np.pi * (xx + lam) + phase[0]),
           0.25 * np.cos(2 * np.pi * (yy - 0.5 * lam) + phase[1]), out=cube)
    cube *= 0.6 + 0.4 * np.sin(np.pi * lam + phase[2])

    for _ in range(4):
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        spectrum = 0.5 + 0.5 * np.sin(2 * np.pi * (bands * rng.uniform(0.5, 2.0) + rng.uniform()))
        amp = rng.uniform(0.4, 1.0)
        if rng.random() < 0.5:
            r = rng.uniform(0.08, 0.25)
            region = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        else:
            ry, rx = rng.uniform(0.08, 0.3, size=2)
            region = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        np.add(cube, (amp * spectrum)[:, None, None], out=cube, where=region)

    out = np.zeros((h, w, n_bands))
    lo = cube.min()
    hi = cube.max()
    if hi > lo:
        cube -= lo
        cube /= hi - lo
        copy_rows(out, cube.transpose(1, 2, 0))
    return HsiCube(Tensor(out))
