"""The synthetic phantom, bit for bit against a per-band meshgrid oracle.

The oracle evaluates the background over a full H x W grid once per band
and adds each shape by boolean indexing.  `generate_phantom` builds the
same cube separably and band-major; every element goes through the same
float64 arithmetic, so the two must agree in every bit.  No digest is
pinned: numpy's SIMD `sin` may round differently on another CPU, and the
oracle runs on the same one.
"""

import numpy as np
import pytest

from cassikit import cli, fileio
from cassikit.errors import ParameterError
from cassikit.phantom import generate_phantom
from cassikit.tensor import seeded_rng


def meshgrid_phantom(h: int, w: int, n_bands: int, seed: int) -> np.ndarray:
    rng = seeded_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    bands = np.linspace(0, 1, n_bands)
    phase = rng.uniform(0, 2 * np.pi, size=3)
    cube = np.empty((h, w, n_bands))
    for i, lam in enumerate(bands):
        spatial = 0.5 + 0.25 * np.sin(2 * np.pi * (xx + lam) + phase[0]) \
                      + 0.25 * np.cos(2 * np.pi * (yy - 0.5 * lam) + phase[1])
        cube[:, :, i] = spatial * (0.6 + 0.4 * np.sin(np.pi * lam + phase[2]))
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
        cube[region] += amp * spectrum
    lo = cube.min()
    hi = cube.max()
    return (cube - lo) / (hi - lo) if hi > lo else np.zeros_like(cube)


@pytest.mark.parametrize("h, w, n, seed", [
    (256, 256, 28, 0), (256, 256, 28, 11), (256, 256, 28, 7001),
    (64, 64, 28, 11), (32, 32, 4, 11), (37, 53, 5, 3), (16, 16, 8, 7),
    (1, 1, 1, 0), (1, 7, 3, 2), (5, 1, 2, 4)])
def test_phantom_has_the_bits_of_the_meshgrid_oracle(h, w, n, seed):
    got = generate_phantom(h, w, n, seed=seed).data.data
    want = meshgrid_phantom(h, w, n, seed)
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == (h, w, n)
    assert got.tobytes() == want.tobytes()


def test_phantom_command_writes_the_oracle_cube(tmp_path, capsys):
    out = tmp_path / "truth.hsic"
    assert cli.main(["phantom", "--height", "64", "--width", "48", "--bands", "28",
                     "--seed", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"phantom 64x48x28 -> {out}\n"
    ref = tmp_path / "ref.hsic"
    fileio.write_cube(str(ref), meshgrid_phantom(64, 48, 28, 11))
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3), (4, 4, 0), (-1, 4, 3)])
def test_phantom_refuses_extents_below_one(shape):
    with pytest.raises(ParameterError, match="phantom extents must be >= 1"):
        generate_phantom(*shape)
