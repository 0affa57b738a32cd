"""Measurement-model tests: shear geometry, operator adjointness, the dense
matrix oracle, and seeded shot noise."""

import numpy as np
import pytest

from cassikit import fileio
from cassikit.cassi import (HsiCube, _shear, _unshear, Mask2D, Measurement, SensingOperator,
                            adjoint_apply, apply_shot_noise,
                            dispersion_support, forward_measure,
                            materialize_dense, phi_gram_diag,
                            random_binary_mask, shift_cube, unshift_cube)
from cassikit.errors import (OperatorError, OracleCapError, ParameterError,
                             ShapeError)
from cassikit.tensor import Tensor, backward

from conftest import make_rng


def forward_loops(x, mask2d, step):
    """Triple-loop oracle: modulate by the flat mask, shear, sum over bands."""
    h, w, n = x.shape
    wp = w + step * (n - 1)
    y = np.zeros((h, wp))
    for band in range(n):
        for i in range(h):
            for j in range(w):
                y[i, j + step * band] += mask2d[i, j] * x[i, j, band]
    return y


# ---------------------------------------------------------------------------
# shear primitives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [0, 1, 2, 3])
def test_shift_unshift_roundtrip(step):
    x = make_rng(30).normal(size=(5, 7, 4))
    xs = shift_cube(Tensor(x), step)
    assert xs.shape == (5, 7 + step * 3, 4)
    np.testing.assert_array_equal(unshift_cube(xs, step).data, x)


def test_shift_places_bands_at_their_offsets():
    x = np.ones((2, 3, 3))
    out = shift_cube(Tensor(x), 2).data
    assert out.shape == (2, 7, 3)
    for band, offset in enumerate((0, 2, 4)):
        np.testing.assert_array_equal(out[:, offset:offset + 3, band], 1.0)
        occupied = np.zeros(7, dtype=bool)
        occupied[offset:offset + 3] = True
        assert not out[:, ~occupied, band].any()


def test_shift_and_unshift_are_adjoint():
    rng = make_rng(31)
    x = rng.normal(size=(4, 6, 3))
    ys = rng.normal(size=(4, 10, 3))
    lhs = float(np.sum(shift_cube(Tensor(x), 2).data * ys))
    rhs = float(np.sum(x * unshift_cube(Tensor(ys), 2).data))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_shear_gradients_are_the_inverse_maps():
    x = Tensor(make_rng(32).normal(size=(3, 4, 2)), requires_grad=True)
    seed = make_rng(33).normal(size=(3, 6, 2))
    g = backward(shift_cube(x, 2), seed=seed)[x]
    np.testing.assert_array_equal(g, unshift_cube(Tensor(seed), 2).data)


def test_shear_input_validation():
    with pytest.raises(ShapeError):
        shift_cube(Tensor(np.ones((3, 4))), 1)
    with pytest.raises(ParameterError):
        shift_cube(Tensor(np.ones((3, 4, 2))), -1)
    with pytest.raises(ShapeError):
        unshift_cube(Tensor(np.ones((3, 4, 5))), 2)  # would leave width < 1


def shear_loops(a, step):
    """Per-band reference: band b's plane copied to columns step*b on."""
    h, w, n = a.shape
    out = np.zeros((h, w + step * (n - 1), n), dtype=a.dtype)
    for band in range(n):
        out[:, step * band:step * band + w, band] = a[:, :, band]
    return out


def unshear_loops(a, step):
    h, wp, n = a.shape
    w = wp - step * (n - 1)
    return np.stack([a[:, step * band:step * band + w, band] for band in range(n)], axis=2)


@pytest.mark.parametrize("shape,step", [((5, 7, 4), 0), ((5, 7, 4), 3), ((3, 6, 1), 2),
                                        ((1, 1, 5), 2), ((4, 2, 28), 2)])
def test_shear_pair_matches_the_per_band_loops(shape, step):
    x = make_rng(35).normal(size=shape)
    xs = _shear(x, step)
    assert xs.dtype == x.dtype and xs.flags.c_contiguous
    np.testing.assert_array_equal(xs, shear_loops(x, step))
    # a sheared input with values off the support, and a strided view of one
    ys = make_rng(36).normal(size=(shape[0], shape[1] + step * (shape[2] - 1), 2 * shape[2]))
    for arr in (ys[:, :, :shape[2]].copy(), ys[:, :, ::2]):
        got = _unshear(arr, step)
        assert got.flags.c_contiguous and got.base is None
        np.testing.assert_array_equal(got, unshear_loops(arr, step))
    bools = make_rng(37).random(shape) < 0.5
    np.testing.assert_array_equal(_shear(bools, step), shear_loops(bools, step))


@pytest.mark.parametrize("step", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 3])
def test_dispersion_support_matches_the_per_band_loop(step, n):
    sup = dispersion_support(3, 4, n, step)
    assert sup.dtype == np.bool_
    np.testing.assert_array_equal(sup, shear_loops(np.ones((3, 4, n), dtype=bool), step))


def test_dispersion_support_small_case():
    sup = dispersion_support(2, 3, 2, 2)
    assert sup.shape == (2, 5, 2)
    np.testing.assert_array_equal(sup[0, :, 0], [True, True, True, False, False])
    np.testing.assert_array_equal(sup[0, :, 1], [False, False, True, True, True])


# ---------------------------------------------------------------------------
# forward / adjoint
# ---------------------------------------------------------------------------

def test_forward_matches_loop_oracle():
    rng = make_rng(34)
    mask = random_binary_mask(6, 7, 4)
    op = SensingOperator.from_mask(mask, 3, 2)
    x = rng.normal(size=(6, 7, 3))
    got = forward_measure(HsiCube(Tensor(x)), op).numpy()
    np.testing.assert_allclose(got, forward_loops(x, mask.numpy(), 2), atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_operator_adjointness_many_seeds(seed):
    rng = make_rng(400 + seed)
    op = SensingOperator.from_mask(random_binary_mask(16, 16, seed), 8, 2)
    x = HsiCube(Tensor(rng.normal(size=op.scene_shape)))
    u = rng.normal(size=op.measurement_shape)
    lhs = float(np.sum(forward_measure(x, op).numpy() * u))
    rhs = float(np.sum(x.numpy() * adjoint_apply(Measurement(Tensor(u)), op).numpy()))
    assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs))


def test_geometry_law_shapes(square_operator):
    assert square_operator.scene_shape == (16, 16, 8)
    assert square_operator.measurement_shape == (16, 16 + 2 * 7)
    x = HsiCube(Tensor(make_rng(35).random(square_operator.scene_shape)))
    assert forward_measure(x, square_operator).shape == (16, 30)


def test_shape_mismatches_rejected(square_operator):
    with pytest.raises(ShapeError):
        forward_measure(HsiCube(Tensor(np.ones((8, 8, 8)))), square_operator)
    with pytest.raises(ShapeError):
        adjoint_apply(Measurement(Tensor(np.ones((16, 16)))), square_operator)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def test_dense_matrix_reproduces_forward(tiny_operator):
    rng = make_rng(36)
    a = materialize_dense(tiny_operator)
    rows = tiny_operator.h * tiny_operator.wp
    assert a.shape == (rows, rows * tiny_operator.n_bands)
    for _ in range(5):
        x = rng.normal(size=tiny_operator.scene_shape)
        xs = shift_cube(Tensor(x), tiny_operator.step).data
        vec = xs.transpose(2, 0, 1).reshape(-1)  # band-major column order
        direct = forward_measure(HsiCube(Tensor(x)), tiny_operator).numpy().reshape(-1)
        np.testing.assert_allclose(a @ vec, direct, atol=1e-12)


def test_gram_is_diagonal_and_matches_closed_form(tiny_operator):
    a = materialize_dense(tiny_operator)
    gram = a @ a.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() == 0.0
    want = phi_gram_diag(tiny_operator).data.reshape(-1)
    np.testing.assert_allclose(np.diag(gram), want, atol=1e-10)


def test_dense_oracle_refuses_large_instances():
    op = SensingOperator.from_mask(random_binary_mask(64, 64, 0), 28, 2)
    with pytest.raises(OracleCapError):
        materialize_dense(op)


# ---------------------------------------------------------------------------
# operator construction rules
# ---------------------------------------------------------------------------

def test_mask_validation():
    with pytest.raises(OperatorError):
        Mask2D(Tensor(np.array([[0.5, -0.1]])))
    with pytest.raises(ShapeError):
        Mask2D(Tensor(np.ones((2, 2, 2))))
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        random_binary_mask(4, 4, -1)


def test_random_mask_is_seeded_binary():
    m1 = random_binary_mask(32, 32, 9).numpy()
    m2 = random_binary_mask(32, 32, 9).numpy()
    m3 = random_binary_mask(32, 32, 10).numpy()
    np.testing.assert_array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    assert set(np.unique(m1)) <= {0.0, 1.0}
    assert 0.3 < m1.mean() < 0.7


def test_operator_rejects_energy_outside_support():
    bad = np.ones((3, 7, 3))  # step-2 support would be staircase shaped
    with pytest.raises(OperatorError):
        SensingOperator(Tensor(bad), step=2)


def test_operator_rejects_a_negative_stack_when_built(tmp_path):
    """A sheared stack file with one negative in-support value fails at
    construction, before any measurement is taken."""
    stack = SensingOperator.from_mask(random_binary_mask(3, 3, 1), 3, 2).shifted_mask.copy_array()
    stack[1, 2, 1] = -0.5  # band 1 occupies columns 2..4
    path = str(tmp_path / "stack.hsic")
    fileio.write_cube(path, stack)
    with pytest.raises(OperatorError, match="negative"):
        SensingOperator(Tensor(fileio.read_cube(path)), step=2)


def test_operator_accepts_supported_stack():
    mask = random_binary_mask(3, 3, 1)
    op = SensingOperator.from_mask(mask, 3, 2)
    rebuilt = SensingOperator(Tensor(op.shifted_mask.copy_array()), step=2)
    assert rebuilt.scene_shape == op.scene_shape
    np.testing.assert_array_equal(rebuilt.shifted_mask.data, op.shifted_mask.data)


# ---------------------------------------------------------------------------
# shot noise
# ---------------------------------------------------------------------------

def test_shot_noise_is_seeded_and_scaled():
    rng = make_rng(37)
    clean = rng.random((12, 20)) * 0.8
    n1 = apply_shot_noise(clean, bits=11, seed=5)
    n2 = apply_shot_noise(clean, bits=11, seed=5)
    n3 = apply_shot_noise(clean, bits=11, seed=6)
    np.testing.assert_array_equal(n1, n2)
    assert not np.array_equal(n1, n3)
    assert n1.min() >= 0.0
    # counts are integers of the photon budget, so values live on a lattice
    counts = n1 * (2 ** 11) / clean.max()
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)


def test_shot_noise_snr_grows_with_bit_depth():
    clean = np.full((64, 64), 0.5)
    noisy_low = apply_shot_noise(clean, bits=4, seed=0)
    noisy_high = apply_shot_noise(clean, bits=14, seed=0)
    err_low = np.abs(noisy_low - clean).mean()
    err_high = np.abs(noisy_high - clean).mean()
    assert err_high < err_low


def test_shot_noise_edge_cases():
    zeros = np.zeros((4, 4))
    np.testing.assert_array_equal(apply_shot_noise(zeros, 11, 0), zeros)
    with pytest.raises(ParameterError):
        apply_shot_noise(np.array([[-1.0]]), 11, 0)
    for bits in (0, 63):
        with pytest.raises(ParameterError, match=r"bits must be in \[1, 62\]"):
            apply_shot_noise(np.ones((2, 2)), bits, 0)
    assert np.isfinite(apply_shot_noise(np.ones((2, 2)), 62, 0)).all()
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        apply_shot_noise(np.ones((2, 2)), 11, -1)
