"""Operator-correction tests: positivity of the predicted scalars, exact
support preservation, and gradient fidelity through the whole estimator."""

import numpy as np
import pytest

from cassikit.cassi import (HsiCube, SensingOperator, random_binary_mask,
                            shift_cube)
from cassikit.degradation import (N_BLOCKS, den_forward, gap_mlp,
                                  register_den_params)
from cassikit.errors import ParameterError, ShapeError
from cassikit.params import Initializer, ParamStore
from cassikit.tensor import Tensor, fd_gradcheck, mul, reduce_mean

from conftest import make_rng


def build_store(n_bands, seed, randomize_biases=False):
    store = ParamStore()
    register_den_params(Initializer(store, seed), n_bands)
    if randomize_biases:
        rng = make_rng(seed + 1000)
        for name in store.names():
            if name.endswith(".b"):
                store[name]._assign(rng.normal(size=store[name].shape) * 0.1)
    return store


@pytest.fixture
def estimator_setup():
    n_bands = 3
    op = SensingOperator.from_mask(random_binary_mask(6, 6, 2), n_bands, 2)
    store = build_store(n_bands, seed=5, randomize_biases=True)
    return op, store, store.scope("den")


def test_registered_shapes_follow_the_width_convention():
    store = build_store(4, seed=0)
    assert store["den.entry.w"].shape == (1, 1, 8, 8)
    for i in range(N_BLOCKS):
        assert store[f"den.block{i}.conv1.w"].shape == (3, 3, 8, 8)
        assert store[f"den.block{i}.conv2.w"].shape == (3, 3, 8, 8)
    assert store["den.exit.w"].shape == (1, 1, 8, 4)
    assert store["den.head.fc1.w"].shape == (4, 4)
    assert store["den.head.fc2.w"].shape == (4, 2)


@pytest.mark.parametrize("seed", range(6))
def test_mu_and_eta_are_strictly_positive(seed, estimator_setup):
    op, store, weights = estimator_setup
    z = HsiCube(Tensor(make_rng(600 + seed).normal(size=op.scene_shape)))
    est = den_forward(z, op, weights)
    assert float(est.mu.data) > 0.0
    assert float(est.eta.data) > 0.0


def test_scalars_at_zero_weights_are_softplus_of_zero():
    """With untouched zero biases the head sees zeros, so both scalars sit
    at softplus(0) = log 2."""
    n_bands = 3
    op = SensingOperator.from_mask(random_binary_mask(6, 6, 2), n_bands, 2)
    store = build_store(n_bands, seed=5)
    store["den.exit.w"]._assign(np.zeros(store["den.exit.w"].shape))
    est = den_forward(HsiCube(Tensor(np.zeros(op.scene_shape))), op, store.scope("den"))
    np.testing.assert_allclose(float(est.mu.data), np.log(2.0), atol=1e-12)
    np.testing.assert_allclose(float(est.eta.data), np.log(2.0), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_corrected_operator_support_is_exact(seed, estimator_setup):
    op, store, weights = estimator_setup
    z = HsiCube(Tensor(make_rng(700 + seed).normal(size=op.scene_shape) * 2.0))
    est = den_forward(z, op, weights)
    phi_hat = est.phi_hat.shifted_mask.data
    assert (phi_hat[~op.support] == 0.0).all()
    assert (est.residual.data[~op.support] == 0.0).all()


def test_corrected_mask_stays_in_clip_range(estimator_setup):
    op, store, weights = estimator_setup
    z = HsiCube(Tensor(make_rng(44).normal(size=op.scene_shape) * 50.0))
    phi_hat = den_forward(z, op, weights).phi_hat.shifted_mask.data
    assert phi_hat.min() >= 0.0
    assert phi_hat.max() <= 1.5


def test_corrected_gram_stays_diagonal(estimator_setup):
    from cassikit.cassi import materialize_dense
    op, store, weights = estimator_setup
    z = HsiCube(Tensor(make_rng(45).normal(size=op.scene_shape)))
    dense = materialize_dense(den_forward(z, op, weights).phi_hat)
    gram = dense @ dense.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() == 0.0


def test_zero_residual_configuration_returns_nominal_operator(estimator_setup):
    op, store, weights = estimator_setup
    store["den.exit.w"]._assign(np.zeros(store["den.exit.w"].shape))
    store["den.exit.b"]._assign(np.zeros(store["den.exit.b"].shape))
    z = HsiCube(Tensor(make_rng(46).normal(size=op.scene_shape)))
    est = den_forward(z, op, weights)
    np.testing.assert_array_equal(est.residual.data, 0.0)
    np.testing.assert_array_equal(est.phi_hat.shifted_mask.data, op.shifted_mask.data)


def test_estimate_depends_on_the_scene(estimator_setup):
    op, store, weights = estimator_setup
    z1 = HsiCube(Tensor(make_rng(47).normal(size=op.scene_shape)))
    z2 = HsiCube(Tensor(make_rng(48).normal(size=op.scene_shape)))
    e1, e2 = den_forward(z1, op, weights), den_forward(z2, op, weights)
    assert float(e1.mu.data) != float(e2.mu.data)
    assert not np.array_equal(e1.phi_hat.shifted_mask.data, e2.phi_hat.shifted_mask.data)


def test_shape_mismatches_rejected(estimator_setup):
    op, store, weights = estimator_setup
    with pytest.raises(ShapeError):
        den_forward(HsiCube(Tensor(np.zeros((3, 3, 3)))), op, weights)
    wrong_bands = SensingOperator.from_mask(random_binary_mask(6, 6, 2), 4, 2)
    with pytest.raises(ShapeError):
        den_forward(HsiCube(Tensor(np.zeros((6, 6, 4)))), wrong_bands, weights)
    z = HsiCube(Tensor(np.zeros(op.scene_shape)))
    with pytest.raises(ParameterError, match="'den.exit.w'"):
        den_forward(z, op, ParamStore().scope("den"))


def test_exit_width_must_match_the_band_count(estimator_setup):
    """A checkpoint drawn for other bands fails as a shape error, not later
    as a numpy broadcast error."""
    op, store, _ = estimator_setup
    arrays = store.arrays()
    arrays["den.exit.w"] = np.zeros((1, 1, 6, 5))
    arrays["den.exit.b"] = np.zeros(5)
    wide = ParamStore.from_arrays(arrays).scope("den")
    with pytest.raises(ShapeError, match="estimator exit width 5 != 3 bands"):
        den_forward(HsiCube(Tensor(np.zeros(op.scene_shape))), op, wide)


def test_gap_mlp_pools_then_projects(estimator_setup):
    op, store, weights = estimator_setup
    r = make_rng(49).normal(size=(6, 10, 3))
    head = weights.scope("head")
    mu, eta = gap_mlp(Tensor(r), head)
    pooled = r.mean(axis=(0, 1), keepdims=False)[None, :]
    hidden = pooled @ head["fc1.w"].data + head["fc1.b"].data
    hidden = 0.5 * hidden * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (hidden + 0.044715 * hidden ** 3)))
    out = np.logaddexp(0.0, hidden @ head["fc2.w"].data + head["fc2.b"].data)
    np.testing.assert_allclose(float(mu.data), out[0, 0], atol=1e-12)
    np.testing.assert_allclose(float(eta.data), out[0, 1], atol=1e-12)


def test_estimator_gradients_match_finite_differences(estimator_setup):
    op, store, weights = estimator_setup
    z = HsiCube(Tensor(make_rng(50).normal(size=op.scene_shape) * 0.3 + 0.5))
    probe = Tensor(make_rng(51).normal(size=op.shifted_mask.shape))

    def f(params):
        est = den_forward(z, op, weights)
        return reduce_mean(mul(est.phi_hat.shifted_mask, probe)) + est.mu + est.eta

    report = fd_gradcheck(f, store, n_samples=50, seed=52)
    assert report.passed, f"max rel err {report.max_rel_err:.3e}"
    checked = {row.name.split(".")[1] for row in report.rows}
    assert len(checked) >= 3  # samples reach several distinct layers
