"""Optimizer tests: hand-computed Adam updates, the warmup/cosine schedule,
gradient accumulation across shared stages, and bit-reproducible loops."""

import math

import numpy as np
import pytest

from cassikit.cassi import SensingOperator, forward_measure, random_binary_mask
from cassikit.errors import DivergenceError, ParameterError
from cassikit.degradation import den_forward
from cassikit.hqs import ReconConfig, data_step, init_estimate, run_hqs
from cassikit.params import ParamStore
from cassikit.phantom import generate_phantom
from cassikit.tensor import Graph, Tensor, add, backward, mul, reduce_sum
from cassikit.train import (ADAM_EPS, AdamState, TrainConfig, adam_step, charbonnier_loss,
                            clip_global_norm, curve_csv, lr_at, train_overfit)
from cassikit.transformer import LnltConfig, lnlt_denoise

from conftest import make_rng


def micro_pipeline(steps=8, seed=0):
    truth = generate_phantom(16, 16, 2, seed=3)
    op = SensingOperator.from_mask(random_binary_mask(16, 16, 4), 2, 2)
    from cassikit.cli import init_pipeline_params
    arch = LnltConfig(base_channels=4, heads=(1, 2, 4),
                      local_window=4, nonlocal_grid=4)
    params = init_pipeline_params(2, arch, seed=seed)
    rcfg = ReconConfig(stages=1, denoiser="lnlt", use_den=True)
    tcfg = TrainConfig(steps=steps, lr=4e-4, warmup_steps=2)
    return truth, op, params, tcfg, rcfg


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_schedule_warms_up_linearly_from_zero():
    cfg = TrainConfig(steps=100, lr=1e-2, warmup_steps=10)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(5, cfg) == pytest.approx(5e-3)
    assert lr_at(10, cfg) == pytest.approx(1e-2)  # cosine phase starts at peak


def test_schedule_cosine_decays_to_zero():
    cfg = TrainConfig(steps=100, lr=1e-2, warmup_steps=10)
    assert lr_at(55, cfg) == pytest.approx(1e-2 * 0.5, abs=1e-12)  # half phase
    assert lr_at(99, cfg) == pytest.approx(
        1e-2 * 0.5 * (1.0 + math.cos(math.pi * 89 / 90)), abs=1e-15)
    rates = [lr_at(s, cfg) for s in range(10, 100)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_schedule_with_full_warmup_stays_flat():
    cfg = TrainConfig(steps=10, lr=2e-3, warmup_steps=10)
    assert lr_at(10, cfg) == pytest.approx(2e-3)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(steps=0).validate()
    with pytest.raises(ParameterError):
        TrainConfig(steps=5, warmup_steps=6).validate()


# ---------------------------------------------------------------------------
# Adam and clipping
# ---------------------------------------------------------------------------

def test_adam_first_two_updates_hand_computed():
    """Constant unit gradient: bias correction makes each update lr-sized."""
    store = ParamStore()
    store.add("p", np.array([1.0]))
    state = AdamState(store)
    lr = 1e-2

    adam_step(store, {"p": np.array([1.0])}, state, lr)
    # m=0.1, v=0.001; m_hat=1, v_hat=1 -> step = lr/(1+eps)
    want1 = 1.0 - lr * 1.0 / (1.0 + ADAM_EPS)
    assert store["p"].data[0] == pytest.approx(want1, abs=1e-15)

    adam_step(store, {"p": np.array([1.0])}, state, lr)
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    m_hat = m2 / (1.0 - 0.9 ** 2)
    v_hat = v2 / (1.0 - 0.999 ** 2)
    want2 = want1 - lr * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
    assert store["p"].data[0] == pytest.approx(want2, abs=1e-15)


def test_adam_direction_follows_gradient_sign():
    store = ParamStore()
    store.add("p", np.array([0.0, 0.0]))
    state = AdamState(store)
    adam_step(store, {"p": np.array([2.0, -3.0])}, state, 1e-3)
    assert store["p"].data[0] < 0.0 < store["p"].data[1]


def test_adam_zero_gradient_is_a_no_op():
    store = ParamStore()
    store.add("p", np.array([1.5, -2.5]))
    before = store["p"].copy_array()
    state = AdamState(store)
    adam_step(store, {"p": np.zeros(2)}, state, 1e-2)
    np.testing.assert_array_equal(store["p"].data, before)


def test_clip_rescales_only_above_the_threshold():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # joint norm 5
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    clipped = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert clipped == pytest.approx(1.0, abs=1e-9)

    grads = {"a": np.array([0.3]), "b": np.array([0.4])}
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(grads["a"], [0.3])


def test_charbonnier_loss_matches_formula_and_grads_check():
    rng = make_rng(120)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    loss = charbonnier_loss(Tensor(a), Tensor(b))
    want_loss = np.mean(np.sqrt((a - b) ** 2 + 1e-6))
    assert float(loss.data) == pytest.approx(want_loss, abs=1e-15)

    p = Tensor(a, requires_grad=True)
    g = backward(charbonnier_loss(p, Tensor(b)))[p]
    want = (a - b) / np.sqrt((a - b) ** 2 + 1e-6) / a.size
    np.testing.assert_allclose(g, want, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient accumulation across shared weights
# ---------------------------------------------------------------------------

def test_shared_weight_gradient_sums_per_use_contributions():
    """f(p) = g(p) + h(p) built on one leaf must accumulate both parts."""
    p = Tensor(np.array([2.0]), requires_grad=True)
    out = add(reduce_sum(mul(p, p)), reduce_sum(mul(3.0, p)))
    grad = backward(out)[p]
    np.testing.assert_allclose(grad, [2.0 * 2.0 + 3.0], atol=1e-14)


def test_two_stage_shared_gradient_equals_sum_of_stagewise_gradients():
    """Two hand-composed stages on one store must equal run_hqs; on two
    cloned stores they must give the same loss, and the shared gradient
    must equal the sum of the two per-stage gradients."""
    truth, op, params, tcfg, rcfg = micro_pipeline()
    y = forward_measure(truth, op)
    cfg2 = ReconConfig(stages=2, denoiser="lnlt", use_den=True)

    def two_stages(store_1, store_2):
        z = init_estimate(y, op, cfg2.init)
        for store in (store_1, store_2):
            est = den_forward(z, op, store.scope("den"))
            x = data_step(z, y, est.phi_hat, est.mu)
            z = lnlt_denoise(x, est.eta, store.scope("lnlt"))
        return z

    def loss_of(z):
        return charbonnier_loss(z.data, truth.data.detach())

    shared_z = run_hqs(y, op, cfg2, params).z
    assert np.array_equal(two_stages(params, params).numpy(), shared_z.numpy())
    shared_loss = loss_of(shared_z)
    shared_grads = backward(shared_loss, params=params)

    clone_a = ParamStore.from_arrays(params.arrays())
    clone_b = ParamStore.from_arrays(params.arrays())
    split_loss = loss_of(two_stages(clone_a, clone_b))
    assert float(split_loss.data) == pytest.approx(float(shared_loss.data), abs=1e-14)
    grads_a = backward(split_loss, params=clone_a)
    grads_b = backward(loss_of(two_stages(clone_a, clone_b)), params=clone_b)

    for name in params.names():
        combined = grads_a[clone_a[name]] + grads_b[clone_b[name]]
        np.testing.assert_allclose(shared_grads[params[name]], combined,
                                   rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def test_overfit_loop_reduces_loss():
    truth, op, params, tcfg, rcfg = micro_pipeline(steps=8)
    result = train_overfit(truth, op, params, tcfg, rcfg)
    assert len(result.curve) == 8
    assert result.last_loss < result.first_loss
    steps, rates, losses = zip(*result.curve)
    assert steps == tuple(range(8))
    assert all(np.isfinite(losses))
    assert rates[0] == 0.0


def test_training_is_bit_reproducible():
    curves = []
    for _ in range(2):
        truth, op, params, tcfg, rcfg = micro_pipeline(steps=5)
        curves.append(train_overfit(truth, op, params, tcfg, rcfg).curve)
    assert curves[0] == curves[1]  # exact float equality, no tolerance


def test_training_updates_the_given_store_in_place():
    truth, op, params, tcfg, rcfg = micro_pipeline(steps=3)
    before = params.arrays()
    result = train_overfit(truth, op, params, tcfg, rcfg)
    assert result.params is params
    changed = [n for n in params.names()
               if not np.array_equal(before[n], params[n].data)]
    assert changed  # weights actually moved


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_step_index():
    truth, op, params, tcfg, rcfg = micro_pipeline(steps=4)
    # a poisoned weight drives the first forward pass non-finite
    name = params.names()[0]
    params[name].data[...] = 1e200
    with pytest.raises(DivergenceError, match="step 0"):
        train_overfit(truth, op, params, tcfg, rcfg)


def test_curve_csv_layout():
    text = curve_csv([(0, 0.0, 1.25), (1, 4e-4, 0.75)])
    lines = text.strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert lines[1] == "0,0,1.25"
    assert lines[2] == "1,0.0004,0.75"


@pytest.fixture(scope="module")
def desk_step_graph():
    """The recorded graph of one step of the 32x32x4, C=8, 3-stage reference
    training (acceptance 09's set-up), in topological order."""
    from cassikit.cli import init_pipeline_params
    truth = generate_phantom(32, 32, 4, seed=1)
    op = SensingOperator.from_mask(random_binary_mask(32, 32, 0), 4, 2)
    arch = LnltConfig(base_channels=8, blocks_per_level=1, local_window=4, nonlocal_grid=4)
    params = init_pipeline_params(4, arch, seed=0)
    rcfg = ReconConfig(stages=3, denoiser="lnlt", use_den=True)
    result = run_hqs(forward_measure(truth, op), op, rcfg, params)
    return Graph.from_output(charbonnier_loss(result.z.data, truth.data.detach())).order


def test_desk_train_step_records_at_most_875_graph_nodes(desk_step_graph):
    """Each attention core is one `attend` node: no token cut, merge, softmax
    or `transpose` is recorded on its own."""
    assert len(desk_step_graph) <= 875
    recorded = {node._op for node in desk_step_graph}
    assert not recorded & {"cut", "merge", "softmax_lastdim", "transpose"}


def test_desk_train_step_graph_holds_at_most_27_6_mib_of_outputs(desk_step_graph):
    """The recorded ops' outputs, which stay alive until backward, fit in 27.6 MiB
    (27.56 measured): an attention that kept its (tokens x tokens) logits or
    probabilities in the graph again would hold about 37.5 MiB."""
    held = sum(node.data.nbytes for node in desk_step_graph if node._bwd is not None)
    assert held <= 27.6 * 2**20
