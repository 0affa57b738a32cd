"""Optimizer tests: hand-computed Adam updates, the warmup/cosine schedule,
gradient accumulation across shared stages, and bit-reproducible loops."""

import math
import weakref
from collections import Counter

import numpy as np
import pytest

from cassikit.cassi import HsiCube, SensingOperator, forward_measure, random_binary_mask
from cassikit.errors import DivergenceError, NumericalError, ParameterError
from cassikit.degradation import den_forward
from cassikit.hqs import ReconConfig, data_step, init_estimate, run_hqs
from cassikit.params import ParamStore
from cassikit.phantom import generate_phantom
from cassikit.tensor import Graph, Tensor, add, backward, cast, mul, reduce_sum
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
    for lr in (-1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="^lr must be finite and >= 0"):
            TrainConfig(lr=lr).validate()
    TrainConfig(lr=0.0).validate()


# ---------------------------------------------------------------------------
# Adam and clipping
# ---------------------------------------------------------------------------

def _adam(store):
    """AdamState over `store`, and a step taking {name: gradient}."""
    state = AdamState(store)

    def step(grads, lr):
        adam_step(state, np.concatenate([np.ravel(grads[n]) for n in store.names()]), lr)

    return state, step


def test_adam_first_two_updates_hand_computed():
    """Constant unit gradient: bias correction makes each update lr-sized."""
    store = ParamStore()
    store.add("p", np.array([1.0]))
    _, step = _adam(store)
    lr = 1e-2

    step({"p": np.array([1.0])}, lr)
    # m=0.1, v=0.001; m_hat=1, v_hat=1 -> step = lr/(1+eps)
    want1 = 1.0 - lr * 1.0 / (1.0 + ADAM_EPS)
    assert store["p"].data[0] == pytest.approx(want1, abs=1e-15)

    step({"p": np.array([1.0])}, lr)
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    m_hat = m2 / (1.0 - 0.9 ** 2)
    v_hat = v2 / (1.0 - 0.999 ** 2)
    want2 = want1 - lr * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
    assert store["p"].data[0] == pytest.approx(want2, abs=1e-15)


def test_adam_direction_follows_gradient_sign():
    store = ParamStore()
    store.add("p", np.array([0.0, 0.0]))
    _, step = _adam(store)
    step({"p": np.array([2.0, -3.0])}, 1e-3)
    assert store["p"].data[0] < 0.0 < store["p"].data[1]


def test_adam_zero_gradient_is_a_no_op():
    store = ParamStore()
    store.add("p", np.array([1.5, -2.5]))
    before = store["p"].copy_array()
    _, step = _adam(store)
    step({"p": np.zeros(2)}, 1e-2)
    np.testing.assert_array_equal(store["p"].data, before)


def test_adam_moments_and_updates_follow_float32_weights():
    store = ParamStore.from_arrays({"p": np.array([1.0, -2.0], np.float32)})
    state, step = _adam(store)
    step({"p": np.array([0.5, -0.25], np.float32)}, 1e-2)
    for arr in (store["p"].data, state.weights, state.m, state.v):
        assert arr.dtype == np.float32


def _random_float32_store(seed):
    rng = make_rng(seed)
    shapes = {"a.w": (3, 3, 2, 4), "a.b": (4,), "pos": (2, 4, 4), "ln.gamma": (5,)}
    return ParamStore.from_arrays({name: rng.normal(size=shape).astype(np.float32)
                                   for name, shape in shapes.items()}), rng


def test_flat_adam_equals_the_per_tensor_formula_bit_for_bit():
    """Three steps of the flat in-place update against Adam written per
    tensor, on float32 weights, moments and gradients."""
    store, rng = _random_float32_store(130)
    want = {name: t.copy_array() for name, t in store.items()}
    m = {name: np.zeros_like(a) for name, a in want.items()}
    v = {name: np.zeros_like(a) for name, a in want.items()}
    state, step = _adam(store)
    for t, lr in enumerate((1e-3, 4e-4, 2e-2), start=1):
        grads = {name: rng.normal(size=a.shape).astype(np.float32) for name, a in want.items()}
        step(grads, lr)
        for name, g in grads.items():
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            want[name] = want[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name, t_ in store.items():
            assert t_.data.dtype == np.float32
            np.testing.assert_array_equal(t_.data.view(np.uint32), want[name].view(np.uint32))
    assert state.t == 3 and all(np.shares_memory(t_.data, state.weights) for _, t_ in store.items())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_adam_update_leaves_every_weight_unchanged():
    store, _ = _random_float32_store(131)
    before = store.arrays()
    state, step = _adam(store)
    grads = {name: np.ones(t.shape, np.float32) for name, t in store.items()}
    with pytest.raises(NumericalError, match="'assign'"):
        step(grads, 1e39)  # lr * m_hat overflows float32 in every element
    for name, t in store.items():
        np.testing.assert_array_equal(t.data, before[name])
    assert state.t == 1


def test_flat_clip_equals_the_per_tensor_formula():
    """The flat clip scales a random float32 gradient like the per-tensor
    clip: the joint norm summed in float64, one scale for every element."""
    store, rng = _random_float32_store(132)
    grads = {name: (rng.normal(size=t.shape) * 3.0).astype(np.float32) for name, t in store.items()}
    flat = np.concatenate([g.ravel() for g in grads.values()])
    want_norm = math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64))) for g in grads.values()))
    scale = 1.0 / (want_norm + 1e-12)
    norm = clip_global_norm(flat, 1.0)
    assert norm == pytest.approx(want_norm, rel=1e-12)
    want = np.concatenate([(g * scale).ravel() for g in grads.values()])
    assert flat.dtype == np.float32
    np.testing.assert_allclose(flat, want, rtol=1e-6)


def test_clip_norm_of_float32_gradients_is_summed_without_overflow():
    grads = np.full(4, 1e20, np.float32)  # its square overflows float32
    assert clip_global_norm(grads, 1.0) == pytest.approx(2e20, rel=1e-6)
    assert grads.dtype == np.float32
    np.testing.assert_allclose(grads, 0.5, rtol=1e-6)


def test_clip_rescales_only_above_the_threshold():
    grads = np.array([3.0, 4.0])  # norm 5
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert math.sqrt(float(grads @ grads)) == pytest.approx(1.0, abs=1e-9)

    grads = np.array([0.3, 0.4])
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(grads, [0.3, 0.4])


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
    # in the store's dtype, as train_overfit casts them
    truth, op = HsiCube(cast(truth.data, params.dtype)), op.astype(params.dtype)
    y = forward_measure(truth, op)
    cfg2 = ReconConfig(stages=2, denoiser="lnlt", use_den=True)

    def two_stages(store_1, store_2):
        z = init_estimate(y, op)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_update_beyond_float32_raises_divergence_with_step_index():
    """At lr 1e200 the first float32 Adam update overflows in the weights'
    assignment, after the loss and gradients came out finite."""
    truth, op, params, _, rcfg = micro_pipeline()
    with pytest.raises(DivergenceError, match=r"^non-finite training state at step 0: .*'assign'"):
        train_overfit(truth, op, params, TrainConfig(steps=3, lr=1e200, warmup_steps=0), rcfg)


def test_no_array_of_a_step_outlives_it(monkeypatch):
    """The buffers of step k's graph are dead when step k+1 enters `run_hqs`:
    the step runs in its own scope and `backward` consumes its graph."""
    from cassikit import train
    held = []       # weakrefs to the output buffers of the previous step's ops
    alive = []      # per step after the first: how many of them are still alive

    def watched_run_hqs(*args, **kwargs):
        if held:
            alive.append(sum(ref() is not None for ref in held))
            held.clear()
        result = run_hqs(*args, **kwargs)
        order = Graph.from_output(result.z.data).order
        held.extend(weakref.ref(node.data) for node in order if node._bwd is not None)
        return result

    monkeypatch.setattr(train, "run_hqs", watched_run_hqs)
    train_overfit(*micro_pipeline(steps=3))
    assert len(alive) == 2 and held
    assert alive == [0, 0]


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
    truth, op = HsiCube(cast(truth.data, params.dtype)), op.astype(params.dtype)
    result = run_hqs(forward_measure(truth, op), op, rcfg, params)
    return Graph.from_output(charbonnier_loss(result.z.data, truth.data)).order


def test_desk_train_step_records_at_most_610_graph_nodes(desk_step_graph):
    """Each attention core is one `attend` node on one fused Q/K/V plane, and
    each GDFN gate one `gate` node: no token cut, merge, softmax, `transpose`
    or channel slice is recorded on its own (610 measured; 875 before the
    q/k/v and GDFN fusion)."""
    assert len(desk_step_graph) <= 610
    recorded = Counter(node._op for node in desk_step_graph)
    assert not set(recorded) & {"cut", "merge", "softmax_lastdim", "transpose"}
    # 3 stages x 5 blocks; the estimator's head holds the only gelu (one per stage)
    assert (recorded["attend"], recorded["gate"], recorded["gelu"]) == (30, 15, 3)


def test_desk_train_step_graph_holds_at_most_13_8_mib_of_outputs(desk_step_graph):
    """The recorded ops' outputs, which stay alive until backward, are float32
    and fit in 13.8 MiB (13.78 measured): a graph that held float64 again would
    hold 27.6 MiB, and an attention that kept its (tokens x tokens) logits or
    probabilities in the graph again about 18.8 MiB."""
    assert {node.data.dtype for node in desk_step_graph} == {np.dtype(np.float32)}
    held = sum(node.data.nbytes for node in desk_step_graph if node._bwd is not None)
    assert held <= 13.8 * 2**20
