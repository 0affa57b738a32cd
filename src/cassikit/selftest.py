"""Built-in verification battery.

Each check compares an implementation path against an independent oracle
(closed forms, dense linear algebra, brute-force loops, or finite
differences) on small seeded fixtures and reports its worst error against a
declared tolerance.  The `quick` level is a fast smoke battery; `full` adds
an end-to-end plug-and-play reconstruction property.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .cassi import (HsiCube, Measurement, SensingOperator, adjoint_apply,
                    forward_measure, materialize_dense, phi_gram_diag,
                    random_binary_mask, shift_cube, unshift_cube)
from .degradation import den_forward, register_den_params
from .errors import CassikitError
from .hqs import ReconConfig, data_step, run_hqs
from .params import Initializer, ParamStore
from .phantom import generate_phantom
from .priors import total_variation, tv_denoise
from .tensor import (Tensor, fd_gradcheck, layer_norm, mul, reduce_mean,
                     softmax_lastdim)
from .train import CHARBONNIER_EPS, charbonnier_loss
from .transformer import (LnltConfig, _register_block, _register_msa,
                          block_forward, local_msa, nonlocal_msa)


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    passed: bool
    seconds: float


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# oracle helpers (independent numpy routines)
# ---------------------------------------------------------------------------

def _np_shift(x: np.ndarray, step: int) -> np.ndarray:
    h, w, n = x.shape
    out = np.zeros((h, w + step * (n - 1), n))
    for band in range(n):
        out[:, step * band:step * band + w, band] = x[:, :, band]
    return out


def _np_vec(cube: np.ndarray) -> np.ndarray:
    """Band-major flattening matching materialize_dense's column order."""
    return cube.transpose(2, 0, 1).reshape(-1)


def _np_conv1x1(x, w, b):
    return np.einsum("ijc,co->ijo", x, w[0, 0], optimize=True) + b


def _np_depthwise3(x, w, b):
    h, wd, c = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros_like(x)
    for di in range(3):
        for dj in range(3):
            out += xp[di:di + h, dj:dj + wd, :] * w[di, dj, 0, :]
    return out + b


def _np_qkv(x, arrs, part):
    """Q (part 0), K (1) or V (2): the part's channel third of the fused
    pointwise and depthwise weights, applied on its own."""
    c = x.shape[-1]
    cs = slice(part * c, (part + 1) * c)
    t = _np_conv1x1(x, arrs["qkv.point.w"][..., cs], arrs["qkv.point.b"][cs])
    return _np_depthwise3(t, arrs["qkv.depth.w"][..., cs], arrs["qkv.depth.b"][cs])


def _np_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _oracle_local_msa(x: np.ndarray, arrs: dict, m: int, heads: int) -> np.ndarray:
    h, w, c = x.shape
    d = c // heads
    q, k, v = (_np_qkv(x, arrs, part) for part in range(3))
    pos = arrs["pos"]
    mixed = np.zeros_like(x)
    for wi in range(h // m):
        for wj in range(w // m):
            sl = (slice(wi * m, wi * m + m), slice(wj * m, wj * m + m))
            qw = q[sl].reshape(m * m, c)
            kw = k[sl].reshape(m * m, c)
            vw = v[sl].reshape(m * m, c)
            outw = np.zeros((m * m, c))
            for head in range(heads):
                cs = slice(head * d, head * d + d)
                for t in range(m * m):
                    logits = qw[t, cs] @ kw[:, cs].T / np.sqrt(d) + pos[head, t]
                    outw[t, cs] = _np_softmax(logits) @ vw[:, cs]
            mixed[sl] = outw.reshape(m, m, c)
    return _np_conv1x1(mixed, arrs["proj.w"], arrs["proj.b"]) + x


def _oracle_nonlocal_msa(x: np.ndarray, arrs: dict, n: int, heads: int) -> np.ndarray:
    h, w, c = x.shape
    bh, bw = h // n, w // n
    width = bh * bw * c
    d = width // heads
    q, k, v = (_np_qkv(x, arrs, part) for part in range(3))
    pos = arrs["pos"]

    def grid_tokens(t):
        toks = np.zeros((n * n, width))
        for a in range(n):
            for b in range(n):
                toks[a * n + b] = t[a * bh:(a + 1) * bh, b * bw:(b + 1) * bw, :].reshape(-1)
        return toks

    qt, kt, vt = grid_tokens(q), grid_tokens(k), grid_tokens(v)
    out_tokens = np.zeros((n * n, width))
    for head in range(heads):
        cs = slice(head * d, head * d + d)
        for t in range(n * n):
            logits = qt[t, cs] @ kt[:, cs].T / np.sqrt(d) + pos[head, t]
            out_tokens[t, cs] = _np_softmax(logits) @ vt[:, cs]
    mixed = np.zeros_like(x)
    for a in range(n):
        for b in range(n):
            mixed[a * bh:(a + 1) * bh, b * bw:(b + 1) * bw, :] = \
                out_tokens[a * n + b].reshape(bh, bw, c)
    return _np_conv1x1(mixed, arrs["proj.w"], arrs["proj.b"]) + x


def dense_data_step(z: np.ndarray, y: np.ndarray, op: SensingOperator, mu: float) -> np.ndarray:
    """Normal-equation oracle for the closed-form data step."""
    a = materialize_dense(op)
    zs = _np_vec(_np_shift(z, op.step))
    rhs = a.T @ y.reshape(-1) + mu * zs
    xs = np.linalg.solve(a.T @ a + mu * np.eye(a.shape[1]), rhs)
    return _np_unvec(xs, op)


def _np_unvec(xs: np.ndarray, op: SensingOperator) -> np.ndarray:
    """Scene [H, W, N] from a band-major sheared vector (inverse of
    `_np_vec(_np_shift(...))` on its range)."""
    cube = xs.reshape(op.n_bands, op.h, op.wp).transpose(1, 2, 0)
    out = np.empty((op.h, op.w, op.n_bands))
    for band in range(op.n_bands):
        d = op.step * band
        out[:, :, band] = cube[:, d:d + op.w, band]
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_engine_oracles() -> float:
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x) / np.exp(x).sum()
    got = softmax_lastdim(Tensor(x)).data
    err = float(np.abs(got - want).max())
    rng = _rng(7)
    a = rng.normal(size=(4, 6))
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    got_ln = layer_norm(Tensor(a), Tensor(gamma), Tensor(beta)).data
    mu = a.mean(axis=1, keepdims=True)
    var = a.var(axis=1, keepdims=True)
    want_ln = (a - mu) / np.sqrt(var + 1e-5) * gamma + beta
    return max(err, float(np.abs(got_ln - want_ln).max()))


def check_shear_roundtrip() -> float:
    rng = _rng(11)
    err = 0.0
    for step in (0, 1, 2):
        x = rng.normal(size=(5, 6, 4))
        xs = shift_cube(Tensor(x), step)
        back = unshift_cube(xs, step).data
        err = max(err, float(np.abs(back - x).max()))
        ys = rng.normal(size=xs.shape)
        lhs = float(np.sum(xs.data * ys))
        rhs = float(np.sum(x * unshift_cube(Tensor(ys), step).data))
        err = max(err, abs(lhs - rhs) / max(abs(lhs), 1.0))
    return err


def check_operator_adjoint() -> float:
    err = 0.0
    for seed in range(5):
        rng = _rng(100 + seed)
        op = SensingOperator.from_mask(random_binary_mask(16, 16, seed), 8, 2)
        x = HsiCube(Tensor(rng.normal(size=(16, 16, 8))))
        u = rng.normal(size=(16, 30))
        fx = forward_measure(x, op).data.data
        atu = adjoint_apply(Measurement(Tensor(u)), op).data.data
        lhs = float(np.sum(fx * u))
        rhs = float(np.sum(x.data.data * atu))
        err = max(err, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    return err


def check_operator_dense() -> float:
    rng = _rng(23)
    op = SensingOperator.from_mask(random_binary_mask(4, 5, 3), 3, 2)
    a = materialize_dense(op)
    err = 0.0
    for _ in range(5):
        x = rng.normal(size=op.scene_shape)
        via_dense = a @ _np_vec(_np_shift(x, op.step))
        direct = forward_measure(HsiCube(Tensor(x)), op).data.data.reshape(-1)
        err = max(err, float(np.abs(via_dense - direct).max()))
    gram = a @ a.T
    off = gram - np.diag(np.diag(gram))
    err = max(err, float(np.abs(off).max()))
    err = max(err, float(np.abs(np.diag(gram) - phi_gram_diag(op).data.reshape(-1)).max()))
    return err


def check_operator_f32() -> float:
    """The measurement and the adjoint on float32 inputs against the dense
    operator in float64, on the 4x5x3 step-2 operator: the largest difference
    over the oracle's peak, within float32 rounding; a result that is not
    float32 fails."""
    rng = _rng(29)
    op = SensingOperator.from_mask(random_binary_mask(4, 5, 3), 3, 2).astype(np.float32)
    a = materialize_dense(op)
    err = 0.0
    for _ in range(5):
        x = rng.normal(size=op.scene_shape).astype(np.float32)
        y = rng.normal(size=op.measurement_shape).astype(np.float32)
        fx = forward_measure(HsiCube(Tensor(x)), op).data.data
        aty = adjoint_apply(Measurement(Tensor(y)), op).data.data
        if fx.dtype != np.float32 or aty.dtype != np.float32:
            return float("inf")
        for got, want in ((fx.reshape(-1), a @ _np_vec(_np_shift(x, op.step))),
                          (aty, _np_unvec(a.T @ y.reshape(-1), op))):
            err = max(err, float(np.abs(got - want).max() / np.abs(want).max()))
    return err


def check_data_step_dense() -> float:
    err = 0.0
    for seed, mu in ((0, 1e-3), (1, 1.0), (2, 1e3)):
        rng = _rng(300 + seed)
        op = SensingOperator.from_mask(random_binary_mask(4, 5, seed), 3, 2)
        z = rng.normal(size=op.scene_shape)
        y = rng.normal(size=op.measurement_shape)
        got = data_step(HsiCube(Tensor(z)), Measurement(Tensor(y)), op, mu).numpy()
        want = dense_data_step(z, y, op, mu)
        err = max(err, float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)))
    return err


def _msa_fixture(seed: int, c: int, heads: int, tokens: int) -> tuple:
    store = ParamStore()
    init = Initializer(store, seed)
    _register_msa(init, "msa", c, heads, tokens)
    rng = _rng(seed + 1)
    store["msa.pos"]._assign(rng.normal(size=store["msa.pos"].shape) * 0.1)
    for name in store.names():
        if name.endswith(".b"):
            store[name]._assign(rng.normal(size=store[name].shape) * 0.05)
    return store, store.scope("msa")


def _msa_arrays(store: ParamStore) -> dict:
    return {name[len("msa."):]: store[name].copy_array() for name in store.names()}


def check_attention_local() -> float:
    c, heads, m = 4, 2, 4
    store, weights = _msa_fixture(41, c, heads, m * m)
    arrs = _msa_arrays(store)
    x = _rng(42).normal(size=(8, 8, c))
    got = local_msa(Tensor(x), weights).data
    want = _oracle_local_msa(x, arrs, m, heads)
    return float(np.abs(got - want).max())


def check_attention_nonlocal() -> float:
    c, heads, n = 4, 2, 2
    store, weights = _msa_fixture(51, c, heads, n * n)
    arrs = _msa_arrays(store)
    x = _rng(52).normal(size=(8, 8, c))
    got = nonlocal_msa(Tensor(x), weights).data
    want = _oracle_nonlocal_msa(x, arrs, n, heads)
    return float(np.abs(got - want).max())


def check_grad_block() -> float:
    cfg = LnltConfig(base_channels=8, heads=(2, 2, 4), local_window=4, nonlocal_grid=2)
    store = ParamStore()
    init = Initializer(store, 61)
    _register_block(init, "lnlt.enc1.0", 8, 2, cfg)
    weights = store.scope("lnlt.enc1.0")
    x = Tensor(_rng(62).normal(size=(8, 8, 8)) * 0.5)
    probe = Tensor(_rng(63).normal(size=(8, 8, 8)))

    def f(params):
        out = block_forward(x, weights)
        return reduce_mean(mul(out, probe))

    report = fd_gradcheck(f, store, n_samples=12, seed=64)
    return report.max_rel_err


def check_grad_den() -> float:
    store = ParamStore()
    init = Initializer(store, 71)
    register_den_params(init, 3)
    weights = store.scope("den")
    op = SensingOperator.from_mask(random_binary_mask(6, 6, 5), 3, 1)
    z = HsiCube(Tensor(_rng(72).normal(size=(6, 6, 3)) * 0.3 + 0.5))
    probe = Tensor(_rng(73).normal(size=(6, 8, 3)))

    def f(params):
        est = den_forward(z, op, weights)
        return reduce_mean(mul(est.phi_hat.shifted_mask, probe)) + est.mu + est.eta

    report = fd_gradcheck(f, store, n_samples=12, seed=74)
    return report.max_rel_err


def check_metrics() -> float:
    a = np.zeros((16, 16, 2))
    b = np.full((16, 16, 2), 0.1)
    err = abs(metrics.psnr(a, b) - 20.0)
    err = max(err, abs(float(charbonnier_loss(Tensor(a), Tensor(a)).data) - CHARBONNIER_EPS))
    u = np.zeros((2, 2, 2))
    v = np.zeros((2, 2, 2))
    u[..., 0] = 1.0
    v[..., 1] = 1.0
    err = max(err, abs(metrics.sam(u, v) - 90.0))
    plane = _rng(81).random((16, 16))
    err = max(err, abs(metrics.ssim(plane, plane) - 1.0))
    return err


def check_tv_prior() -> float:
    rng = _rng(91)
    edge = np.zeros((24, 24))
    edge[:, 12:] = 1.0
    noisy = edge + 0.2 * rng.normal(size=edge.shape)
    out = tv_denoise(noisy, weight=0.1, iters=20)
    err = max(0.0, total_variation(out) - total_variation(noisy))
    ident = tv_denoise(noisy, weight=0.0)
    err = max(err, float(np.abs(ident - noisy).max()))
    return err


def _bit_gap(a, b) -> float:
    """0 when a and b hold the same bits, else their largest difference (inf
    when only the signs of zeros differ, or a NaN is involved)."""
    a, b = np.asarray(a), np.asarray(b)
    if np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)):
        return 0.0
    gap = float(np.abs(a - b).max())
    return gap if gap > 0.0 else float("inf")


def check_band_layout() -> float:
    """The TV prox of a C-ordered cube and of its band-major copy, which must
    come back band-major, and SSIM on 1 and 2 workers: bit for bit."""
    rng = _rng(95)
    g = (rng.random((16, 14, 5)) - 0.3).astype(np.float32)
    band_major = np.ascontiguousarray(g.transpose(2, 0, 1)).transpose(1, 2, 0)
    outs = [tv_denoise(x, weight=0.2) for x in (g, band_major)]
    if not all(out.transpose(2, 0, 1).flags.c_contiguous for out in outs):
        return float("inf")
    b = np.clip(g + 0.1 * rng.normal(size=g.shape), 0.0, 1.0)
    return max(_bit_gap(*outs), _bit_gap(*(metrics._ssim_bands(g, b, workers)
                                            for workers in (1, 2))))


def _pnp_scene() -> tuple:
    """64x64x8 phantom, its step-2 operator and noiseless measurement."""
    truth = generate_phantom(64, 64, 8, seed=5)
    op = SensingOperator.from_mask(random_binary_mask(64, 64, 6), 8, 2)
    return truth, op, forward_measure(truth, op)


def check_pnp_improvement() -> float:
    """PSNR must improve over the init, and the stage residual must shrink
    from the first recorded stage to the last."""
    truth, op, y = _pnp_scene()
    cfg = ReconConfig(stages=9, denoiser="tv")
    trace = run_hqs(y, op, cfg, truth=truth).trace
    init, first, final = trace[0], trace[1], trace[-1]
    err = max(0.0, init.psnr_vs_truth - final.psnr_vs_truth)
    err = max(err, (final.residual_norm - first.residual_norm) / first.residual_norm)
    return max(0.0, err)


def check_tv_route_f32() -> float:
    """The TV route on float32 inputs, as the CLI runs it, against the same
    route in float64: the largest difference over the float64 peak, and any
    PSNR the float32 route loses against its own initialization."""
    truth, op, y = _pnp_scene()
    cfg = ReconConfig(stages=9, denoiser="tv")
    z64 = run_hqs(y, op, cfg).z.data.data
    y32 = Measurement(Tensor(y.data.data.astype(np.float32)))
    r32 = run_hqs(y32, op.astype(np.float32), cfg, truth=truth)
    z32 = r32.z.data.data
    if z32.dtype != np.float32:
        return float("inf")
    err = float(np.abs(z32 - z64).max() / np.abs(z64).max())
    return max(err, r32.trace[0].psnr_vs_truth - r32.trace[-1].psnr_vs_truth)


CHECKS = (
    ("engine-oracles", check_engine_oracles, 1e-12, "quick"),
    ("shear-roundtrip", check_shear_roundtrip, 1e-12, "quick"),
    ("operator-adjoint", check_operator_adjoint, 1e-5, "quick"),
    ("operator-dense", check_operator_dense, 1e-10, "quick"),
    ("operator-f32", check_operator_f32, 1e-6, "quick"),
    ("data-step-dense", check_data_step_dense, 1e-6, "quick"),
    ("attention-local", check_attention_local, 1e-5, "quick"),
    ("attention-nonlocal", check_attention_nonlocal, 1e-5, "quick"),
    ("grad-block", check_grad_block, 1e-3, "quick"),
    ("grad-den", check_grad_den, 1e-3, "quick"),
    ("metrics", check_metrics, 1e-9, "quick"),
    ("tv-prior", check_tv_prior, 1e-12, "quick"),
    ("tv-route-f32", check_tv_route_f32, 1e-6, "quick"),
    ("band-layout", check_band_layout, 0.0, "quick"),
    ("pnp-improvement", check_pnp_improvement, 1e-12, "full"),
)


def run_selftest(level: str = "quick") -> list:
    """Run the battery; returns CheckResult rows in registry order."""
    if level not in ("quick", "full"):
        raise CassikitError(f"unknown selftest level {level!r}")
    results = []
    for name, fn, tol, min_level in CHECKS:
        if min_level == "full" and level != "full":
            continue
        started = time.perf_counter()
        try:
            err = float(fn())
            passed = err <= tol
        except CassikitError:
            err = float("inf")
            passed = False
        results.append(CheckResult(name=name, max_err=err, tol=tol, passed=passed,
                                   seconds=time.perf_counter() - started))
    return results


def format_report(results: list) -> str:
    lines = [f"{'check':<22} {'max_err':>12} {'tol':>10} {'time':>8}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<22} {r.max_err:>12.3e} {r.tol:>10.1e} {r.seconds:>7.2f}s  {status}")
    overall = "all checks passed" if all(r.passed for r in results) else "FAILURES present"
    lines.append(overall)
    return "\n".join(lines)
