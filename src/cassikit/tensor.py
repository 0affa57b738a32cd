"""Minimal dense tensor engine with reverse-mode differentiation.

Values live in float64 numpy buffers (row-major, innermost axis last).  Ops
are pure: they allocate fresh outputs and never mutate their inputs.  Each op
validates its result and raises NumericalError naming the op if any output
value is NaN or Inf; silent propagation of non-finite values is a bug by
policy.

A computation graph is recorded implicitly whenever an op consumes a tensor
that requires gradients (directly or transitively), unless the op runs
inside a `no_grad()` block: there every op returns an untracked tensor with
the same values, and no parents or backward closures are kept.  Inference
uses it so that weights loaded with `requires_grad=True` do not pin a
backward graph for every stage.  `backward` walks the graph in reverse
topological order, visiting each node exactly once, and returns a gradient
per leaf parameter.  `fd_gradcheck` verifies analytic gradients against
central finite differences.

The op set is deliberately small: exactly what the learned degradation
estimator and the windowed-attention denoiser need, plus reductions for
losses.  GELU uses the tanh approximation

    gelu(x) = 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))

with constants sqrt(2/pi) = 0.7978845608028654 and 0.044715, evaluated in
place in fresh buffers with the cube as x*x*x.

`conv2d` sums shifted strided views of its input over the kernel taps, so it
never copies input windows.  Its forward runs in strips of output rows sized
so that a strip (about 256 KB) stays in a core's L2 cache while every tap
adds into it; each output element still adds the same taps in the same
order, so the strip size does not change any bit.  A dense 1x1 conv with
stride 1 and no padding runs its forward as a single matmul.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GraphStateError, NumericalError, ParameterError, ShapeError

_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715
LAYER_NORM_EPS = 1e-5  # variance guard of every layer_norm


def _check_finite(arr: np.ndarray, op: str) -> None:
    if arr.size == 0:
        raise ShapeError(f"op '{op}' produced an empty tensor")
    # one pass: a finite sum rules out inf and NaN; an overflowing sum of
    # finite values only falls through to the exact test
    if np.isfinite(arr.sum()):
        return
    lo = arr.min()
    hi = arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError(f"non-finite values produced by op '{op}'")


class Tensor:
    """Immutable-by-convention dense array node.

    `requires_grad=True` marks a leaf parameter.  Tensors produced by ops
    carry parent links and a backward closure when any input is on a
    gradient path.  Do not override __eq__: tensors hash and compare by
    identity so they can key gradient maps.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_bwd", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._bwd = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return tuple(self.data.shape)

    def detach(self) -> "Tensor":
        """Return a view of the same values with no recorded history."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.requires_grad = False
        t._parents = ()
        t._bwd = None
        t._op = "detach"
        return t

    def copy_array(self) -> np.ndarray:
        return np.array(self.data, copy=True)

    def _tracked(self) -> bool:
        return self.requires_grad or self._bwd is not None

    def _assign(self, arr: np.ndarray) -> None:
        """In-place value replacement for optimizers and gradcheck only."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != {self.data.shape}")
        _check_finite(arr, "assign")
        self.data = arr

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Run the enclosed ops without recording a graph (per thread, nestable).

    Values are unchanged; only the parent links and backward closures are
    dropped.  The previous mode is restored on exit, also on an exception.
    """
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


def make_op(op: str, out: np.ndarray, parents: Sequence[Tensor], bwd) -> Tensor:
    """Wrap an op result, recording the graph edge if any parent is tracked
    and recording is on; every op, `cassi`'s shears too, is made here."""
    _check_finite(out, op)
    t = Tensor.__new__(Tensor)
    t.data = out
    t.requires_grad = False
    t._op = op
    if _grad_mode.recording and any(p._tracked() for p in parents):
        t._parents = tuple(parents)
        t._bwd = bwd
    else:
        t._parents = ()
        t._bwd = None
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return make_op("add", out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return make_op("sub", out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return make_op("mul", out, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data  # non-finite results rejected by make_op

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return make_op("div", out, (a, b), bwd)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        return (-g,)

    return make_op("neg", -a.data, (a,), bwd)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Elementwise clip; gradient is 1 inside [lo, hi] and 0 outside."""
    a = as_tensor(a)
    if not lo <= hi:
        raise ParameterError(f"clamp bounds out of order: [{lo}, {hi}]")
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        return (g * inside,)

    return make_op("clamp", out, (a,), bwd)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)  # negative inputs rejected by make_op

    def bwd(g):
        return (g * (0.5 / out),)

    return make_op("sqrt", out, (a,), bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return make_op("relu", a.data * mask, (a,), bwd)


def gelu(a) -> Tensor:
    """GELU, tanh approximation (constants in the module docstring)."""
    a = as_tensor(a)
    x = a.data
    # tanh of the inner polynomial, built in place in one fresh buffer; the cube
    # is x*x*x, since numpy's power has a fast path for ** 2 but not for ** 3
    th = np.multiply(x, x, out=np.empty_like(x))
    th *= x
    th *= _GELU_C1
    th += x
    th *= _GELU_C0
    np.tanh(th, out=th)
    out = np.add(th, 1.0, out=np.empty_like(x))
    out *= x
    out *= 0.5

    def bwd(g):
        sech2 = 1.0 - th * th
        du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x * x)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * du),)

    return make_op("gelu", out, (a,), bwd)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the sigmoid."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def bwd(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * a.data))
        return (g * sig,)

    return make_op("softplus", out, (a,), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    out = np.reshape(a.data, shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return make_op("reshape", out, (a,), bwd)


def concat(tensors: Sequence, axis: int) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_op("concat", out, ts, bwd)


def slice_lastdim(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if not 0 <= start < stop <= a.data.shape[-1]:
        raise ShapeError(f"slice [{start}:{stop}] invalid for last extent {a.data.shape[-1]}")
    out = np.ascontiguousarray(a.data[..., start:stop])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return make_op("slice_lastdim", out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axis = _norm_axis(axis, a.data.ndim)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return make_op("reduce_sum", np.asarray(out), (a,), bwd)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axis_n = _norm_axis(axis, a.data.ndim)
    if axis_n is None:
        count = a.data.size
    else:
        count = int(np.prod([a.data.shape[ax] for ax in axis_n]))
    s = reduce_sum(a, axis=axis_n, keepdims=keepdims)
    return mul(s, 1.0 / count)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return make_op("matmul", out, (a, b), bwd)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability; one
    buffer besides x, updated in place (the same bits as fresh outputs)."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the softmax input, from its output y and output gradient g."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def softmax_lastdim(a) -> Tensor:
    """Softmax over the last axis with max-subtraction for stability."""
    a = as_tensor(a)
    y = _softmax(a.data)

    def bwd(g):
        return (_softmax_vjp(y, g),)

    return make_op("softmax_lastdim", y, (a,), bwd)


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize over the last axis, then apply a per-channel affine."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    c = a.data.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = ((a.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (a.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=lead)
        gbeta = g.sum(axis=lead)
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = (gg - m1 - xhat * m2) * inv
        return gx, ggamma, gbeta

    return make_op("layer_norm", out, (a, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# convolutions (channels-last [H, W, C])
# ---------------------------------------------------------------------------

# Output bytes per row strip of a conv2d forward: a strip's accumulator stays
# in a core's L2 while every kernel tap adds into it.
_STRIP_BYTES = 256 * 1024


def _tap_spans(k: int, n_in: int, o0: int, o1: int, stride: int, padding: int) -> list:
    """[(i, output slice, input slice)] along one axis, for outputs o0 <= o < o1
    and each kernel offset i that reads inside the unpadded input for at least
    one of them.

    Output o reads input o*stride + i - padding at offset i; the zero padding
    adds nothing, so it is never built.
    """
    spans = []
    for i in range(k):
        lo = max(o0, -((i - padding) // stride))
        hi = min(o1, (n_in - 1 + padding - i) // stride + 1)
        start = lo * stride + i - padding
        if hi > lo:
            spans.append((i, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return spans


@functools.lru_cache(maxsize=256)
def _tap_plan(h: int, wdt: int, kh: int, kw: int, stride: int, padding: int,
              strip: int) -> tuple:
    """Per strip of `strip` output rows: (output rows, ((i, j, output window,
    input view), ...) over the kernel taps in row-major order).  Memoized: a
    plan depends only on the geometry, and a network has few geometries."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    cols = _tap_spans(kw, wdt, 0, wo, stride, padding)
    plan = []
    for r0 in range(0, ho, strip):
        r1 = min(r0 + strip, ho)
        taps = tuple((i, j, (ro, co), (ri, ci))
                     for i, ro, ri in _tap_spans(kh, h, r0, r1, stride, padding)
                     for j, co, ci in cols)
        plan.append((slice(r0, r1), taps))
    return tuple(plan)


def conv2d(x, w, b, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2D convolution on [H, W, Cin] with kernel [kh, kw, Cin/groups, Cout], bias [Cout].

    `groups` is 1 (dense) or Cin == Cout (depthwise: output channel c sees
    only input channel c).  Output extents follow
    (H + 2*padding - kh) // stride + 1.  Forward and backward accumulate
    over the kh*kw kernel taps, each reading a shifted strided view of the
    input, so no window copy of the input is made or kept.  The forward adds
    all taps, then the bias, into one strip of output rows (_STRIP_BYTES)
    before the next; every output element sums the same taps in the same
    order as a whole-plane loop, so its bits do not depend on the strips.
    A dense 1x1 conv with stride 1 and no padding runs its forward as one
    matmul; its backward is the tap loop's, with its single tap.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects rank-3 input and rank-4 kernel, got {x.shape}, {w.shape}")
    h, wdt, cin = x.shape
    kh, kw, cin_g, cout = w.shape
    if stride < 1 or padding < 0 or (groups != 1 and not groups == cin == cout):
        raise ParameterError(f"conv2d stride={stride} padding={padding} groups={groups} "
                             f"(Cin {cin}, Cout {cout}; groups must be 1 or Cin == Cout)")
    if cin_g * groups != cin:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, kernel {w.shape}, groups {groups}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output extents ({ho}, {wo}) invalid")
    bias = as_tensor(b)
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({cout},)")
    depthwise = groups == cin == cout

    if depthwise:
        # each tap's weights repeated along an output row: numpy then runs the
        # products over whole rows instead of C-long pieces
        w_rows = np.repeat(w.data, wo, axis=2)

    if kh == kw == 1 and stride == 1 and padding == 0 and not depthwise:
        out = np.matmul(x.data, w.data[0, 0])
        out += bias.data
    else:
        strip = min(ho, max(1, _STRIP_BYTES // (wo * cout * x.data.itemsize)))
        out = np.zeros((ho, wo, cout))
        for rows, taps in _tap_plan(h, wdt, kh, kw, stride, padding, strip):
            for i, j, o, v in taps:
                if depthwise:
                    out[o] += x.data[v] * w_rows[i, j, o[1]]
                else:
                    out[o] += np.matmul(x.data[v], w.data[i, j])
            out[rows] += bias.data

    def bwd(g):
        dx = np.zeros_like(x.data)
        dw = np.zeros_like(w.data)
        (_, taps), = _tap_plan(h, wdt, kh, kw, stride, padding, ho)
        for i, j, o, v in taps:
            if depthwise:
                dw[i, j, 0] = np.einsum("xyc,xyc->c", x.data[v], g[o])
                dx[v] += g[o] * w_rows[i, j, o[1]]
            else:
                dw[i, j] = np.matmul(x.data[v].transpose(0, 2, 1), g[o]).sum(axis=0)
                dx[v] += np.matmul(g[o], w.data[i, j].T)
        return dx, dw, g.sum(axis=(0, 1))

    return make_op("conv2d", out, (x, w, bias), bwd)


def conv_transpose2d(x, w, b) -> Tensor:
    """Transposed conv whose stride is its kernel extent (no overlap).

    Kernel is [s, s, Cin, Cout] and bias [Cout]; each input pixel expands
    into an s-by-s output block, so output extents are exactly (s*H, s*W).
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise ShapeError(f"conv_transpose2d expects rank-3 input and rank-4 kernel")
    s = w.shape[0]
    h, wdt, cin = x.shape
    if w.shape[1] != s or w.shape[2] != cin:
        raise ShapeError(f"conv_transpose2d kernel {w.shape} is not [s, s, Cin={cin}, Cout]")
    cout = w.shape[3]
    bias = as_tensor(b)
    if bias.shape != (cout,):
        raise ShapeError(f"conv_transpose2d bias shape {bias.shape} != ({cout},)")

    # one GEMM each way: pixel (h, w) times [Cin, (i, j, Cout)] gives its s-by-s block
    wm = w.data.transpose(2, 0, 1, 3).reshape(cin, s * s * cout)
    out = np.matmul(x.data, wm).reshape(h, wdt, s, s, cout).transpose(0, 2, 1, 3, 4)
    out = out.reshape(h * s, wdt * s, cout)
    out += bias.data

    def bwd(g):
        gm = g.reshape(h, s, wdt, s, cout).transpose(0, 2, 1, 3, 4).reshape(h * wdt, s * s * cout)
        dx = (gm @ wm.T).reshape(h, wdt, cin)
        dw = (x.data.reshape(h * wdt, cin).T @ gm).reshape(cin, s, s, cout).transpose(1, 2, 0, 3)
        return dx, dw, g.sum(axis=(0, 1))

    return make_op("conv_transpose2d", out, (x, w, bias), bwd)


# ---------------------------------------------------------------------------
# graph + backward
# ---------------------------------------------------------------------------

class Graph:
    """Reverse topological view over a recorded computation.

    Holds the output node plus every tracked ancestor in an order where
    parents precede children; leaves are the reachable parameters.
    """

    def __init__(self, output: Tensor, order: list, leaves: list):
        self.output = output
        self.order = order
        self.leaves = leaves

    @classmethod
    def from_output(cls, output: Tensor) -> "Graph":
        if output._bwd is None and not output.requires_grad:
            raise GraphStateError("tensor is not attached to a recorded graph (detached or constant)")
        order = []
        seen = set()
        stack = [(output, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._tracked() and id(p) not in seen:
                    stack.append((p, False))
        leaves = [n for n in order if n.requires_grad and n._bwd is None]
        return cls(output, order, leaves)


def backward(graph, seed=None, params=None) -> dict:
    """Accumulate gradients of the graph output into its leaf parameters.

    `seed` is the upstream gradient; it defaults to ones and must match the
    output shape.  Returns {leaf Tensor: ndarray}.  When `params` (a
    ParamStore) is given, parameters that do not appear in the graph get
    explicit zero gradients.
    """
    if isinstance(graph, Tensor):
        graph = Graph.from_output(graph)
    out = graph.output
    if seed is None:
        seed_arr = np.ones_like(out.data)
    else:
        seed_arr = seed.data if isinstance(seed, Tensor) else np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != out.data.shape:
            raise ShapeError(f"backward seed shape {seed_arr.shape} != output {out.data.shape}")
    grads: dict = {out: seed_arr.astype(np.float64, copy=True)}
    result: dict = {}
    for node in reversed(graph.order):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._bwd is None:
            if node.requires_grad:
                result[node] = g
            continue
        parent_grads = node._bwd(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent._tracked():
                continue
            _check_finite(np.asarray(pg), f"backward:{node._op}")
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = np.asarray(pg, dtype=np.float64)
    if params is not None:
        for name in params.names():
            t = params[name]
            if t not in result:
                result[t] = np.zeros_like(t.data)
    return result


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckRow:
    name: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    rows: list
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _eval_scalar(f, params) -> float:
    out = f(params)
    if isinstance(out, Tensor):
        if out.data.size != 1:
            raise ShapeError(f"gradcheck function must return a scalar, got {out.shape}")
        return float(out.data.reshape(()))
    return float(out)


def seeded_rng(seed: int) -> np.random.Generator:
    """The PCG64 stream for `seed`; every seeded draw in the toolkit starts here."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def fd_gradcheck(f, params, h: float = 1e-5, tol: float = 1e-3,
                 n_samples: int = 50, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of scalar f(params) to central differences.

    Samples up to `n_samples` coordinates across all parameters (PCG64
    stream from `seed`), perturbs each by +/-h in place (restoring after),
    and reports relative error |a - n| / max(|a|, |n|, 1e-6).
    """
    if h <= 0:
        raise ParameterError(f"fd step must be > 0, got {h}")
    out = f(params)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("gradcheck function must return a scalar Tensor")
    grads = backward(out, params=params)
    by_tensor = {params[name]: name for name in params.names()}

    coords = []
    for name in params.names():
        t = params[name]
        for flat in range(t.data.size):
            coords.append((name, t, flat))
    rng = seeded_rng(seed)
    if len(coords) > n_samples:
        picks = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[int(i)] for i in picks]

    rows = []
    for name, t, flat in coords:
        idx = np.unravel_index(flat, t.data.shape)
        orig = t.data[idx]
        t.data[idx] = orig + h
        f_plus = _eval_scalar(f, params)
        t.data[idx] = orig - h
        f_minus = _eval_scalar(f, params)
        t.data[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(grads[t][idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        rows.append(GradCheckRow(name, tuple(int(i) for i in idx), analytic, numeric, rel, rel <= tol))
    max_err = max((r.rel_err for r in rows), default=0.0)
    return GradCheckReport(rows=rows, max_rel_err=max_err, tol=tol)
