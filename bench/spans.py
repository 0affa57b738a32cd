"""In-process spans around the public functions of cassikit's modules.

`Tracer.install()` wraps each function named in `TARGETS` and rebinds every
module attribute that refers to it.  Most modules import their callees by
name (`from .tensor import conv2d`), so wrapping only the defining module
would miss those calls; the rebinding covers every `cassikit.*` module
that holds the function.  `Tracer.uninstall()` puts the originals back.

Per span name the tracer keeps the call count, inclusive seconds (outermost
call only, so recursion is not double counted), self seconds (inclusive
minus the time covered by child spans) and, where a size function is given,
the bytes the call produced.  It also records the largest autodiff graph
reachable from a returned reconstruction or training loss.

Run as a script, it is the traced worker of `run.py --trace 1`:

    python3 bench/spans.py SPANS.json <cassikit arguments...>

runs `cassikit.cli.main(arguments)` under spans in this process, writes the
span table to SPANS.json and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _nbytes(out, *_):
    return out.nbytes


def _tensor_bytes(out, *_):
    return out.data.nbytes


def _store_bytes(out, *_):
    return sum(t.data.nbytes for _, t in out.items())


def _file_bytes(_out, args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _conv2d_kind(args, kwargs):
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    return "tensor.conv2d.dense" if groups == 1 else "tensor.conv2d.depthwise"


# (module, function, size of the output in bytes or None)
TARGETS = [
    ("cli", "init_pipeline_params", None),
    ("phantom", "generate_phantom", None),
    ("fileio", "read_cube", _nbytes),
    ("fileio", "write_cube", _file_bytes),
    ("fileio", "read_params", _store_bytes),
    ("fileio", "write_params", _file_bytes),
    ("cassi", "forward_measure", None),
    ("cassi", "apply_shot_noise", None),
    ("cassi", "adjoint_apply", None),
    ("hqs", "run_hqs", None),
    ("hqs", "data_step", None),
    ("hqs", "init_estimate", None),
    ("priors", "tv_denoise", None),
    ("metrics", "ssim", None),
    ("metrics", "psnr", None),
    ("metrics", "sam", None),
    ("degradation", "den_forward", None),
    ("transformer", "lnlt_denoise", None),
    ("transformer", "local_msa", None),
    ("transformer", "nonlocal_msa", None),
    ("transformer", "gdfn", None),
    ("transformer", "qkv_project", None),
    ("tensor", "conv2d", _tensor_bytes),
    ("tensor", "conv_transpose2d", _tensor_bytes),
    ("tensor", "matmul", _tensor_bytes),
    ("tensor", "softmax_lastdim", None),
    ("tensor", "layer_norm", None),
    ("tensor", "backward", None),
    ("train", "adam_step", None),
    ("train", "clip_global_norm", None),
    ("train", "charbonnier_loss", None),
]

# spans whose result roots an autodiff graph worth measuring
_GRAPH_ROOTS = {
    "hqs.run_hqs": lambda out: out.z.data,
    "train.charbonnier_loss": lambda out: out,
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "bytes")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.bytes = 0


class Tracer:
    """Span aggregation plus the monkey-patching that feeds it."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.graph_nodes = 0
        self.graph_bytes = 0
        self._stack: list = []          # [name, start, child_seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list = []        # (module, attribute, original)

    # -- span bookkeeping -------------------------------------------------
    def enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        now = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = now - start
        st = self.stats[name]
        st.calls += 1
        st.self_s += dur - child
        self._active[name] -= 1
        if self._active[name] == 0:
            st.s += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _hide(self, since: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - since

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def _record_graph(self, root) -> None:
        from cassikit.errors import GraphStateError
        from cassikit.tensor import Graph
        try:
            order = Graph.from_output(root).order
        except GraphStateError:
            return
        if len(order) > self.graph_nodes:
            self.graph_nodes = len(order)
            self.graph_bytes = sum(n.data.nbytes for n in order)

    def _wrap(self, name: str, fn, size):
        kind = _conv2d_kind if name == "tensor.conv2d" else None
        graph_root = _GRAPH_ROOTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = kind(args, kwargs) if kind else name
            tracer.enter(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if size is not None or graph_root is not None:
                t0 = time.perf_counter()
                if size is not None:
                    tracer.stats[key].bytes += size(out, args, kwargs)
                if graph_root is not None:
                    tracer._record_graph(graph_root(out))
                tracer._hide(t0)
            return out

        return wrapper

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        # Import every target module first, so no module imported later
        # binds an original function behind the tracer's back.
        owners = {name: importlib.import_module(f"cassikit.{name}") for name, _, _ in TARGETS}
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "cassikit" or n.startswith("cassikit."))]
        for mod_name, fn_name, size in TARGETS:
            orig = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, size)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- reporting --------------------------------------------------------------
    def value(self, metric: str) -> float:
        """Look up `<span>.<field>` with field one of s, self_s, calls, mb."""
        if metric == "tensor.graph_nodes":
            return self.graph_nodes
        if metric == "tensor.graph_mb":
            return self.graph_bytes / MB
        span, field = metric.rsplit(".", 1)
        st = self.stats.get(span, Stat())
        if field == "mb":
            return st.bytes / MB
        return getattr(st, field)

    def dump(self) -> dict:
        return {"stats": {k: [st.calls, st.s, st.self_s, st.bytes] for k, st in self.stats.items()},
                "graph": [self.graph_nodes, self.graph_bytes]}

    def absorb(self, dumped: dict) -> None:
        """Add another process's `dump()`; the graph figures keep the larger one."""
        for name, (calls, s, self_s, nbytes) in dumped["stats"].items():
            st = self.stats[name]
            st.calls += calls
            st.s += s
            st.self_s += self_s
            st.bytes += nbytes
        nodes, nbytes = dumped["graph"]
        if nodes > self.graph_nodes:
            self.graph_nodes, self.graph_bytes = nodes, nbytes

    def counts(self) -> dict:
        """Every exact quantity, for the repeat-equality self-check."""
        out = {"tensor.graph_nodes": self.graph_nodes, "tensor.graph_bytes": self.graph_bytes}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.bytes"] = st.bytes
        return out


def main(argv: list) -> int:
    from cassikit import cli
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, cli_argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
