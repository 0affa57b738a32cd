"""Named parameter store shared by the learned pipeline stages.

All weights live in one flat, insertion-ordered namespace.  Every stage of
the unfolded reconstruction references the same store (recurrent weight
sharing), so an in-place update through one stage's view is observable in
all of them.

Initialization convention: a single PCG64 stream seeded with the store seed;
parameters draw from it strictly in registration order.  Conv and linear
weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in the
number of input values feeding one output (kh*kw*Cin/groups for convs, the
input width for linear maps).  Biases, position embeddings and layer-norm
shifts start at zero; layer-norm scales start at one.  A store keeps the
dtype of the arrays it is given (anything but float32 becomes float64), so
`Initializer` draws make a float64 store, the precision the selftest and
gradient checks run in; the learned route's entry points hand it float32
arrays (`cli.init_pipeline_params`, `fileio.read_params`).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import Tensor, seeded_rng


class ParamStore:
    """Insertion-ordered mapping of unique names to trainable tensors."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ParameterError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._entries[name]
        except KeyError:
            raise ParameterError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def scope(self, prefix: str) -> "ParamScope":
        """View of the names under `prefix`: scope(p)[n] is self[p + "." + n]."""
        return ParamScope(self, prefix)

    def items(self):
        return self._entries.items()

    @property
    def dtype(self) -> np.dtype:
        """The weights' common dtype, which sets the learned route's precision."""
        return np.result_type(np.float32, *{t.data.dtype for t in self._entries.values()})

    @property
    def n_values(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def flatten(self) -> np.ndarray:
        """Move every value into one contiguous buffer of the store's dtype, in
        store order, and make each tensor's data a view of it.  Returns the
        buffer: an in-place update of it updates every weight at once."""
        flat = np.empty(self.n_values, self.dtype)
        offset = 0
        for t in self._entries.values():
            view = flat[offset:offset + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            offset += view.size
        return flat

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of all values, for serialization."""
        return {name: t.copy_array() for name, t in self._entries.items()}

    @classmethod
    def from_arrays(cls, arrays: dict) -> "ParamStore":
        store = cls()
        for name, arr in arrays.items():
            store.add(name, arr)
        return store


class ParamScope:
    """Prefix-scoped lookup into a store; scopes nest with `scope`."""

    __slots__ = ("_store", "prefix")

    def __init__(self, store: ParamStore, prefix: str):
        self._store = store
        self.prefix = prefix

    def __getitem__(self, name: str) -> Tensor:
        return self._store[f"{self.prefix}.{name}"]

    def __contains__(self, name: str) -> bool:
        return f"{self.prefix}.{name}" in self._store

    def ranked(self, name: str, rank: int) -> Tensor:
        """self[name], raising ShapeError naming the full key unless it has `rank` axes."""
        t = self[name]
        if t.data.ndim != rank:
            raise ShapeError(f"{self.prefix}.{name} has shape {t.shape}, not rank {rank}")
        return t

    def scope(self, prefix: str) -> "ParamScope":
        return ParamScope(self._store, f"{self.prefix}.{prefix}")


class Initializer:
    """Draws parameters from one seeded PCG64 stream in registration order."""

    def __init__(self, store: ParamStore, seed: int):
        self.store = store
        self.rng = seeded_rng(seed)

    def _kernel(self, kh: int, kw: int, cin_per_group: int, cout: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(kh * kw * cin_per_group)
        return self.rng.uniform(-bound, bound, size=(kh, kw, cin_per_group, cout))

    def conv(self, name: str, kh: int, kw: int, cin_per_group: int, cout: int) -> None:
        self.store.add(name + ".w", self._kernel(kh, kw, cin_per_group, cout))
        self.store.add(name + ".b", np.zeros(cout))

    def stacked_convs(self, parts: int, *convs: tuple) -> None:
        """Register each conv of `convs`, (name, kh, kw, cin_per_group, cout),
        `parts` times wider: output channels [p*cout, (p+1)*cout) are part p.

        The kernels draw the values and the order that `parts` chains of the
        convs registered one after the other with `conv` would draw, so part p
        of every conv holds what chain p's conv would hold."""
        chains = [[self._kernel(*conv[1:]) for conv in convs] for _ in range(parts)]
        for i, (name, *_, cout) in enumerate(convs):
            self.store.add(name + ".w", np.concatenate([chain[i] for chain in chains], axis=3))
            self.store.add(name + ".b", np.zeros(parts * cout))

    def conv_transpose(self, name: str, stride: int, cin: int, cout: int) -> None:
        fan_in = cin  # each output value sees one input pixel across Cin channels
        bound = 1.0 / np.sqrt(fan_in)
        self.store.add(name + ".w", self.rng.uniform(-bound, bound, size=(stride, stride, cin, cout)))
        self.store.add(name + ".b", np.zeros(cout))

    def linear(self, name: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        self.store.add(name + ".w", self.rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        self.store.add(name + ".b", np.zeros(fan_out))

    def layer_norm(self, name: str, channels: int) -> None:
        self.store.add(name + ".gamma", np.ones(channels))
        self.store.add(name + ".beta", np.zeros(channels))

    def zeros(self, name: str, shape: tuple) -> None:
        self.store.add(name, np.zeros(shape))
