"""Binary containers for cubes and parameter checkpoints.

Cube container ("HSIC"):
    magic   4 bytes  b"HSIC"
    version u32 LE   currently 1
    H, W, C u32 LE   extents, each >= 1
    payload H*W*C float32 LE, band-major planes, each plane row-major
            (i.e. the cube transposed to [C, H, W] and flattened)

Parameter checkpoint ("DPRM"):
    magic   4 bytes  b"DPRM"
    version u32 LE   currently 1
    count   u32 LE   number of entries
    entry   name_len u32 LE, name bytes (UTF-8), rank u32 LE,
            rank extents u32 LE, payload float64 LE row-major

Entries serialize in store order, so save/load preserves registration
order.  Cube payloads are float32 (images are stored at sensor precision),
and `read_cube` returns them as float32, read straight into the array it
returns: the values are exact, and code that computes in float64 widens
only what it uses.  `write_cube` writes a band-major little-endian float32
cube (what `read_cube` and `priors.tv_denoise` return) as it is, with no
copy; any other cube it casts into a band-major float32 payload a strip of
about 256 KB of input rows at a time (`priors.copy_rows`), checking each
strip, while it is in cache, for values not finite as float32.  No writer
joins its chunks into one copy of the file.
Checkpoint payloads are float64, but `read_params` loads them as float32,
the learned route's precision: widening float32 to float64 is exact, so a
float32 store round-trips byte for byte, while a checkpoint written from
float64 weights is rounded to the nearest float32 on load (an entry with a
value beyond the float32 range is refused).  All writers are atomic: write
to a temp file in the destination directory, then rename over the target.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError, NumericalError, ShapeError
from .params import ParamStore
from .priors import copy_rows

HSIC_MAGIC = b"HSIC"
DPRM_MAGIC = b"DPRM"
HSIC_VERSION = 1
DPRM_VERSION = 1


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of chunks (bytes or contiguous arrays), in order, as
    one file; each chunk is made only when the previous one is written."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"cannot write {path}: {exc}") from exc
        raise


def _read_blob(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _cube_parts(arr: np.ndarray) -> tuple:
    """The container's header bytes and its float32 payload array, [C, H, W].

    A band-major little-endian float32 cube is its own payload; any other is
    cast into a new one a strip of rows at a time.  Each strip (or plane of
    a payload written as it is) is checked for values not finite as float32."""
    arr = np.asarray(arr)
    if arr.dtype != np.float32:  # float32 is the payload's type: no wider copy
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ShapeError(f"cube container expects rank 2 or 3, got rank {arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"cube container expects extents >= 1, got {arr.shape}")
    h, w, c = arr.shape
    header = HSIC_MAGIC + struct.pack("<IIII", HSIC_VERSION, h, w, c)
    payload = arr.transpose(2, 0, 1)
    if payload.dtype == "<f4" and payload.flags.c_contiguous:
        for plane in payload:
            _check_finite32(plane)
    else:
        payload = np.empty((c, h, w), dtype="<f4")
        # a value beyond the float32 range casts to inf, which the strip check finds
        with np.errstate(over="ignore"):
            copy_rows(payload.transpose(1, 2, 0), arr, each=_check_finite32)
    return header, payload


def _check_finite32(strip: np.ndarray) -> None:
    if not np.isfinite(strip).all():
        raise NumericalError("cube holds a value that is not finite as float32 "
                             f"(|x| > {np.finfo(np.float32).max:.8g} or NaN/Inf)")


def write_cube(path: str, arr: np.ndarray) -> None:
    """Write a cube (or a single plane) to an HSIC container atomically.

    Raises ShapeError for an empty cube and NumericalError for a value that
    is not finite as float32, and writes nothing: `read_cube` would reject
    the file.  The payload is written from its array, with no joined copy
    of it."""
    try:
        header, payload = _cube_parts(arr)
    except NumericalError as exc:
        raise NumericalError(f"cannot write {path}: {exc}") from exc
    _atomic_write(path, (header, payload))


def read_cube(path: str) -> np.ndarray:
    """Read an HSIC container; returns float32 [H, W, C], the payload's values.

    The payload is read straight into the array's buffer, which holds it
    band-major: the result is a transposed view of that buffer."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(20)
            if len(head) < 20:
                raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
            if head[:4] != HSIC_MAGIC:
                raise FormatError(f"{path}: bad magic {head[:4]!r}")
            version, h, w, c = struct.unpack("<IIII", head[4:20])
            if version != HSIC_VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            if h < 1 or w < 1 or c < 1:
                raise FormatError(f"{path}: invalid extents {(h, w, c)}")
            expected = 20 + 4 * h * w * c
            if size != expected:
                raise FormatError(f"{path}: payload is {size - 20} bytes, expected {expected - 20}")
            flat = np.empty(h * w * c, dtype="<f4")
            got = fh.readinto(flat)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if got != flat.nbytes:
        raise FormatError(f"{path}: payload is {got} bytes, expected {flat.nbytes}")
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: payload contains non-finite values")
    return flat.reshape(c, h, w).transpose(1, 2, 0)


def read_plane(path: str) -> np.ndarray:
    """Read a single-plane container as a 2D float32 array."""
    cube = read_cube(path)
    if cube.shape[2] != 1:
        raise FormatError(f"{path}: expected one plane, found {cube.shape[2]}")
    return cube[:, :, 0]


def _params_chunks(store: ParamStore):
    yield DPRM_MAGIC + struct.pack("<II", DPRM_VERSION, len(store))
    for name, tensor in store.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        yield struct.pack("<I", len(encoded)) + encoded + struct.pack(
            f"<I{arr.ndim}I", arr.ndim, *arr.shape)
        yield arr


def write_params(path: str, store: ParamStore) -> None:
    """Write a parameter checkpoint atomically, an entry at a time, with no
    joined copy of the entries."""
    _atomic_write(path, _params_chunks(store))


def read_params(path: str) -> ParamStore:
    """Read a checkpoint back into a fresh float32 store (registration order
    kept); a float64 value rounds to the nearest float32."""
    blob = _read_blob(path)
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != DPRM_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack("<II", blob[4:12])
    if version != DPRM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = 12
    arrays: dict = {}

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"{path}: truncated entry at offset {offset}")
        piece = blob[offset:offset + n]
        offset += n
        return piece

    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: undecodable entry name") from exc
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n_values = math.prod(shape)  # a Python int: extents up to 2**32 - 1 cannot wrap
        if 8 * n_values > len(blob) - offset:
            raise FormatError(f"{path}: entry {name!r} of shape {shape} overruns the file")
        arr = np.frombuffer(take(8 * n_values), dtype="<f8").reshape(shape)
        if name in arrays:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        if n_values == 0:
            raise FormatError(f"{path}: entry {name!r} is empty, shape {shape}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: entry {name!r} contains non-finite values")
        with np.errstate(over="ignore"):  # beyond the float32 range casts to inf, tested next
            arr = arr.astype(np.float32)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: entry {name!r} holds a value that is not finite as "
                              f"float32 (|x| > {np.finfo(np.float32).max:.8g})")
        arrays[name] = arr
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    return ParamStore.from_arrays(arrays)
