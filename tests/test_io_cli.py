"""Container formats and the command-line interface.

The cube and checkpoint containers are checked byte-for-byte against their
documented layouts, then round-tripped.  CLI coverage runs the installed
package in subprocesses so argument parsing, exit codes and file handling
are exercised exactly as a user would hit them.
"""

import contextlib
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cassikit import cli, errors, fileio, metrics
from cassikit.cassi import (HsiCube, Measurement, SensingOperator, forward_measure,
                            random_binary_mask)
from cassikit.errors import CassikitError, FormatError, ShapeError
from cassikit.hqs import ReconConfig, run_hqs, trace_csv
from cassikit.params import ParamStore
from cassikit.phantom import generate_phantom
from cassikit.tensor import Tensor
from cassikit.transformer import LnltConfig

from conftest import make_rng


# ---------------------------------------------------------------------------
# cube container
# ---------------------------------------------------------------------------

def cube_file_bytes(arr) -> bytes:
    """The bytes `write_cube` writes for `arr`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.hsic")
        fileio.write_cube(path, arr)
        with open(path, "rb") as fh:
            return fh.read()


def test_cube_header_layout():
    cube = np.arange(6.0).reshape(2, 3, 1)
    blob = cube_file_bytes(cube)
    assert blob[:4] == b"HSIC"
    assert struct.unpack("<IIII", blob[4:20]) == (1, 2, 3, 1)
    assert len(blob) == 20 + 4 * 6


def test_cube_payload_is_band_major_float32():
    cube = np.array([[[1.0, 5.0], [2.0, 6.0]],
                     [[3.0, 7.0], [4.0, 8.0]]])
    blob = cube_file_bytes(cube)
    payload = np.frombuffer(blob, dtype="<f4", offset=20)
    # plane 0 row-major, then plane 1
    np.testing.assert_array_equal(payload, [1, 2, 3, 4, 5, 6, 7, 8])


def test_cube_roundtrip_is_exact_for_float32_values(tmp_path):
    values = make_rng(5).normal(size=(7, 9, 3)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "cube.hsic")
    fileio.write_cube(path, values)
    back = fileio.read_cube(path)
    assert back.dtype == np.float32  # the payload's precision: no widened copy
    np.testing.assert_array_equal(back, values)


def test_single_plane_roundtrip(tmp_path):
    plane = make_rng(6).random((4, 5)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "plane.hsic")
    fileio.write_cube(path, plane)
    assert fileio.read_cube(path).shape == (4, 5, 1)
    np.testing.assert_array_equal(fileio.read_plane(path), plane)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8, ">f4"])
def test_cube_bytes_are_the_same_for_equal_values_of_any_dtype(dtype):
    values = make_rng(8).integers(0, 200, size=(5, 6, 3)) / 8.0  # exact in every float type
    if np.dtype(dtype).kind in "iu":
        values = np.floor(values)
    assert cube_file_bytes(values.astype(dtype)) == cube_file_bytes(values)


def test_cube_bytes_rejects_bad_rank():
    with pytest.raises(ShapeError):
        cube_file_bytes(np.zeros(4))
    with pytest.raises(ShapeError):
        cube_file_bytes(np.zeros((2, 2, 2, 2)))


def test_write_cube_refuses_values_beyond_float32_and_writes_nothing(tmp_path):
    out = tmp_path / "big.hsic"
    with pytest.raises(errors.NumericalError, match="^" + re.escape(f"cannot write {out}: ")):
        fileio.write_cube(str(out), np.full((2, 2, 1), 3.5e38))
    assert list(tmp_path.iterdir()) == []
    fileio.write_cube(str(out), np.full((2, 2, 1), 3.4e38))  # the largest float32 is 3.4028e38
    assert np.isfinite(fileio.read_cube(str(out))).all()


def test_read_plane_rejects_multiband(tmp_path):
    path = str(tmp_path / "three.hsic")
    fileio.write_cube(path, np.zeros((2, 2, 3)))
    with pytest.raises(FormatError, match="one plane"):
        fileio.read_plane(path)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_cube_returns_the_payload_as_float32_in_one_buffer(tmp_path):
    """No widened copy and no copy of the file's bytes: the payload is read
    into the float32 array it returns (plus a finiteness mask, 1 byte a value)."""
    cube = make_rng(9).random((32, 40, 28)).astype(np.float32)
    path = str(tmp_path / "cube.hsic")
    fileio.write_cube(path, cube)
    back, peak = _traced_peak(fileio.read_cube, path)
    assert back.dtype == np.float32 and back.flags.writeable
    np.testing.assert_array_equal(back, cube)
    assert peak < 1.5 * cube.nbytes
    fileio.write_cube(path, cube[:, :, 0])
    assert fileio.read_plane(path).dtype == np.float32


def test_write_cube_writes_the_payload_without_a_joined_copy(tmp_path):
    cube = make_rng(10).random((64, 118, 28)).astype(np.float32)
    path = tmp_path / "cube.hsic"
    _, peak = _traced_peak(fileio.write_cube, str(path), cube)
    header = b"HSIC" + struct.pack("<IIII", 1, 64, 118, 28)
    assert path.read_bytes() == header + cube.transpose(2, 0, 1).astype("<f4").tobytes()
    # the band-major payload and its finiteness mask; joining the header and
    # the payload into one bytes object would add another payload
    assert peak < 1.5 * cube.nbytes


def _valid_cube_blob() -> bytes:
    return cube_file_bytes(np.arange(4.0).reshape(2, 2, 1))


def _with_header_field(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4:]


CUBE_CORRUPTIONS = {
    "bad-magic": lambda b: b"XSIC" + b[4:],
    "bad-version": lambda b: _with_header_field(b, 4, 2),
    "zero-extent": lambda b: _with_header_field(b, 12, 0),
    "truncated-payload": lambda b: b[:-4],
    "trailing-bytes": lambda b: b + b"\x00",
    "short-header": lambda b: b[:10],
    "non-finite-payload": lambda b: b[:20] + np.array(
        [1.0, np.inf, 0.0, 2.0], dtype="<f4").tobytes(),
}


@pytest.mark.parametrize("kind", sorted(CUBE_CORRUPTIONS))
def test_corrupt_cube_raises_format_error(tmp_path, kind):
    path = str(tmp_path / f"{kind}.hsic")
    with open(path, "wb") as fh:
        fh.write(CUBE_CORRUPTIONS[kind](_valid_cube_blob()))
    with pytest.raises(FormatError):
        fileio.read_cube(path)


def test_read_cube_missing_file_raises_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        fileio.read_cube(str(tmp_path / "absent.hsic"))


def test_atomic_write_leaves_only_the_target(tmp_path):
    path = tmp_path / "out.hsic"
    fileio.write_cube(str(path), np.ones((2, 2, 1)))
    fileio.write_cube(str(path), np.full((2, 2, 1), 3.0))
    assert os.listdir(tmp_path) == ["out.hsic"]
    np.testing.assert_array_equal(fileio.read_cube(str(path)), np.full((2, 2, 1), 3.0))


def test_atomic_write_unwritable_directory(tmp_path):
    with pytest.raises(FormatError, match="cannot write"):
        fileio.write_cube(str(tmp_path / "missing" / "out.hsic"), np.ones((2, 2, 1)))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def _demo_store() -> ParamStore:
    rng = make_rng(17)
    store = ParamStore()
    store.add("head.w", rng.normal(size=(3, 4)))
    store.add("head.b", np.zeros(4))
    store.add("conv.w", rng.normal(size=(3, 3, 2, 2)))
    return store


def test_params_header_layout():
    blob = fileio.params_bytes(_demo_store())
    assert blob[:4] == b"DPRM"
    assert struct.unpack("<II", blob[4:12]) == (1, 3)


def test_params_roundtrip_keeps_order_values_and_bytes(tmp_path):
    """A float32 store (the learned route's) loads as float32 with the same
    values, and rewrites to the same bytes: widening to float64 is exact."""
    store = ParamStore.from_arrays({name: a.astype(np.float32)
                                    for name, a in _demo_store().arrays().items()})
    path = str(tmp_path / "weights.dprm")
    fileio.write_params(path, store)
    back = fileio.read_params(path)
    assert back.names() == store.names()
    for name in store.names():
        assert back[name].data.dtype == np.float32
        np.testing.assert_array_equal(back[name].data, store[name].data)
    assert fileio.params_bytes(back) == fileio.params_bytes(store)


def test_float64_checkpoint_loads_rounded_to_float32(tmp_path):
    store = _demo_store()
    path = str(tmp_path / "weights.dprm")
    fileio.write_params(path, store)
    back = fileio.read_params(path)
    for name in store.names():
        assert back[name].data.dtype == np.float32
        np.testing.assert_array_equal(back[name].data, store[name].data.astype(np.float32))


@pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300])
def test_checkpoint_value_beyond_float32_raises_format_error_naming_the_entry(tmp_path, value):
    path = str(tmp_path / "big.dprm")
    with open(path, "wb") as fh:
        fh.write(_params_blob(2, _entry(b"ok", np.ones(2)) + _entry(b"big.w", np.array([1.0, value]))))
    with pytest.raises(FormatError, match=r"entry 'big\.w' holds a value that is not finite as float32"):
        fileio.read_params(path)


def test_empty_store_roundtrip(tmp_path):
    path = str(tmp_path / "empty.dprm")
    fileio.write_params(path, ParamStore())
    assert fileio.read_params(path).names() == []


def _entry(name: bytes, arr: np.ndarray) -> bytes:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return (struct.pack("<I", len(name)) + name + struct.pack("<I", a.ndim)
            + struct.pack(f"<{a.ndim}I", *a.shape) + a.tobytes())


def _params_blob(count: int, body: bytes) -> bytes:
    return b"DPRM" + struct.pack("<II", 1, count) + body


PARAM_CORRUPTIONS = {
    "bad-magic": lambda: b"XPRM" + fileio.params_bytes(_demo_store())[4:],
    "bad-version": lambda: b"DPRM" + struct.pack("<II", 9, 0),
    "short-header": lambda: b"DPRM" + b"\x01",
    "truncated-entry": lambda: fileio.params_bytes(_demo_store())[:-8],
    "trailing-bytes": lambda: fileio.params_bytes(_demo_store()) + b"\x00",
    "duplicate-name": lambda: _params_blob(
        2, _entry(b"w", np.ones(2)) + _entry(b"w", np.ones(2))),
    "undecodable-name": lambda: _params_blob(1, _entry(b"\xff\xfe", np.ones(1))),
    "non-finite-value": lambda: _params_blob(1, _entry(b"w", np.array([1.0, np.nan]))),
    "empty-entry": lambda: _params_blob(1, _entry(b"w", np.zeros(0))),
    # 2**93 values: an int64 product of the extents wraps to 0
    "overflowing-extents": lambda: _params_blob(
        1, struct.pack("<I", 1) + b"w" + struct.pack("<4I", 3, 2**31, 2**31, 2**31)),
}


@pytest.mark.parametrize("kind", sorted(PARAM_CORRUPTIONS))
def test_corrupt_checkpoint_raises_format_error(tmp_path, kind):
    path = str(tmp_path / f"{kind}.dprm")
    with open(path, "wb") as fh:
        fh.write(PARAM_CORRUPTIONS[kind]())
    with pytest.raises(FormatError):
        fileio.read_params(path)


# Inputs that must raise FormatError, not a bare UnicodeDecodeError or a
# ValueError from reshape: a config that is not UTF-8, and a checkpoint
# whose extents wrap to 0 in int64.
NON_UTF8_CONFIG = b"stages = 4\n\xff\xfe = 1\n"
DPRM_HEADER = b"DPRM" + struct.pack("<I", 1)


def _parses_or_format_error(read, tmp_dir, blob: bytes) -> None:
    path = tmp_dir / "fuzz.bin"
    path.write_bytes(blob)
    try:
        read(str(path))
    except FormatError:
        pass


@settings(max_examples=150)
@given(st.binary(max_size=64) | st.text(max_size=48).map(str.encode))
@example(NON_UTF8_CONFIG)
@example(b"stages = 2\nstages = 3\n")
def test_any_bytes_parse_as_config_or_raise_format_error(tmp_path_factory, blob):
    _parses_or_format_error(cli.parse_config_file, tmp_path_factory.getbasetemp(), blob)


@settings(max_examples=150)
@given(st.binary(max_size=96) | st.binary(max_size=96).map(DPRM_HEADER.__add__))
@example(PARAM_CORRUPTIONS["overflowing-extents"]())
@example(fileio.params_bytes(ParamStore()))
def test_any_bytes_read_as_checkpoint_or_raise_format_error(tmp_path_factory, blob):
    _parses_or_format_error(fileio.read_params, tmp_path_factory.getbasetemp(), blob)


HSIC_HEADER = b"HSIC" + struct.pack("<I", 1)


@settings(max_examples=150)
@given(st.binary(max_size=96) | st.binary(max_size=96).map(HSIC_HEADER.__add__))
@example(CUBE_CORRUPTIONS["truncated-payload"](_valid_cube_blob()))
@example(HSIC_HEADER + struct.pack("<3I", 2**15, 2**15, 1))        # 4*H*W*C wraps to 0 in int32
@example(HSIC_HEADER + struct.pack("<3I", 2**31, 2**31, 2**31))    # ... and in int64
@example(_valid_cube_blob()[:20] + np.full(4, np.nan, dtype="<f4").tobytes())
def test_any_bytes_read_as_cube_or_raise_format_error(tmp_path_factory, blob):
    _parses_or_format_error(fileio.read_cube, tmp_path_factory.getbasetemp(), blob)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "cassikit", *map(str, argv)],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    """Phantom truth plus a noiseless measurement, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    truth = root / "truth.hsic"
    meas = root / "meas.hsic"
    proc = run_cli("phantom", "--height", 16, "--width", 16, "--bands", 4,
                   "--seed", 1, "--out", truth)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("simulate", "--truth", truth, "--mask-seed", 2, "--step", 2,
                   "--out", meas)
    assert proc.returncode == 0, proc.stderr
    return {"root": root, "truth": truth, "meas": meas,
            "mask": root / "meas.mask.hsic"}


def test_simulate_writes_measurement_and_default_mask(workbench):
    meas = fileio.read_cube(str(workbench["meas"]))
    mask = fileio.read_cube(str(workbench["mask"]))
    assert meas.shape == (16, 22, 1)
    assert mask.shape == (16, 22, 4)
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_reconstruct_pipeline_outputs(workbench):
    out = workbench["root"] / "recon.hsic"
    trace = workbench["root"] / "trace.csv"
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--stages", 3,
                   "--denoiser", "tv", "--truth", workbench["truth"],
                   "--out", out, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert "reconstruction 16x16x4" in proc.stdout
    assert "psnr" in proc.stdout and "ssim" in proc.stdout
    assert fileio.read_cube(str(out)).shape == (16, 16, 4)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "stage,mu,eta,residual_norm,psnr_vs_truth"
    assert len(lines) == 1 + 1 + 3  # header, init row, one row per stage
    assert lines[1].startswith("0,,")


def test_repeat_runs_are_byte_identical(workbench):
    root = workbench["root"]
    pairs = []
    for tag in ("a", "b"):
        meas = root / f"re-{tag}.hsic"
        proc = run_cli("simulate", "--truth", workbench["truth"], "--mask-seed", 2,
                       "--step", 2, "--out", meas, "--mask-out", root / f"re-{tag}.mask.hsic")
        assert proc.returncode == 0, proc.stderr
        recon = root / f"re-{tag}.recon.hsic"
        proc = run_cli("reconstruct", "--measurement", meas,
                       "--mask", root / f"re-{tag}.mask.hsic",
                       "--stages", 2, "--denoiser", "tv", "--out", recon)
        assert proc.returncode == 0, proc.stderr
        pairs.append((meas.read_bytes(), recon.read_bytes()))
    assert pairs[0] == pairs[1]


def test_shot_noise_is_seeded_and_changes_the_measurement(workbench):
    root = workbench["root"]
    outs = []
    for tag in ("n1", "n2"):
        out = root / f"{tag}.hsic"
        proc = run_cli("simulate", "--truth", workbench["truth"], "--mask-seed", 2,
                       "--step", 2, "--noise", "shot", "--bits", 8, "--seed", 3,
                       "--out", out, "--mask-out", root / f"{tag}.mask.hsic")
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != workbench["meas"].read_bytes()


def test_config_file_supplies_defaults_and_cli_wins(workbench, tmp_path):
    cfg = tmp_path / "recon.cfg"
    cfg.write_text("# reconstruction settings\nstages = 4\ndenoiser = tv\n")
    out = tmp_path / "out.hsic"
    trace = tmp_path / "trace.csv"

    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--config", cfg,
                   "--out", out, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert len(trace.read_text().strip().splitlines()) == 2 + 4

    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--config", cfg, "--stages", 2,
                   "--out", out, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert len(trace.read_text().strip().splitlines()) == 2 + 2


def test_the_normalized_adjoint_is_the_only_start(workbench, tmp_path, capsys):
    argv = ["reconstruct", "--measurement", str(workbench["meas"]), "--mask",
            str(workbench["mask"]), "--out", str(tmp_path / "out.hsic")]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--help"])
    assert exit_info.value.code == 0 and "--init" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--init", "adjoint"])
    assert exit_info.value.code == 2 and "--init" in capsys.readouterr().err
    cfg = tmp_path / "recon.cfg"
    cfg.write_text("init = adjoint\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['init']\n"
    assert not (tmp_path / "out.hsic").exists()


@pytest.mark.parametrize("argv,message", [
    (("phantom", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("simulate", "--mask-seed", "-1"), "seed must be >= 0, got -1"),
    (("simulate", "--noise", "shot", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("simulate", "--noise", "shot", "--bits", "63"), "noise bits must be in [1, 62], got 63"),
], ids=["phantom-seed", "mask-seed", "noise-seed", "bits"])
def test_out_of_range_seed_or_bits_exits_2(workbench, tmp_path, capsys, argv, message):
    out = tmp_path / "out.hsic"
    truth = ["--truth", str(workbench["truth"])] if argv[0] == "simulate" else []
    code = cli.main([*argv, *truth, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_of_a_measurement_beyond_float32_exits_6_writing_nothing(tmp_path, capsys):
    truth, meas = tmp_path / "truth.hsic", tmp_path / "meas.hsic"
    fileio.write_cube(str(truth), np.full((4, 4, 2), 3e38))
    code = cli.main(["simulate", "--truth", str(truth), "--out", str(meas)])
    assert code == 6
    assert capsys.readouterr().err.startswith(f"error: cannot write {meas}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["truth.hsic"]


@pytest.mark.parametrize("source", [("--lr", "nan"), ("--lr", "inf"), ("--lr=-inf",),
                                    "lr = nan\n", "lr = inf\n"],
                         ids=["flag-nan", "flag-inf", "flag-minus-inf", "config-nan", "config-inf"])
def test_non_finite_lr_exits_2_before_any_step(workbench, tmp_path, capsys, monkeypatch, source):
    from cassikit import train
    monkeypatch.setattr(train, "run_hqs", lambda *a, **k: pytest.fail("a training step ran"))
    if isinstance(source, str):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(source)
        source = ("--config", str(cfg))
    out = tmp_path / "w.dprm"
    code = cli.main(["train", "--truth", str(workbench["truth"]), *source, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: lr must be finite and >= 0, got ")
    assert not out.exists()


def test_unknown_noise_kind_in_config_exits_2(workbench, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("noise = gaussian\n")
    out = tmp_path / "out.hsic"
    code = cli.main(["simulate", "--truth", str(workbench["truth"]), "--config", str(cfg),
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown noise kind 'gaussian'\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["bogus = 7\n", "stages 4\n", "stages = many\n"])
def test_bad_config_exits_2(workbench, tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--config", cfg,
                   "--out", tmp_path / "out.hsic")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_missing_input_file_exits_2(workbench, tmp_path):
    proc = run_cli("reconstruct", "--measurement", tmp_path / "absent.hsic",
                   "--mask", workbench["mask"], "--out", tmp_path / "out.hsic")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def test_garbled_input_file_exits_2(workbench, tmp_path):
    bad = tmp_path / "junk.hsic"
    bad.write_bytes(b"not a container")
    proc = run_cli("reconstruct", "--measurement", bad,
                   "--mask", workbench["mask"], "--out", tmp_path / "out.hsic")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_unwritable_output_exits_2(workbench, tmp_path):
    proc = run_cli("simulate", "--truth", workbench["truth"],
                   "--out", tmp_path / "no-such-dir" / "out.hsic")
    assert proc.returncode == 2
    assert "cannot write" in proc.stderr


def test_measurement_shape_mismatch_exits_3(workbench, tmp_path):
    # the truth cube has 4 planes; a measurement must have exactly one
    proc = run_cli("reconstruct", "--measurement", workbench["truth"],
                   "--mask", workbench["mask"], "--out", tmp_path / "out.hsic")
    assert proc.returncode == 3


def test_wrong_size_measurement_exits_3(workbench, tmp_path):
    small = tmp_path / "small.hsic"
    fileio.write_cube(str(small), np.zeros((4, 6)))
    proc = run_cli("reconstruct", "--measurement", small,
                   "--mask", workbench["mask"], "--out", tmp_path / "out.hsic")
    assert proc.returncode == 3
    assert "does not match" in proc.stderr


def test_plane_mask_without_bands_exits_2(workbench, tmp_path):
    plane = tmp_path / "mask.hsic"
    fileio.write_cube(str(plane), np.ones((16, 16)))
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", plane, "--out", tmp_path / "out.hsic")
    assert proc.returncode == 2
    assert "--bands" in proc.stderr


def test_plane_mask_bands_are_checked_before_the_operator_is_built(workbench, tmp_path, capsys,
                                                                 monkeypatch):
    plane, out = tmp_path / "plane.hsic", tmp_path / "out.hsic"
    fileio.write_cube(str(plane), np.ones((16, 16)))
    argv = ["reconstruct", "--measurement", str(workbench["meas"]), "--mask", str(plane),
            "--stages", "1", "--out", str(out)]
    built = []
    from_mask = SensingOperator.from_mask.__func__

    def spy(cls, *args):
        built.append(args[1:])
        return from_mask(cls, *args)

    monkeypatch.setattr(SensingOperator, "from_mask", classmethod(spy))
    # 16 + 1 * (500 - 1) columns against the 16x22 measurement of 4 bands at step 2
    assert cli.main([*argv, "--bands", "500", "--step", "1"]) == 3
    assert capsys.readouterr().err == \
        "error: measurement (16, 22) does not match operator (16, 515)\n"
    assert built == [] and not out.exists()
    assert cli.main([*argv, "--bands", "4", "--step", "2"]) == 0
    assert built == [(4, 2)] and fileio.read_cube(str(out)).shape == (16, 16, 4)


def test_bands_must_match_a_sheared_mask_stack(workbench, tmp_path, capsys):
    argv = ["reconstruct", "--measurement", str(workbench["meas"]), "--mask",
            str(workbench["mask"]), "--stages", "1", "--out", str(tmp_path / "out.hsic")]
    assert cli.main([*argv, "--bands", "9"]) == 3
    assert capsys.readouterr().err == \
        "error: --bands 9 does not match the mask stack's 4 bands\n"
    assert not (tmp_path / "out.hsic").exists()
    assert cli.main([*argv, "--bands", "4"]) == 0
    assert fileio.read_cube(str(tmp_path / "out.hsic")).shape == (16, 16, 4)


@pytest.mark.parametrize("argv,message", [
    (("--bits", "8"), "--bits applies only to --noise shot"),
    (("--noise", "none", "--seed", "0"), "--seed applies only to --noise shot"),
    (("--mask", "PLANE", "--mask-seed", "3"),
     "--mask-seed draws a mask, so it does not apply with --mask"),
], ids=["bits-without-noise", "seed-without-noise", "mask-seed-with-mask"])
def test_simulate_setting_that_does_nothing_exits_2(workbench, tmp_path, capsys, argv, message):
    plane, out = tmp_path / "plane.hsic", tmp_path / "out.hsic"
    fileio.write_cube(str(plane), np.ones((16, 16)))
    argv = [str(plane) if a == "PLANE" else a for a in argv]
    code = cli.main(["simulate", "--truth", str(workbench["truth"]), *argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_may_repeat_a_default_that_does_nothing(workbench, tmp_path, capsys):
    plane, out, cfg = tmp_path / "plane.hsic", tmp_path / "out.hsic", tmp_path / "sim.cfg"
    fileio.write_cube(str(plane), np.ones((16, 16)))
    argv = ["simulate", "--truth", str(workbench["truth"]), "--mask", str(plane),
            "--config", str(cfg), "--out", str(out)]
    cfg.write_text("noise = none\nbits = 11\nseed = 0\nmask_seed = 0\n")
    assert cli.main(argv) == 0, capsys.readouterr().err
    cfg.write_text("bits = 8\n")
    out.unlink()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.endswith("error: --bits applies only to --noise shot\n")
    assert not out.exists()


def test_params_on_a_route_without_weights_exits_2(workbench, tmp_path, capsys):
    out = tmp_path / "out.hsic"
    code = cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--denoiser", "tv",
                     "--params", str(tmp_path / "w.dprm"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("error: --params applies only to --denoiser lnlt or "
                                       "--use-den true, which read weights\n")
    assert not out.exists()


def test_invalid_architecture_flag_exits_2_on_every_route(workbench, tmp_path):
    # the TV route has no checkpoint to check an architecture flag against
    out = tmp_path / "out.hsic"
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--denoiser", "tv", "--window", 0,
                   "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == ("error: --window applies only to --denoiser lnlt, "
                           "whose checkpoint defines the architecture\n")
    assert not out.exists()


def test_train_then_reconstruct_with_default_architecture(workbench, tmp_path):
    ckpt, out = tmp_path / "w.dprm", tmp_path / "out.hsic"
    proc = run_cli("train", "--truth", workbench["truth"], "--mask-seed", 2,
                   "--stages", 1, "--steps", 1, "--warmup", 0, "--out", ckpt)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], "--denoiser", "lnlt", "--use-den", "true",
                   "--stages", 2, "--params", ckpt, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert fileio.read_cube(str(out)).shape == (16, 16, 4)


@pytest.mark.parametrize("extra", [("--denoiser", "lnlt"), ("--use-den", "true")])
def test_learned_components_without_checkpoint_exit_4(workbench, tmp_path, extra):
    proc = run_cli("reconstruct", "--measurement", workbench["meas"],
                   "--mask", workbench["mask"], *extra,
                   "--window", 4, "--grid", 4, "--channels", 4,
                   "--out", tmp_path / "out.hsic")
    assert proc.returncode == 4
    assert "--params" in proc.stderr


def test_divergent_training_exits_5(workbench, tmp_path):
    truth = tmp_path / "tiny.hsic"
    proc = run_cli("phantom", "--height", 8, "--width", 8, "--bands", 2,
                   "--seed", 2, "--out", truth)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("train", "--truth", truth, "--stages", 1, "--steps", 3,
                   "--warmup", 0, "--lr", "1e200", "--channels", 4,
                   "--window", 1, "--grid", 1, "--out", tmp_path / "w.dprm")
    assert proc.returncode == 5
    assert "step" in proc.stderr


def test_training_with_zero_stages_exits_2_before_any_step(tmp_path, capsys):
    truth = tmp_path / "tiny.hsic"
    fileio.write_cube(str(truth), generate_phantom(8, 8, 2, seed=2).numpy())
    code = cli.main(["train", "--truth", str(truth), "--stages", "0", "--steps", "1",
                     "--warmup", "0", "--channels", "4", "--window", "1", "--grid", "1",
                     "--out", str(tmp_path / "w.dprm")])
    assert code == 2
    assert capsys.readouterr().err == "error: training needs at least one stage, got stages=0\n"
    assert not (tmp_path / "w.dprm").exists()


def test_train_warmup_defaults_to_at_most_the_step_count(tmp_path, capsys):
    """Without --warmup, two steps warm up over both (lr 0, then lr/2); a
    warmup that is given is checked against the step count."""
    truth, curve, cfg = tmp_path / "tiny.hsic", tmp_path / "c.csv", tmp_path / "w.cfg"
    fileio.write_cube(str(truth), generate_phantom(8, 8, 2, seed=2).numpy())
    argv = ["train", "--truth", str(truth), "--stages", "1", "--steps", "2", "--lr", "1e-4",
            "--channels", "4", "--window", "1", "--grid", "1", "--out", str(tmp_path / "w.dprm")]
    assert cli.main(argv + ["--curve", str(curve)]) == 0
    assert [float(row.split(",")[1]) for row in curve.read_text().splitlines()[1:]] == [0.0, 5e-5]
    cfg.write_text("warmup = 3\n")
    for extra in (["--warmup", "3"], ["--config", str(cfg)]):
        capsys.readouterr()
        assert cli.main(argv + extra) == 2
        assert capsys.readouterr().err == "error: warmup 3 invalid for 2 steps\n"


def test_only_the_selftest_command_imports_the_battery():
    probe = "import sys, cassikit.cli; print('cassikit.selftest' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("all checks passed")


def _float64_route(workbench, stages, denoiser):
    """run_hqs on the workbench files widened to float64, the precision the
    CLI falls back to (read_cube returns the payload's float32)."""
    y = Measurement(Tensor(fileio.read_cube(str(workbench["meas"]))[:, :, 0].astype(np.float64)))
    op = SensingOperator(Tensor(fileio.read_cube(str(workbench["mask"])).astype(np.float64)), 2)
    truth = HsiCube(Tensor(fileio.read_cube(str(workbench["truth"]))))
    return run_hqs(y, op, ReconConfig(stages=stages, denoiser=denoiser), truth=truth)


def _reconstruct(workbench, tmp_path, stages, denoiser):
    out, trace = tmp_path / f"{denoiser}{stages}.hsic", tmp_path / f"{denoiser}{stages}.csv"
    assert cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--stages", str(stages),
                     "--denoiser", denoiser, "--truth", str(workbench["truth"]),
                     "--out", str(out), "--trace", str(trace)]) == 0
    return out, trace


@pytest.mark.parametrize("denoiser", ["tv", "identity"])
def test_classical_reconstruct_in_float32_stays_near_the_float64_route(workbench, tmp_path,
                                                                       denoiser):
    """The CLI builds the measurement and the operator in float32: the cube
    moves by at most 1e-6 of the peak and each trace PSNR by at most 1e-5 dB."""
    out, trace = _reconstruct(workbench, tmp_path, 9, denoiser)
    ref = _float64_route(workbench, 9, denoiser)
    z64 = ref.z.data.data
    assert np.abs(fileio.read_cube(str(out)) - z64).max() <= 1e-6 * np.abs(z64).max()
    rows = [row.split(",") for row in trace.read_text().splitlines()[1:]]
    assert len(rows) == len(ref.trace)
    for row, want in zip(rows, ref.trace):
        assert abs(float(row[4]) - want.psnr_vs_truth) <= 1e-5


@pytest.mark.parametrize("stages", [90, 120])
def test_long_classical_schedules_run_in_float64_byte_identically(workbench, tmp_path, stages):
    """eta = 3^(k-1) outgrows the prox's float32 range, so these runs keep
    float64 from start to end: the same cube and trace as a float64 run."""
    out, trace = _reconstruct(workbench, tmp_path, stages, "tv")
    ref = _float64_route(workbench, stages, "tv")
    assert out.read_bytes() == cube_file_bytes(ref.z.data.data)
    assert trace.read_text() == trace_csv(ref)


@pytest.mark.parametrize("denoiser", ["identity", "tv"])
def test_an_overflowing_mu_schedule_exits_2_before_any_stage(workbench, tmp_path, capsys, denoiser):
    """mu = 1e-4 * 3^(k-1) leaves the float range after stage 647."""
    out = tmp_path / "out.hsic"
    assert cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--denoiser", denoiser,
                     "--stages", "700", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stages 700 with mu_growth 3.0 take the last mu to inf")
    assert not out.exists()


def test_tv_reconstruct_with_truth_holds_few_float32_cubes(tmp_path):
    """A 64x64x28 TV reconstruct --truth, run through cli.main, peaks below 8
    float32 cubes under tracemalloc (7.05 measured; 11.8 when the truth and
    the mask were read in float64 and the report widened the cubes): the
    inputs stay float32, and the metrics widen one band or chunk at a time."""
    f = {k: str(tmp_path / f"{k}.hsic") for k in ("truth", "meas")}
    assert cli.main(["phantom", "--height", "64", "--width", "64", "--bands", "28",
                     "--seed", "4", "--out", f["truth"]]) == 0
    assert cli.main(["simulate", "--truth", f["truth"], "--out", f["meas"],
                     "--noise", "shot", "--seed", "2"]) == 0
    argv = ["reconstruct", "--measurement", f["meas"], "--mask", str(tmp_path / "meas.mask.hsic"),
            "--truth", f["truth"], "--out", str(tmp_path / "recon.hsic")]
    code, peak = _traced_peak(cli.main, argv)
    assert code == 0
    assert peak < 8 * (64 * 64 * 28 * 4), f"{peak / (64 * 64 * 28 * 4):.2f} float32 cubes"


def test_undefined_metric_exits_8_after_writing_the_reconstruction(workbench, tmp_path):
    zeros, out = tmp_path / "zeros.hsic", tmp_path / "out.hsic"
    fileio.write_cube(str(zeros), np.zeros((16, 16, 4)))  # a valid cube, no spectrum to angle
    proc = run_cli("reconstruct", "--measurement", workbench["meas"], "--mask", workbench["mask"],
                   "--stages", 1, "--denoiser", "tv", "--truth", zeros, "--out", out)
    assert proc.returncode == 8
    assert proc.stderr == "error: sam undefined: every pixel has a zero spectrum\n"
    assert fileio.read_cube(str(out)).shape == (16, 16, 4)


def _learned_inputs(tmp_path, weight_scale=1.0, blocks=1):
    """32x32x4 measurement, its sheared mask and a C=8 checkpoint on disk."""
    op = SensingOperator.from_mask(random_binary_mask(32, 32, 11), 4, 2)
    files = {k: tmp_path / f"{k}.hsic" for k in ("meas", "mask")}
    files["ckpt"] = tmp_path / "ckpt.dprm"
    fileio.write_cube(str(files["meas"]),
                      forward_measure(generate_phantom(32, 32, 4, seed=10), op).numpy())
    fileio.write_cube(str(files["mask"]), op.shifted_mask.data)
    arch = LnltConfig(base_channels=8, blocks_per_level=blocks, local_window=4, nonlocal_grid=4)
    store = cli.init_pipeline_params(4, arch, seed=12)
    for _, t in store.items():
        t._assign(t.data * weight_scale)
    fileio.write_params(str(files["ckpt"]), store)
    return files


LEARNED_ARGS = ("--denoiser", "lnlt", "--use-den", "true", "--stages", 2,
                "--channels", 8, "--window", 4, "--grid", 4)


def test_learned_reconstruct_matches_tracked_in_process_run(tmp_path):
    files = _learned_inputs(tmp_path)
    out, trace = tmp_path / "recon.hsic", tmp_path / "trace.csv"
    proc = run_cli("reconstruct", "--measurement", files["meas"], "--mask", files["mask"],
                   "--params", files["ckpt"], *LEARNED_ARGS, "--out", out, "--trace", trace)
    assert proc.returncode == 0, proc.stderr

    # the same files through the recurrence with tracked weights, graph recorded
    y = Measurement(Tensor(fileio.read_plane(str(files["meas"]))))
    op = SensingOperator(Tensor(fileio.read_cube(str(files["mask"]))), 2)
    cfg = ReconConfig(stages=2, denoiser="lnlt", use_den=True)
    result = run_hqs(y, op, cfg, params=fileio.read_params(str(files["ckpt"])))
    assert result.z.data._tracked()
    assert out.read_bytes() == cube_file_bytes(result.z.numpy())
    assert trace.read_text() == trace_csv(result)


def test_learned_metric_line_scores_the_float32_reconstruction(tmp_path, capsys):
    files = _learned_inputs(tmp_path)
    truth = tmp_path / "truth.hsic"
    fileio.write_cube(str(truth), generate_phantom(32, 32, 4, seed=10).numpy())
    assert cli.main(["reconstruct", "--measurement", str(files["meas"]), "--mask",
                     str(files["mask"]), "--params", str(files["ckpt"]),
                     *map(str, LEARNED_ARGS), "--truth", str(truth),
                     "--out", str(tmp_path / "recon.hsic")]) == 0
    line = capsys.readouterr().out.splitlines()[1]

    z = fileio.read_cube(str(tmp_path / "recon.hsic")).astype(np.float32)  # the route's cube
    t = fileio.read_cube(str(truth))
    assert line == (f"psnr {metrics.psnr(z, t):.4f} dB  ssim {metrics.ssim(z, t):.5f}  "
                    f"sam {metrics.sam(z, t):.4f} deg")


def test_block_count_comes_from_the_checkpoint(tmp_path):
    files = _learned_inputs(tmp_path, blocks=2)
    out = tmp_path / "recon.hsic"
    proc = run_cli("reconstruct", "--measurement", files["meas"], "--mask", files["mask"],
                   "--params", files["ckpt"], "--denoiser", "lnlt", "--use-den", "true",
                   "--stages", 2, "--out", out)
    assert proc.returncode == 0, proc.stderr

    y = Measurement(Tensor(fileio.read_plane(str(files["meas"]))))
    op = SensingOperator(Tensor(fileio.read_cube(str(files["mask"]))), 2)
    cfg = ReconConfig(stages=2, denoiser="lnlt", use_den=True)
    result = run_hqs(y, op, cfg, params=fileio.read_params(str(files["ckpt"])))
    assert out.read_bytes() == cube_file_bytes(result.z.numpy())


@pytest.mark.parametrize("flag,value,stored", [
    ("--channels", 16, 8), ("--blocks", 2, 1), ("--window", 8, 4), ("--grid", 2, 4)])
def test_architecture_flag_must_match_the_checkpoint(tmp_path, capsys, flag, value, stored):
    files = _learned_inputs(tmp_path)
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]),
                     "--mask", str(files["mask"]), "--params", str(files["ckpt"]),
                     "--denoiser", "lnlt", flag, str(value),
                     "--out", str(tmp_path / "out.hsic")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {flag} {value} does not match the checkpoint's {stored}\n")


@pytest.mark.parametrize("entry", ["lnlt.enc1.0.local.pos", "lnlt.mid.0.nonlocal.pos"])
def test_position_bias_with_unequal_sides_exits_3_naming_the_entry(tmp_path, capsys, entry):
    files = _learned_inputs(tmp_path)
    arrays = fileio.read_params(str(files["ckpt"])).arrays()
    heads, tokens, _ = arrays[entry].shape
    arrays[entry] = np.zeros((heads, tokens, tokens + 1))
    fileio.write_params(str(files["ckpt"]), ParamStore.from_arrays(arrays))
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]),
                     "--mask", str(files["mask"]), "--params", str(files["ckpt"]),
                     "--denoiser", "lnlt", "--out", str(tmp_path / "out.hsic")])
    assert code == 3
    assert f"{entry} has shape" in capsys.readouterr().err


@pytest.mark.parametrize("channels", [(), ("--channels", "8")], ids=["no-flag", "channels-8"])
@pytest.mark.parametrize("entry,shape", [
    ("lnlt.embed.w", (9, 8)), ("den.entry.w", (8,)), ("den.exit.w", (8, 4))],
    ids=["embed", "den-entry", "den-exit"])
def test_checkpoint_entry_of_the_wrong_rank_exits_3_naming_it(tmp_path, capsys, entry, shape,
                                                              channels):
    files = _learned_inputs(tmp_path)
    arrays = fileio.read_params(str(files["ckpt"])).arrays()
    arrays[entry] = np.ones(shape)
    fileio.write_params(str(files["ckpt"]), ParamStore.from_arrays(arrays))
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]),
                     "--mask", str(files["mask"]), "--params", str(files["ckpt"]),
                     "--denoiser", "lnlt", "--use-den", "true", *channels,
                     "--out", str(tmp_path / "out.hsic")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {entry} has shape {shape}, not rank ")


def test_numerical_failure_exits_6(tmp_path):
    # finite as float32, but two stacked convs of such weights overflow it
    files = _learned_inputs(tmp_path, weight_scale=1e30)
    proc = run_cli("reconstruct", "--measurement", files["meas"], "--mask", files["mask"],
                   "--params", files["ckpt"], *LEARNED_ARGS, "--out", tmp_path / "out.hsic")
    assert proc.returncode == 6
    # exactly the one error line: no numpy RuntimeWarning ahead of it
    assert proc.stderr == "error: non-finite values produced by op 'conv2d'\n"


@pytest.mark.parametrize("denoiser", ["tv", "identity"])
def test_estimated_eta_of_zero_exits_6_before_the_denoiser(tmp_path, capsys, denoiser):
    files = _learned_inputs(tmp_path)
    arrays = fileio.read_params(str(files["ckpt"])).arrays()
    arrays["den.head.fc2.b"] = np.array([0.0, -1e4])  # softplus(-1e4) underflows to 0
    fileio.write_params(str(files["ckpt"]), ParamStore.from_arrays(arrays))
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]),
                     "--mask", str(files["mask"]), "--params", str(files["ckpt"]),
                     "--denoiser", denoiser, "--use-den", "true", "--stages", "2",
                     "--out", str(tmp_path / "out.hsic")])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("error: non-positive mu/eta at stage 1: mu=")
    assert err.endswith(", eta=0.0\n")


@pytest.mark.parametrize("denoiser", ["tv", "lnlt"])
def test_estimated_mu_of_zero_exits_6_before_the_data_step(tmp_path, capsys, denoiser):
    files = _learned_inputs(tmp_path)
    arrays = fileio.read_params(str(files["ckpt"])).arrays()
    arrays["den.head.fc2.b"] = np.array([-1e4, 0.0])  # softplus(-1e4) underflows to 0
    fileio.write_params(str(files["ckpt"]), ParamStore.from_arrays(arrays))
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]),
                     "--mask", str(files["mask"]), "--params", str(files["ckpt"]),
                     "--denoiser", denoiser, "--use-den", "true", "--stages", "2",
                     "--out", str(tmp_path / "out.hsic")])
    assert code == 6
    assert capsys.readouterr().err.startswith(
        "error: non-positive mu/eta at stage 1: mu=0.0, eta=")


def test_tv_reconstruct_of_a_one_row_scene(tmp_path):
    truth, meas, out = (tmp_path / f"{k}.hsic" for k in ("truth", "meas", "out"))
    for argv in (("phantom", "--height", 1, "--width", 16, "--bands", 4, "--out", truth),
                 ("simulate", "--truth", truth, "--out", meas),
                 ("reconstruct", "--measurement", meas, "--mask", tmp_path / "meas.mask.hsic",
                  "--denoiser", "tv", "--out", out)):
        assert cli.main([str(a) for a in argv]) == 0
    assert fileio.read_cube(str(out)).shape == (1, 16, 4)


@pytest.mark.parametrize("kind", ["non-finite-value", "empty-entry"])
def test_malformed_checkpoint_exits_2_naming_the_entry(workbench, tmp_path, capsys, kind):
    bad = tmp_path / "bad.dprm"
    bad.write_bytes(PARAM_CORRUPTIONS[kind]())
    code = cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--denoiser", "lnlt",
                     "--params", str(bad), "--out", str(tmp_path / "out.hsic")])
    assert code == 2
    assert "entry 'w'" in capsys.readouterr().err


def test_internal_error_exits_7(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    # a defect outside the toolkit's error types cannot be provoked from the
    # command line, so this one runs in-process with the phantom generator broken
    monkeypatch.setattr(cli, "generate_phantom", broken)
    code = cli.main(["phantom", "--height", "4", "--width", "4", "--bands", "1",
                     "--out", str(tmp_path / "p.hsic")])
    assert code == 7
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_running_out_of_memory_exits_9_naming_the_command(tmp_path, monkeypatch, capsys):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(100000, 100000, 100) and data type float64")

    # nothing is allocated: the generator raises what numpy would raise
    monkeypatch.setattr(cli, "generate_phantom", too_big)
    code = cli.main(["phantom", "--height", "100000", "--width", "100000", "--bands", "100",
                     "--out", str(tmp_path / "p.hsic")])
    assert code == 9
    assert capsys.readouterr().err == (
        "error: phantom ran out of memory: Unable to allocate 74.5 GiB for an array with "
        "shape (100000, 100000, 100) and data type float64\n")
    assert not (tmp_path / "p.hsic").exists()


def test_a_tv_worker_running_out_of_memory_exits_9_naming_reconstruct(workbench, tmp_path,
                                                                      failing_tv_worker, capsys):
    before = threading.active_count()
    out = tmp_path / "out.hsic"
    code = cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--denoiser", "tv", "--out", str(out)])
    assert code == 9
    assert capsys.readouterr().err == (
        "error: reconstruct ran out of memory: Unable to allocate 1.00 TiB\n")
    assert threading.active_count() == before
    assert not out.exists()


def test_tiny_training_run_writes_checkpoint_and_curve(tmp_path):
    truth = tmp_path / "tiny.hsic"
    proc = run_cli("phantom", "--height", 8, "--width", 8, "--bands", 2,
                   "--seed", 2, "--out", truth)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "w.dprm"
    curve = tmp_path / "curve.csv"
    proc = run_cli("train", "--truth", truth, "--stages", 1, "--steps", 2,
                   "--warmup", 1, "--lr", "1e-4", "--channels", 4,
                   "--window", 1, "--grid", 1, "--out", out, "--curve", curve)
    assert proc.returncode == 0, proc.stderr
    assert "loss" in proc.stdout
    store = fileio.read_params(str(out))
    assert store.n_values > 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 3


@pytest.mark.parametrize("blob,message", [
    (NON_UTF8_CONFIG, "can't decode byte 0xff"),
    (b"stages = 2\n# again\nstages = 3\n", ":3: duplicate key 'stages'"),
    (b"mask-seed = 2\nmask_seed = 3\n", ":2: duplicate key 'mask_seed'"),
], ids=["non-utf8", "duplicate", "duplicate-spelled-with-dash"])
def test_unreadable_or_ambiguous_config_exits_2_naming_it(workbench, tmp_path, capsys, blob,
                                                          message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(blob)
    out = tmp_path / "out.hsic"
    code = cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and message in err
    assert not out.exists()


def test_checkpoint_with_overflowing_extents_exits_2_naming_the_entry(workbench, tmp_path,
                                                                      capsys):
    bad = tmp_path / "bad.dprm"
    bad.write_bytes(PARAM_CORRUPTIONS["overflowing-extents"]())
    code = cli.main(["reconstruct", "--measurement", str(workbench["meas"]),
                     "--mask", str(workbench["mask"]), "--denoiser", "lnlt",
                     "--params", str(bad), "--out", str(tmp_path / "out.hsic")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: entry 'w' of shape (2147483648, 2147483648, 2147483648) "
        f"overruns the file\n")


EXPECTED_EXIT_CODES = {
    "CassikitError": 2, "FormatError": 2, "ParameterError": 2, "GraphStateError": 2,
    "OracleCapError": 2, "ShapeError": 3, "OperatorError": 3, "MissingParamsError": 4,
    "DivergenceError": 5, "NumericalError": 6, "MetricError": 8, "OutOfMemoryError": 9,
}


def _error_types(cls=CassikitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


def test_every_error_type_has_its_documented_exit_code(tmp_path, monkeypatch, capsys):
    types = list(_error_types())
    assert {t.__name__ for t in types} == set(EXPECTED_EXIT_CODES)
    for exc_type in types:
        assert getattr(errors, exc_type.__name__) is exc_type

        def raise_it(*args, **kwargs):
            raise exc_type("stop")

        monkeypatch.setattr(cli, "generate_phantom", raise_it)
        code = cli.main(["phantom", "--out", str(tmp_path / "p.hsic")])
        assert code == EXPECTED_EXIT_CODES[exc_type.__name__], exc_type.__name__
        assert capsys.readouterr().err == "error: stop\n"


# Every config-settable option of each command: a value other than its
# default, and a second value that a command-line flag must override.
SETTING_VALUES = {
    "simulate": {"mask_seed": (3, 4), "step": (1, 2), "noise": ("shot", "none"),
                 "bits": (8, 9), "seed": (5, 6), "mask_out": ("m.hsic", "other.hsic")},
    "reconstruct": {"stages": (1, 2), "denoiser": ("lnlt", "tv"), "use_den": ("true", "false"),
                    "step": (1, 2), "bands": (2, 3), "channels": (4, 8), "blocks": (1, 2), "window": (1, 2), "grid": (1, 2)},
    "train": {"stages": (1, 2), "steps": (2, 3), "lr": ("1e-3", "2e-3"), "warmup": (1, 2),
              "seed": (3, 4), "mask_seed": (4, 5), "step": (1, 2), "channels": (4, 6),
              "blocks": (2, 1), "window": (1, 2), "grid": (1, 2)},
}


@pytest.fixture(scope="module")
def settings_inputs(tmp_path_factory):
    """12x12x2 truth, a mask plane, a step-1 measurement of them and a C=4,
    window-1, grid-1 checkpoint: inputs on which every setting above runs."""
    root = tmp_path_factory.mktemp("settings")
    files = {k: root / f"{k}.hsic" for k in ("truth", "plane", "meas")}
    files["ckpt"] = root / "ckpt.dprm"
    fileio.write_cube(str(files["truth"]), generate_phantom(12, 12, 2, seed=1).numpy())
    fileio.write_cube(str(files["plane"]), random_binary_mask(12, 12, 2).data.data)
    assert cli.main(["simulate", "--truth", str(files["truth"]), "--mask", str(files["plane"]),
                     "--step", "1", "--out", str(files["meas"])]) == 0
    arch = LnltConfig(base_channels=4, blocks_per_level=1, local_window=1, nonlocal_grid=1)
    fileio.write_params(str(files["ckpt"]), cli.init_pipeline_params(2, arch, seed=7))
    return files


def _flags(values: dict) -> list:
    return [arg for key, value in values.items()
            for arg in ("--" + key.replace("_", "-"), str(value))]


@pytest.mark.parametrize("command", sorted(SETTING_VALUES))
def test_every_setting_reads_the_same_from_config_and_flag(settings_inputs, tmp_path,
                                                           monkeypatch, capsys, command):
    assert set(SETTING_VALUES[command]) == {row[0] for row in cli.SETTINGS[command]}
    for key, _, default, _ in cli.SETTINGS[command]:
        assert str(SETTING_VALUES[command][key][0]) != str(default), key
    chosen = {key: pair[0] for key, pair in SETTING_VALUES[command].items()}
    overridden = {key: pair[1] for key, pair in SETTING_VALUES[command].items()}
    f = {k: str(v) for k, v in settings_inputs.items()}
    files = {"simulate": ["--truth", f["truth"], "--out", "meas.hsic"],
             "reconstruct": ["--measurement", f["meas"], "--mask", f["plane"], "--params",
                             f["ckpt"], "--truth", f["truth"], "--out", "recon.hsic",
                             "--trace", "trace.csv"],
             "train": ["--truth", f["truth"], "--out", "w.dprm", "--curve", "curve.csv"]}[command]

    def run(name: str, flags: dict, config: dict) -> tuple:
        # outputs go to a fresh working directory, by relative paths, so runs
        # that agree print the same lines and write the same files
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [command, *files, *_flags(flags)]
        if config:
            (tmp_path / f"{name}.cfg").write_text(
                "".join(f"{key} = {value}\n" for key, value in config.items()))
            argv += ["--config", str(tmp_path / f"{name}.cfg")]
        assert cli.main(argv) == 0, capsys.readouterr().err
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    by_flag = run("flags", chosen, {})
    assert run("config", {}, chosen) == by_flag
    assert run("flags-over-config", chosen, overridden) == by_flag


def test_a_scene_smaller_than_the_ssim_window_scores_psnr_and_sam_and_writes_the_trace(
        tmp_path, capsys):
    truth, meas, out = (str(tmp_path / f"{k}.hsic") for k in ("truth", "meas", "out"))
    trace = tmp_path / "trace.csv"
    assert cli.main(["phantom", "--height", "8", "--width", "8", "--bands", "2", "--seed", "3",
                     "--out", truth]) == 0
    assert cli.main(["simulate", "--truth", truth, "--out", meas]) == 0
    capsys.readouterr()
    code = cli.main(["reconstruct", "--measurement", meas, "--mask", str(tmp_path / "meas.mask.hsic"),
                     "--stages", "1", "--truth", truth, "--out", out, "--trace", str(trace)])
    printed = capsys.readouterr()
    assert code == 0, printed.err
    z, t = fileio.read_cube(out), fileio.read_cube(truth)
    assert printed.out.splitlines()[1:] == [
        f"trace -> {trace}",
        f"psnr {metrics.psnr(z, t):.4f} dB  ssim n/a  sam {metrics.sam(z, t):.4f} deg"]
    assert len(trace.read_text().splitlines()) == 3  # header, init row, one stage


def test_the_trace_is_written_before_a_metric_fails(workbench, tmp_path):
    zeros, out, trace = tmp_path / "zeros.hsic", tmp_path / "out.hsic", tmp_path / "trace.csv"
    fileio.write_cube(str(zeros), np.zeros((16, 16, 4)))  # SAM has no angle: exit 8
    proc = run_cli("reconstruct", "--measurement", workbench["meas"], "--mask", workbench["mask"],
                   "--stages", 1, "--truth", zeros, "--out", out, "--trace", trace)
    assert proc.returncode == 8
    assert len(trace.read_text().splitlines()) == 3


def _pre_fusion_store(store: ParamStore) -> ParamStore:
    """The same weights in the layout written before q/k/v and the GDFN
    branches were fused: per attention module q, k, v pairs of entries, per
    GDFN gdfn.b1 and gdfn.b2 pairs, in registration order."""
    arrays = {}
    for name, t in store.items():
        prefix, sep, _ = name.partition(".qkv.")
        parts = ("q", "k", "v")
        if not sep:
            prefix, sep, _ = name.partition(".gdfn.in.")
            parts = ("gdfn.b1", "gdfn.b2")
        if not sep:
            arrays[name] = t.data
        elif name.endswith(".point.w"):  # a fused set's first entry: write the old set
            for i, part in enumerate(parts):
                for kind in ("point", "depth"):
                    w, b = (store[f"{prefix}{sep}{kind}.{x}"].data for x in "wb")
                    cs = slice(i * b.size // len(parts), (i + 1) * b.size // len(parts))
                    arrays[f"{prefix}.{part}.{kind}.w"] = w[..., cs]
                    arrays[f"{prefix}.{part}.{kind}.b"] = b[cs]
    return ParamStore.from_arrays(arrays)


def test_a_checkpoint_in_the_pre_fusion_layout_exits_2_naming_the_fused_entry(tmp_path, capsys):
    files = _learned_inputs(tmp_path)
    old = _pre_fusion_store(fileio.read_params(str(files["ckpt"])))
    names = old.names()
    assert "lnlt.enc1.0.local.q.point.w" in names and "lnlt.dec1.0.gdfn.b2.depth.b" in names
    assert not any(".qkv." in n or ".gdfn.in." in n for n in names)
    assert names.index("lnlt.enc1.0.local.k.point.w") < names.index("lnlt.enc1.0.local.pos")
    fileio.write_params(str(files["ckpt"]), old)
    out = tmp_path / "recon.hsic"
    code = cli.main(["reconstruct", "--measurement", str(files["meas"]), "--mask",
                     str(files["mask"]), "--params", str(files["ckpt"]), "--denoiser", "lnlt",
                     "--use-den", "true", "--stages", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: checkpoint lacks lnlt.enc1.0.local.qkv.point.w: blocks hold fused qkv and "
        "gdfn.in weights")
    assert not out.exists()


# ---------------------------------------------------------------------------
# every command, generated arguments: only documented exit codes
# ---------------------------------------------------------------------------

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 6, 8, 9}  # README "Exit codes"; 7 is a defect


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Tiny valid inputs (a 16x16x2 scene, the smallest that `train`'s default
    window and grid tile, and a C=4 checkpoint) and the corrupt files of the
    container and config tests, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    f = {k: root / f"{k}.hsic" for k in ("truth", "plane", "meas")}
    fileio.write_cube(str(f["truth"]), generate_phantom(16, 16, 2, seed=1).numpy())
    fileio.write_cube(str(f["plane"]), random_binary_mask(16, 16, 2).data.data)
    assert cli.main(["simulate", "--truth", str(f["truth"]), "--mask", str(f["plane"]),
                     "--out", str(f["meas"])]) == 0
    f["stack"] = root / "meas.mask.hsic"
    f["ckpt"] = root / "ckpt.dprm"
    arch = LnltConfig(base_channels=4, local_window=1, nonlocal_grid=1)
    fileio.write_params(str(f["ckpt"]), cli.init_pipeline_params(2, arch, seed=7))
    f["old-ckpt"] = root / "old.dprm"
    fileio.write_params(str(f["old-ckpt"]),
                        _pre_fusion_store(fileio.read_params(str(f["ckpt"]))))
    for kind, corrupt in CUBE_CORRUPTIONS.items():
        f[f"cube-{kind}"] = root / f"cube-{kind}.hsic"
        f[f"cube-{kind}"].write_bytes(corrupt(_valid_cube_blob()))
    for kind, corrupt in PARAM_CORRUPTIONS.items():
        f[f"ckpt-{kind}"] = root / f"ckpt-{kind}.dprm"
        f[f"ckpt-{kind}"].write_bytes(corrupt())
    f["missing"] = root / "missing.hsic"
    f["directory"] = root
    return {k: str(v) for k, v in f.items()}


# Per setting type, values that run or fail validation, and with them values
# that do not parse; a quarter of the runs also draw those, so that most runs
# get past argument parsing.
FUZZ_VALUES = {int: ["0", "1", "2", "3"], float: ["1e-3", "0", "1e30"], bool: ["true", "false"]}
FUZZ_JUNK = {int: ["-1", "x"], float: ["-1", "nan", "inf", "x"], bool: ["maybe"]}
# each input option with the file it names in a run that draws no junk
FILE_OPTIONS = {"simulate": {"--truth": "truth", "--mask": "plane"},
                "train": {"--truth": "truth"},
                "reconstruct": {"--measurement": "meas", "--mask": "stack", "--params": "ckpt",
                                "--truth": "truth"}}


@st.composite
def cli_runs(draw, command):
    """(argv with {name} file placeholders, config file bytes or None)."""
    junk = draw(st.integers(0, 3)) == 0
    argv = [command]
    if command == "train":  # a given flag wins over the config file: one or two steps, not 500
        argv += ["--steps", draw(st.sampled_from(["1", "2"])),
                 "--warmup", draw(st.sampled_from(["0", "1", "3"]))]
    for option, usual in FILE_OPTIONS[command].items():
        if junk:
            name = draw(st.sampled_from(FUZZ_FILE_NAMES + [None]))
        else:  # only the learned routes read weights
            name = draw(st.sampled_from([usual, None])) if option == "--params" else usual
        if name is not None:
            argv += [option, "{%s}" % name]
    config = []
    for key, kind, _, choices in cli.SETTINGS[command]:
        if key in ("steps", "warmup"):
            continue
        if key == "mask_out":
            values = ["{out_dir}/m.hsic"] + junk * ["{missing}/m.hsic"]
        elif choices:
            values = [*choices] + junk * ["bogus"]
        else:
            values = FUZZ_VALUES[kind] + junk * FUZZ_JUNK[kind]
        where = draw(st.sampled_from(["", "", "", "flag", "config", "both"]))
        if where in ("flag", "both"):
            argv += ["--" + key.replace("_", "-"), draw(st.sampled_from(values))]
        if where in ("config", "both"):
            config.append(f"{key} = {draw(st.sampled_from(values))}\n".encode())
    argv += ["--out", "{missing}/out.bin" if junk and draw(st.booleans()) else "{out_dir}/out.bin"]
    extra = {"reconstruct": ["--trace", "{out_dir}/t.csv"], "train": ["--curve", "{out_dir}/c.csv"]}
    argv += draw(st.sampled_from([[], extra.get(command, [])] + junk * [["--bogus"]]))
    if junk:
        config.append(draw(st.sampled_from([b"", b"bogus = 1\n", b"stages 4\n", NON_UTF8_CONFIG])))
    return argv, (b"".join(config) if config else None)


FUZZ_FILE_NAMES = ["truth", "plane", "meas", "stack", "ckpt", "old-ckpt", "missing", "directory",
                   *(f"cube-{k}" for k in sorted(CUBE_CORRUPTIONS)),
                   *(f"ckpt-{k}" for k in sorted(PARAM_CORRUPTIONS))]


def _exit_code(argv: list) -> tuple:
    """cli.main(argv) in-process: (exit code, stderr); argparse exits by SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _run_generated(tmp_path_factory, files, argv, config):
    out_dir = tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())
    names = dict(files, out_dir=out_dir)
    argv = [arg.format(**names) for arg in argv]
    if config is not None:
        path = os.path.join(out_dir, "run.cfg")
        with open(path, "wb") as fh:
            fh.write(config.replace(b"{out_dir}", out_dir.encode()))
        argv += ["--config", path]
    code, err = _exit_code(argv)
    assert code in DOCUMENTED_EXIT_CODES, f"{argv} exited {code}: {err}"


@pytest.mark.parametrize("command", sorted(FILE_OPTIONS))
def test_generated_arguments_and_configs_exit_only_with_documented_codes(
        tmp_path_factory, fuzz_files, command):
    @settings(max_examples=30)
    @given(cli_runs(command))
    def check(run):
        _run_generated(tmp_path_factory, fuzz_files, *run)

    check()


@settings(max_examples=25)
@given(st.lists(st.sampled_from(["--height", "--width", "--bands", "--seed"]), max_size=4),
       st.lists(st.sampled_from(FUZZ_VALUES[int] + FUZZ_JUNK[int]), min_size=4, max_size=4),
       st.sampled_from(["{out_dir}/p.hsic", "{missing}/p.hsic", "{directory}"]))
def test_generated_phantom_arguments_exit_only_with_documented_codes(
        tmp_path_factory, fuzz_files, flags, values, out):
    argv = ["phantom", *(a for flag, value in zip(flags, values) for a in (flag, value)),
            "--out", out]
    _run_generated(tmp_path_factory, fuzz_files, argv, None)


@pytest.mark.parametrize("argv", [["selftest", "--level", "quick"], ["selftest", "--level", "all"],
                                  ["selftest", "--bogus"], ["selftest", "--config", "x.cfg"]])
def test_selftest_arguments_exit_only_with_documented_codes(argv):
    code, err = _exit_code(argv)
    assert code in DOCUMENTED_EXIT_CODES, f"{argv} exited {code}: {err}"
