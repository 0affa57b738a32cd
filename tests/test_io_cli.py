"""Container formats and the command-line interface.

The cube and checkpoint containers are checked byte-for-byte against their
documented layouts, then round-tripped.  CLI coverage runs the installed
package in subprocesses so argument parsing, exit codes and file handling
are exercised exactly as a user would hit them.
"""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from cassikit import cli, fileio
from cassikit.cassi import (Measurement, SensingOperator, forward_measure,
                            random_binary_mask)
from cassikit.errors import FormatError, ShapeError
from cassikit.hqs import ReconConfig, run_hqs, trace_csv
from cassikit.params import ParamStore
from cassikit.phantom import generate_phantom
from cassikit.tensor import Tensor
from cassikit.transformer import LnltConfig

from conftest import make_rng


# ---------------------------------------------------------------------------
# cube container
# ---------------------------------------------------------------------------

def test_cube_header_layout():
    cube = np.arange(6.0).reshape(2, 3, 1)
    blob = fileio.cube_bytes(cube)
    assert blob[:4] == b"HSIC"
    assert struct.unpack("<IIII", blob[4:20]) == (1, 2, 3, 1)
    assert len(blob) == 20 + 4 * 6


def test_cube_payload_is_band_major_float32():
    cube = np.array([[[1.0, 5.0], [2.0, 6.0]],
                     [[3.0, 7.0], [4.0, 8.0]]])
    blob = fileio.cube_bytes(cube)
    payload = np.frombuffer(blob, dtype="<f4", offset=20)
    # plane 0 row-major, then plane 1
    np.testing.assert_array_equal(payload, [1, 2, 3, 4, 5, 6, 7, 8])


def test_cube_roundtrip_is_exact_for_float32_values(tmp_path):
    values = make_rng(5).normal(size=(7, 9, 3)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "cube.hsic")
    fileio.write_cube(path, values)
    back = fileio.read_cube(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, values)


def test_single_plane_roundtrip(tmp_path):
    plane = make_rng(6).random((4, 5)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "plane.hsic")
    fileio.write_cube(path, plane)
    assert fileio.read_cube(path).shape == (4, 5, 1)
    np.testing.assert_array_equal(fileio.read_plane(path), plane)


def test_cube_bytes_rejects_bad_rank():
    with pytest.raises(ShapeError):
        fileio.cube_bytes(np.zeros(4))
    with pytest.raises(ShapeError):
        fileio.cube_bytes(np.zeros((2, 2, 2, 2)))


def test_read_plane_rejects_multiband(tmp_path):
    path = str(tmp_path / "three.hsic")
    fileio.write_cube(path, np.zeros((2, 2, 3)))
    with pytest.raises(FormatError, match="one plane"):
        fileio.read_plane(path)


def _valid_cube_blob() -> bytes:
    return fileio.cube_bytes(np.arange(4.0).reshape(2, 2, 1))


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
    store = _demo_store()
    path = str(tmp_path / "weights.dprm")
    fileio.write_params(path, store)
    back = fileio.read_params(path)
    assert back.names() == store.names()
    for name in store.names():
        assert back[name].data.dtype == np.float64
        np.testing.assert_array_equal(back[name].data, store[name].data)
    assert fileio.params_bytes(back) == fileio.params_bytes(store)


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
}


@pytest.mark.parametrize("kind", sorted(PARAM_CORRUPTIONS))
def test_corrupt_checkpoint_raises_format_error(tmp_path, kind):
    path = str(tmp_path / f"{kind}.dprm")
    with open(path, "wb") as fh:
        fh.write(PARAM_CORRUPTIONS[kind]())
    with pytest.raises(FormatError):
        fileio.read_params(path)


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
    assert out.read_bytes() == fileio.cube_bytes(result.z.numpy())
    assert trace.read_text() == trace_csv(result)


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
    assert out.read_bytes() == fileio.cube_bytes(result.z.numpy())


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
    files = _learned_inputs(tmp_path, weight_scale=1e200)
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

