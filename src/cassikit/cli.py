"""Command-line interface.

Subcommands:
  simulate     make a measurement (and the sheared mask stack) from a truth cube
  reconstruct  run the HQS loop on a measurement
  train        overfit the learned pipeline on one truth patch
  selftest     run the built-in verification battery
  phantom      write a synthetic truth cube

Exit codes: 0 success, 1 selftest failure, 7 internal error (an exception
that is not a CassikitError).  The exit codes of the CassikitError types live
on the types, as `exit_code` (errors.py): 2 unless the type sets its own.
A MemoryError becomes an OutOfMemoryError (exit 9) that names the command.

`simulate`, `reconstruct` and `train` accept `--config FILE`, UTF-8 text of
`key = value` lines (# comments; `-` and `_` alike in keys) for the options in
`SETTINGS`.  Command line > config file > default.  A file that is not UTF-8,
a line without `=`, a repeated or unknown key, or a bad value is a FormatError:
no config is half read.  `selftest` and `phantom` take flags only.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio, metrics
from .cassi import (HsiCube, Mask2D, Measurement, SensingOperator,
                    apply_shot_noise, forward_measure, random_binary_mask)
from .degradation import register_den_params
from .errors import (CassikitError, FormatError, MissingParamsError, OutOfMemoryError,
                     ParameterError, ShapeError)
from .hqs import DENOISERS, ReconConfig, run_hqs, trace_csv
from .params import Initializer, ParamStore
from .phantom import generate_phantom
from .selftest import format_report, run_selftest
from .tensor import Tensor, no_grad
from .train import TrainConfig, curve_csv, train_overfit
from .transformer import (LnltConfig, attention_layout, register_lnlt_params,
                          section_blocks)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INTERNAL = 7

NOISE_KINDS = ("none", "shot")

# `reconstruct` reads the architecture from the checkpoint.  These flags only
# assert it; they stay until the benchmark stops passing them (bench/run.py
# gives them on train_32), then they go.
ARCH_FLAGS = ("channels", "blocks", "window", "grid")

# Per command, every option a config file can set: (name, type, default,
# choices).  `_add_settings` adds `--name` (underscores as dashes) for each;
# `_apply_config` resolves each to command line > config file > default.
SETTINGS = {
    "simulate": (
        ("mask_seed", int, 0, None),
        ("step", int, 2, None),
        ("noise", str, "none", NOISE_KINDS),
        ("bits", int, 11, None),
        ("seed", int, 0, None),
        ("mask_out", str, None, None),
    ),
    "reconstruct": (
        ("stages", int, 9, None),
        ("denoiser", str, "tv", DENOISERS),
        ("use_den", bool, False, None),
        ("step", int, 2, None),
        ("bands", int, None, None),
        *((key, int, None, None) for key in ARCH_FLAGS),
    ),
    "train": (
        ("stages", int, 3, None),
        ("steps", int, 500, None),
        ("lr", float, 4e-4, None),
        ("warmup", int, 10, None),
        ("seed", int, 0, None),
        ("mask_seed", int, 0, None),
        ("step", int, 2, None),
        ("channels", int, 8, None),
        ("blocks", int, 1, None),
        ("window", int, 4, None),
        ("grid", int, 4, None),
    ),
}


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key in values:
                    raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return values


def _bool_flag(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true/false, got {raw!r}")
    return raw.lower() == "true"


def _apply_config(args: argparse.Namespace) -> None:
    """Write each of the command's SETTINGS onto `args`: command line > config
    file > default.  A bad value or an unknown key in the file is a FormatError.

    `args.given` names the settings set on the command line or set by the file
    to a value other than the default: a shared config file that repeats a
    default does not count as asking for that setting."""
    args.given = set()
    if args.command not in SETTINGS:
        return
    config = parse_config_file(args.config) if args.config else {}
    for key, kind, default, _ in SETTINGS[args.command]:
        raw = config.pop(key, None)
        if getattr(args, key) is not None:
            args.given.add(key)
            continue
        if raw is None:
            setattr(args, key, default)
            continue
        try:
            setattr(args, key, _bool_flag(raw) if kind is bool else kind(raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise FormatError(f"config value {key} = {raw!r} is not a valid {kind.__name__}") from exc
        if getattr(args, key) != default:
            args.given.add(key)
    if config:
        raise FormatError(f"unknown config keys: {sorted(config)}")


def _refuse_unused(args: argparse.Namespace, keys: tuple, reason: str) -> None:
    """A given setting that this run would ignore is a ParameterError."""
    for key in keys:
        if key in args.given:
            raise ParameterError(f"--{key.replace('_', '-')} {reason}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.noise not in NOISE_KINDS:
        raise ParameterError(f"unknown noise kind {args.noise!r}")
    if args.noise != "shot":
        _refuse_unused(args, ("bits", "seed"), "applies only to --noise shot")
    if args.mask is not None:
        _refuse_unused(args, ("mask_seed",), "draws a mask, so it does not apply with --mask")

    truth = HsiCube(Tensor(fileio.read_cube(args.truth)))
    h, w, n_bands = truth.shape
    if args.mask is None:
        mask = random_binary_mask(h, w, args.mask_seed)
    else:
        mask = Mask2D(Tensor(fileio.read_plane(args.mask)))
    op = SensingOperator.from_mask(mask, n_bands, args.step)
    y = forward_measure(truth, op).data.data
    if args.noise == "shot":
        y = apply_shot_noise(y, args.bits, args.seed)
    fileio.write_cube(args.out, y)
    if args.mask_out is None:
        stem, ext = os.path.splitext(args.out)
        args.mask_out = stem + ".mask" + (ext or ".hsic")
    fileio.write_cube(args.mask_out, op.shifted_mask.data)
    print(f"measurement {y.shape[0]}x{y.shape[1]} -> {args.out}")
    print(f"sheared mask {op.h}x{op.wp}x{op.n_bands} -> {args.mask_out}")
    return EXIT_OK


def _operator_from_mask_file(path: str, step: int, bands: int | None,
                             y_shape: tuple) -> SensingOperator:
    cube = fileio.read_cube(path)
    if cube.shape[2] == 1:
        if bands is None:
            raise ParameterError("--bands is required with a single-plane mask file")
        # checked before from_mask builds the H x W' x bands stack, which a wrong
        # --bands can make terabytes large; from_mask rejects bands < 1 and step < 0
        op_shape = (cube.shape[0], cube.shape[1] + step * (bands - 1))
        if bands >= 1 and step >= 0 and op_shape != y_shape:
            raise ShapeError(f"measurement {y_shape} does not match operator {op_shape}")
        return SensingOperator.from_mask(Mask2D(Tensor(cube[:, :, 0])), bands, step)
    if bands is not None and bands != cube.shape[2]:
        raise ShapeError(f"--bands {bands} does not match the mask stack's {cube.shape[2]} bands")
    # sheared stack written by `simulate`; support structure revalidated here
    return SensingOperator(Tensor(cube), step)


def _check_arch_flags(args: argparse.Namespace, params: ParamStore | None) -> None:
    """Each architecture flag that is set must equal the checkpoint's value."""
    given = {key: getattr(args, key) for key in ARCH_FLAGS if getattr(args, key) is not None}
    if not given:
        return
    if args.denoiser != "lnlt":
        raise ParameterError(f"--{next(iter(given))} applies only to --denoiser lnlt, "
                             f"whose checkpoint defines the architecture")
    w = params.scope("lnlt")
    stored = {"channels": w.ranked("embed.w", 4).shape[3],
              "blocks": section_blocks(w, "enc1"),
              "window": attention_layout(w.scope("enc1.0.local"))[1],
              "grid": attention_layout(w.scope("enc1.0.nonlocal"))[1]}
    for key, value in given.items():
        if value != stored[key]:
            raise ShapeError(f"--{key} {value} does not match the checkpoint's {stored[key]}")


def cmd_reconstruct(args: argparse.Namespace) -> int:
    y_arr = fileio.read_cube(args.measurement)
    if y_arr.shape[2] != 1:
        raise ShapeError(f"measurement must be a single plane, got {y_arr.shape[2]}")
    y = Measurement(Tensor(y_arr[:, :, 0]))
    op = _operator_from_mask_file(args.mask, args.step, args.bands, y.shape)
    if y.shape != op.measurement_shape:
        raise ShapeError(f"measurement {y.shape} does not match operator {op.measurement_shape}")

    cfg = ReconConfig(stages=args.stages, denoiser=args.denoiser, use_den=args.use_den)
    params = None
    if args.use_den or args.denoiser == "lnlt":
        if args.params is None:
            raise MissingParamsError("learned components need --params CHECKPOINT")
        params = fileio.read_params(args.params)
    elif args.params is not None:
        raise ParameterError("--params applies only to --denoiser lnlt or --use-den true, "
                             "which read weights")
    _check_arch_flags(args, params)
    truth = HsiCube(Tensor(fileio.read_cube(args.truth))) if args.truth else None

    # inference only: without no_grad the shared learned weights (loaded with
    # requires_grad=True) would keep every stage's backward graph alive
    with no_grad():
        result = run_hqs(y, op, cfg, params=params, truth=truth)
    z = result.z.data.data  # read in place
    fileio.write_cube(args.out, z)
    print(f"reconstruction {op.h}x{op.w}x{op.n_bands} -> {args.out}")
    if args.trace:
        _write_text(args.trace, trace_csv(result))
        print(f"trace -> {args.trace}")
    if truth is not None:
        # the metrics read float64: the learned route's float32 cube widens once, not per metric
        z, t = z.astype(np.float64, copy=False), truth.data.data
        psnr = metrics.psnr(z, t)  # checks the shapes before SSIM reads the extents
        # SSIM's window does not fit a scene under SSIM_WINDOW pixels on a side
        fits = min(z.shape[:2]) >= metrics.SSIM_WINDOW
        ssim = f"{metrics.ssim(z, t):.5f}" if fits else "n/a"
        print(f"psnr {psnr:.4f} dB  ssim {ssim}  sam {metrics.sam(z, t):.4f} deg")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    truth = HsiCube(Tensor(fileio.read_cube(args.truth)))
    h, w, n_bands = truth.shape
    op = SensingOperator.from_mask(random_binary_mask(h, w, args.mask_seed), n_bands, args.step)
    arch = LnltConfig(base_channels=args.channels, blocks_per_level=args.blocks,
                      local_window=args.window, nonlocal_grid=args.grid)
    params = init_pipeline_params(n_bands, arch, args.seed)
    rcfg = ReconConfig(stages=args.stages, denoiser="lnlt", use_den=True)
    tcfg = TrainConfig(steps=args.steps, lr=args.lr, warmup_steps=args.warmup)
    result = train_overfit(truth, op, params, tcfg, rcfg)
    fileio.write_params(args.out, result.params)
    print(f"params ({result.params.n_values} values) -> {args.out}")
    print(f"loss {result.first_loss:.6g} -> {result.last_loss:.6g} over {args.steps} steps")
    if args.curve:
        _write_text(args.curve, curve_csv(result.curve))
        print(f"curve -> {args.curve}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(args.level)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


def cmd_phantom(args: argparse.Namespace) -> int:
    cube = generate_phantom(args.height, args.width, args.bands, seed=args.seed)
    fileio.write_cube(args.out, cube.numpy())
    print(f"phantom {args.height}x{args.width}x{args.bands} -> {args.out}")
    return EXIT_OK


def init_pipeline_params(n_bands: int, cfg: LnltConfig, seed: int) -> ParamStore:
    """Fresh estimator + denoiser weights in one store (single PCG64 stream),
    drawn in float64 and held in float32, the learned route's precision."""
    store = ParamStore()
    init = Initializer(store, seed)
    register_den_params(init, n_bands)
    register_lnlt_params(init, cfg, n_bands)
    for _, t in store.items():
        t.data = t.data.astype(np.float32)  # finite draws in [-1, 1] round to finite values
    return store


def _add_settings(parser: argparse.ArgumentParser, command: str, **helps: str) -> None:
    """One flag per entry of SETTINGS[command], then `--config`; a flag not
    given stays None for `_apply_config`."""
    for key, kind, _, choices in SETTINGS[command]:
        parser.add_argument("--" + key.replace("_", "-"), type=_bool_flag if kind is bool else kind,
                            choices=choices, help=helps.get(key))
    parser.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cassikit",
                                     description="CASSI simulation and HQS reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a measurement from a truth cube")
    p_sim.add_argument("--truth", required=True)
    p_sim.add_argument("--mask", default=None, help="single-plane mask container")
    p_sim.add_argument("--out", required=True)
    _add_settings(p_sim, "simulate")
    p_sim.set_defaults(fn=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a cube from a measurement")
    p_rec.add_argument("--measurement", required=True)
    p_rec.add_argument("--mask", required=True,
                       help="sheared mask stack from simulate, or single-plane mask with --bands")
    p_rec.add_argument("--params", default=None)
    p_rec.add_argument("--truth", default=None)
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--trace", default=None)
    _add_settings(p_rec, "reconstruct", **dict.fromkeys(
        ARCH_FLAGS, "checked against the checkpoint, which defines the architecture"))
    p_rec.set_defaults(fn=cmd_reconstruct)

    p_tr = sub.add_parser("train", help="overfit the learned pipeline on one patch")
    p_tr.add_argument("--truth", required=True)
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--curve", default=None)
    _add_settings(p_tr, "train")
    p_tr.set_defaults(fn=cmd_train)

    p_st = sub.add_parser("selftest", help="run the verification battery")
    p_st.add_argument("--level", choices=("quick", "full"), default="quick")
    p_st.set_defaults(fn=cmd_selftest)

    p_ph = sub.add_parser("phantom", help="write a synthetic truth cube")
    p_ph.add_argument("--height", type=int, default=64)
    p_ph.add_argument("--width", type=int, default=64)
    p_ph.add_argument("--bands", type=int, default=8)
    p_ph.add_argument("--seed", type=int, default=0)
    p_ph.add_argument("--out", required=True)
    p_ph.set_defaults(fn=cmd_phantom)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        # non-finite results already raise NumericalError (tensor._check_finite);
        # numpy's RuntimeWarning would only repeat them on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (CassikitError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy's message names the shape and the dtype
            exc = OutOfMemoryError(f"{args.command} ran out of memory: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
