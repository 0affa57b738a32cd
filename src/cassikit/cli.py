"""Command-line interface.

Subcommands:
  simulate     make a measurement (and the sheared mask stack) from a truth cube
  reconstruct  run the HQS loop on a measurement
  train        overfit the learned pipeline on one truth patch
  selftest     run the built-in verification battery
  phantom      write a synthetic truth cube

Exit codes:
  0  success
  1  selftest failure
  2  file/argument format error (and any other CassikitError)
  3  shape or structural mismatch
  4  missing dependency (e.g. learned denoiser without a checkpoint)
  5  training divergence
  6  numerical failure (NaN/Inf or a degenerate denominator)
  7  internal error (any exception that is not a CassikitError)
  8  undefined metric (e.g. SAM against a truth cube with no non-zero
     spectrum); the reconstruction is already written

`simulate`, `reconstruct` and `train` accept `--config FILE` with
`key = value` lines (# comments allowed); precedence is command line >
config file > built-in defaults.  `selftest` and `phantom` take flags only.
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
from .errors import (CassikitError, DivergenceError, FormatError, MetricError,
                     MissingParamsError, NumericalError, OperatorError,
                     ParameterError, ShapeError)
from .hqs import ReconConfig, run_hqs, trace_csv
from .params import Initializer, ParamStore
from .phantom import generate_phantom
from .selftest import format_report, run_selftest
from .tensor import Tensor, no_grad
from .train import TrainConfig, curve_csv, train_overfit
from .transformer import (LnltConfig, attention_layout, register_lnlt_params,
                          section_blocks)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_FORMAT = 2
EXIT_SHAPE = 3
EXIT_MISSING_DEP = 4
EXIT_DIVERGED = 5
EXIT_NUMERICAL = 6
EXIT_INTERNAL = 7
EXIT_METRIC = 8


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
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return values


_MISSING = object()


def _resolve(args: argparse.Namespace, config: dict, key: str, default, cast):
    """command line > config file > default."""
    raw = config.pop(key, _MISSING)
    cli_val = getattr(args, key)
    if cli_val is not None:
        return cli_val
    if raw is not _MISSING:
        try:
            if cast is bool:
                if raw.lower() not in ("true", "false"):
                    raise ValueError(raw)
                return raw.lower() == "true"
            return cast(raw)
        except ValueError as exc:
            raise FormatError(f"config value {key} = {raw!r} is not a valid {cast.__name__}") from exc
    return default


def _bool_flag(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true/false, got {raw!r}")
    return raw.lower() == "true"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _build_operator(mask_path: str | None, mask_seed: int, like_h: int, like_w: int,
                    n_bands: int, step: int) -> SensingOperator:
    if mask_path is None:
        mask = random_binary_mask(like_h, like_w, mask_seed)
    else:
        mask = Mask2D(Tensor(fileio.read_plane(mask_path)))
    return SensingOperator.from_mask(mask, n_bands, step)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config) if args.config else {}
    step = _resolve(args, config, "step", 2, int)
    noise = _resolve(args, config, "noise", "none", str)
    bits = _resolve(args, config, "bits", 11, int)
    seed = _resolve(args, config, "seed", 0, int)
    mask_seed = _resolve(args, config, "mask_seed", 0, int)
    mask_out = _resolve(args, config, "mask_out", None, str)
    if config:
        raise FormatError(f"unknown config keys: {sorted(config)}")
    if noise not in ("none", "shot"):
        raise ParameterError(f"unknown noise kind {noise!r}")

    truth = HsiCube(Tensor(fileio.read_cube(args.truth)))
    h, w, n_bands = truth.shape
    op = _build_operator(args.mask, mask_seed, h, w, n_bands, step)
    y = forward_measure(truth, op).data.data
    if noise == "shot":
        y = apply_shot_noise(y, bits, seed)
    fileio.write_cube(args.out, y)
    if mask_out is None:
        stem, ext = os.path.splitext(args.out)
        mask_out = stem + ".mask" + (ext or ".hsic")
    fileio.write_cube(mask_out, op.shifted_mask.data)
    print(f"measurement {y.shape[0]}x{y.shape[1]} -> {args.out}")
    print(f"sheared mask {op.h}x{op.wp}x{op.n_bands} -> {mask_out}")
    return EXIT_OK


def _operator_from_mask_file(path: str, step: int, bands: int | None) -> SensingOperator:
    cube = fileio.read_cube(path)
    if cube.shape[2] == 1:
        if bands is None:
            raise ParameterError("--bands is required with a single-plane mask file")
        return SensingOperator.from_mask(Mask2D(Tensor(cube[:, :, 0])), bands, step)
    # sheared stack written by `simulate`; support structure revalidated here
    return SensingOperator(Tensor(cube), step)


# `reconstruct` reads the architecture from the checkpoint.  These flags only
# assert it; they stay until the benchmark stops passing them (bench/run.py
# gives them on train_32), then they go.
ARCH_FLAGS = ("channels", "blocks", "window", "grid")


def _check_arch_flags(flags: dict, denoiser: str, params: ParamStore | None) -> None:
    """Each architecture flag that is set must equal the checkpoint's value."""
    given = {key: value for key, value in flags.items() if value is not None}
    if not given:
        return
    if denoiser != "lnlt":
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
    config = parse_config_file(args.config) if args.config else {}
    stages = _resolve(args, config, "stages", 9, int)
    denoiser = _resolve(args, config, "denoiser", "tv", str)
    use_den = _resolve(args, config, "use_den", False, bool)
    init_mode = _resolve(args, config, "init", "normalized-adjoint", str)
    step = _resolve(args, config, "step", 2, int)
    bands = _resolve(args, config, "bands", None, int)
    arch_flags = {key: _resolve(args, config, key, None, int) for key in ARCH_FLAGS}
    if config:
        raise FormatError(f"unknown config keys: {sorted(config)}")

    y_arr = fileio.read_cube(args.measurement)
    if y_arr.shape[2] != 1:
        raise ShapeError(f"measurement must be a single plane, got {y_arr.shape[2]}")
    y = Measurement(Tensor(y_arr[:, :, 0]))
    op = _operator_from_mask_file(args.mask, step, bands)
    if y.shape != op.measurement_shape:
        raise ShapeError(f"measurement {y.shape} does not match operator {op.measurement_shape}")

    cfg = ReconConfig(stages=stages, denoiser=denoiser, use_den=use_den, init=init_mode)
    params = None
    if use_den or denoiser == "lnlt":
        if args.params is None:
            raise MissingParamsError("learned components need --params CHECKPOINT")
        params = fileio.read_params(args.params)
    _check_arch_flags(arch_flags, denoiser, params)
    truth = HsiCube(Tensor(fileio.read_cube(args.truth))) if args.truth else None

    # inference only: without no_grad the shared learned weights (loaded with
    # requires_grad=True) would keep every stage's backward graph alive
    with no_grad():
        result = run_hqs(y, op, cfg, params=params, truth=truth)
    z = result.z.data.data  # read in place: the report step copies no cube
    fileio.write_cube(args.out, z)
    print(f"reconstruction {op.h}x{op.w}x{op.n_bands} -> {args.out}")
    if truth is not None:
        t = truth.data.data
        print(f"psnr {metrics.psnr(z, t):.4f} dB  ssim {metrics.ssim(z, t):.5f}  "
              f"sam {metrics.sam(z, t):.4f} deg")
    if args.trace:
        _write_text(args.trace, trace_csv(result))
        print(f"trace -> {args.trace}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = parse_config_file(args.config) if args.config else {}
    stages = _resolve(args, config, "stages", 3, int)
    steps = _resolve(args, config, "steps", 500, int)
    lr = _resolve(args, config, "lr", 4e-4, float)
    warmup = _resolve(args, config, "warmup", 10, int)
    seed = _resolve(args, config, "seed", 0, int)
    mask_seed = _resolve(args, config, "mask_seed", 0, int)
    step = _resolve(args, config, "step", 2, int)
    channels = _resolve(args, config, "channels", 8, int)
    blocks = _resolve(args, config, "blocks", 1, int)
    window = _resolve(args, config, "window", 4, int)
    grid = _resolve(args, config, "grid", 4, int)
    if config:
        raise FormatError(f"unknown config keys: {sorted(config)}")

    truth = HsiCube(Tensor(fileio.read_cube(args.truth)))
    h, w, n_bands = truth.shape
    op = _build_operator(None, mask_seed, h, w, n_bands, step)
    arch = LnltConfig(base_channels=channels, blocks_per_level=blocks,
                      local_window=window, nonlocal_grid=grid)
    params = init_pipeline_params(n_bands, arch, seed)
    rcfg = ReconConfig(stages=stages, denoiser="lnlt", use_den=True)
    tcfg = TrainConfig(steps=steps, lr=lr, warmup_steps=warmup)
    result = train_overfit(truth, op, params, tcfg, rcfg)
    fileio.write_params(args.out, result.params)
    print(f"params ({result.params.n_values} values) -> {args.out}")
    print(f"loss {result.first_loss:.6g} -> {result.last_loss:.6g} over {steps} steps")
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
    """Fresh estimator + denoiser weights in one store (single PCG64 stream)."""
    store = ParamStore()
    init = Initializer(store, seed)
    register_den_params(init, n_bands)
    register_lnlt_params(init, cfg, n_bands)
    return store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cassikit",
                                     description="CASSI simulation and HQS reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a measurement from a truth cube")
    p_sim.add_argument("--truth", required=True)
    p_sim.add_argument("--mask", default=None, help="single-plane mask container")
    p_sim.add_argument("--mask-seed", type=int, default=None, dest="mask_seed")
    p_sim.add_argument("--step", type=int, default=None)
    p_sim.add_argument("--noise", choices=("none", "shot"), default=None)
    p_sim.add_argument("--bits", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--mask-out", default=None, dest="mask_out")
    p_sim.add_argument("--config", default=None)
    p_sim.set_defaults(fn=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a cube from a measurement")
    p_rec.add_argument("--measurement", required=True)
    p_rec.add_argument("--mask", required=True,
                       help="sheared mask stack from simulate, or single-plane mask with --bands")
    p_rec.add_argument("--stages", type=int, default=None)
    p_rec.add_argument("--denoiser", choices=("identity", "tv", "lnlt"), default=None)
    p_rec.add_argument("--use-den", type=_bool_flag, default=None, dest="use_den")
    p_rec.add_argument("--init", choices=("adjoint", "normalized-adjoint"), default=None)
    p_rec.add_argument("--params", default=None)
    p_rec.add_argument("--truth", default=None)
    p_rec.add_argument("--step", type=int, default=None)
    p_rec.add_argument("--bands", type=int, default=None)
    for key in ARCH_FLAGS:
        p_rec.add_argument(f"--{key}", type=int, default=None,
                           help="checked against the checkpoint, which defines the architecture")
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--trace", default=None)
    p_rec.add_argument("--config", default=None)
    p_rec.set_defaults(fn=cmd_reconstruct)

    p_tr = sub.add_parser("train", help="overfit the learned pipeline on one patch")
    p_tr.add_argument("--truth", required=True)
    p_tr.add_argument("--stages", type=int, default=None)
    p_tr.add_argument("--steps", type=int, default=None)
    p_tr.add_argument("--lr", type=float, default=None)
    p_tr.add_argument("--warmup", type=int, default=None)
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--mask-seed", type=int, default=None, dest="mask_seed")
    p_tr.add_argument("--step", type=int, default=None)
    p_tr.add_argument("--channels", type=int, default=None)
    p_tr.add_argument("--blocks", type=int, default=None)
    p_tr.add_argument("--window", type=int, default=None)
    p_tr.add_argument("--grid", type=int, default=None)
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--curve", default=None)
    p_tr.add_argument("--config", default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # non-finite results already raise NumericalError (tensor._check_finite);
        # numpy's RuntimeWarning would only repeat them on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (FormatError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ShapeError, OperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except MissingParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DEP
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except CassikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
