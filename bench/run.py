"""cassikit benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tv_256 --seed 1 --seconds 40 --trace 0

Run it from anywhere; it finds the package in `src/` next to `bench/`.
`--trace 0` runs the workload's commands as `python -m cassikit ...`
child processes, one at a time, and reports the end-to-end metrics listed
in BENCHMARK.json.  `--trace 1` runs rounds (at least two) in which each
command runs once untraced and once through `cassikit.cli.main` under spans
(spans.py), each in a fresh process, and reports the per-layer metrics.  Both modes check every output; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MB = float(1 << 20)

SETUP_MIN_REPEATS = 5    # setup_s is the median of at least this many set-ups,
SETUP_MIN_S = 1.5        # and of enough to take this long
MIN_ITERATIONS = 2       # passes, so outputs can be compared across repeats
COMMAND_MIN_S = 2.0      # within a pass, rerun shorter commands up to this total
RUN_LIMIT_S = 150.0      # start no iteration that would end past this
DEADLINE_S = 170.0       # kill a command still running this long after start
STARTED = time.perf_counter()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple            # truth cube (H, W, bands)
    noise: bool             # 11-bit shot noise in `simulate`
    recon_args: tuple       # `reconstruct` flags besides the files
    train_steps: int = 0    # > 0: `train` runs between simulate and reconstruct
    checkpoint: bool = False  # draw a checkpoint in set-up (CLI default architecture)


# train_32's architecture, shared by `train` and `reconstruct`
SMALL_ARCH = ("--stages", "3", "--channels", "8", "--window", "4", "--grid", "4")
STEP = 2

WORKLOADS = {w.name: w for w in [
    Workload("tv_256", (256, 256, 28), noise=True,
             recon_args=("--denoiser", "tv", "--stages", "9")),
    Workload("learned_64", (64, 64, 28), noise=True, checkpoint=True,
             recon_args=("--denoiser", "lnlt", "--use-den", "true", "--stages", "3")),
    Workload("train_32", (32, 32, 4), noise=False, train_steps=20,
             recon_args=("--denoiser", "lnlt", "--use-den", "true", *SMALL_ARCH)),
]}


def _seeds(seed: int) -> dict:
    """Independent PCG64 seeds for each generated input, from the workload seed."""
    return {"phantom": seed, "mask": seed + 1, "noise": seed + 2, "params": seed + 3}


def setup_inputs(wl: Workload, seed: int, work: Path) -> None:
    """Write truth.hsic, mask.hsic and (learned_64) ckpt.dprm into `work`."""
    from cassikit import cassi, cli, fileio, phantom
    s = _seeds(seed)
    h, w, n = wl.shape
    truth = phantom.generate_phantom(h, w, n, seed=s["phantom"])
    fileio.write_cube(str(work / "truth.hsic"), truth.numpy())
    mask = cassi.random_binary_mask(h, w, s["mask"])
    fileio.write_cube(str(work / "mask.hsic"), mask.data.data)
    if wl.checkpoint:
        from cassikit.hqs import LnltSettings
        store = cli.init_pipeline_params(n, LnltSettings(), s["params"])
        fileio.write_params(str(work / "ckpt.dprm"), store)


def commands(wl: Workload, seed: int, work: Path) -> list:
    """[(label, argv)] for one pass of the workload, argv without the program."""
    s = _seeds(seed)
    f = {k: str(work / v) for k, v in [
        ("truth", "truth.hsic"), ("mask", "mask.hsic"), ("meas", "meas.hsic"),
        ("smask", "meas.mask.hsic"), ("recon", "recon.hsic"), ("trace", "trace.csv"),
        ("ckpt", "ckpt.dprm"), ("weights", "weights.dprm"), ("curve", "curve.csv")]}
    sim = ["simulate", "--truth", f["truth"], "--mask", f["mask"], "--step", str(STEP),
           "--out", f["meas"]]
    if wl.noise:
        sim += ["--noise", "shot", "--bits", "11", "--seed", str(s["noise"])]
    cmds = [("simulate", sim)]
    rec = ["reconstruct", "--measurement", f["meas"], "--mask", f["smask"], "--step", str(STEP),
           *wl.recon_args, "--truth", f["truth"], "--out", f["recon"], "--trace", f["trace"]]
    if wl.train_steps:
        cmds.append(("train", ["train", "--truth", f["truth"], *SMALL_ARCH, "--step", str(STEP),
                               "--steps", str(wl.train_steps), "--seed", str(s["params"]),
                               "--mask-seed", str(s["mask"]), "--out", f["weights"],
                               "--curve", f["curve"]]))
        rec += ["--params", f["weights"]]
    elif wl.checkpoint:
        rec += ["--params", f["ckpt"]]
    cmds.append(("reconstruct", rec))
    return cmds


# End-to-end figures reported in `info` and on the metric lines, but not in
# the result's `metrics`: each lacks a value on some workload or is 0 when
# all is well (see README.md).
INFO_UNITS = {"train_s": "s", "psnr_db": "dB", "loss_ratio": "ratio", "fail_ratio": "ratio"}

OUTPUT_FILES = ("meas.hsic", "meas.mask.hsic", "recon.hsic", "trace.csv", "weights.dprm",
                "curve.csv")


# ---------------------------------------------------------------------------
# output checks (independent of cassikit's own readers)
# ---------------------------------------------------------------------------

def read_hsic(path: Path):
    import numpy as np
    blob = path.read_bytes()
    if blob[:4] != b"HSIC":
        raise ValueError(f"{path.name}: bad magic")
    _, h, w, c = struct.unpack("<IIII", blob[4:20])
    if len(blob) != 20 + 4 * h * w * c:
        raise ValueError(f"{path.name}: payload length")
    return np.frombuffer(blob, dtype="<f4", offset=20).reshape(c, h, w).transpose(1, 2, 0)


def psnr_db(a, b) -> float:
    import numpy as np
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return 99.0 if mse == 0.0 else min(99.0, 10.0 * float(np.log10(1.0 / mse)))


def csv_column(path: Path, column: str) -> list:
    """Floats of one column; an empty cell reads as NaN."""
    lines = path.read_text().strip().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(row.split(",")[idx] or "nan") for row in lines[1:]]


def file_digests(work: Path) -> dict:
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES if (work / name).exists()}


class Tally:
    """Attempted and failed commands and checks; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name} {detail}", file=sys.stderr)
        return ok


def check_outputs(wl: Workload, work: Path, stdout: dict, tally: Tally) -> dict:
    """Run the workload's correctness gates; return the quality figures."""
    import numpy as np
    h, w, n = wl.shape
    out = {}
    try:
        meas = read_hsic(work / "meas.hsic")
        truth = read_hsic(work / "truth.hsic")
        recon = read_hsic(work / "recon.hsic")
        stage0_psnr = csv_column(work / "trace.csv", "psnr_vs_truth")[0]
        losses = csv_column(work / "curve.csv", "loss") if wl.train_steps else []
    except (OSError, ValueError, IndexError) as exc:
        tally.check("read_outputs", False, str(exc))
        return out
    tally.check("measurement_shape", meas.shape == (h, w + STEP * (n - 1), 1),
                f"{meas.shape}")
    tally.check("recon_shape", recon.shape == truth.shape, f"{recon.shape}")
    tally.check("recon_finite", bool(np.isfinite(recon).all()))
    if recon.shape != truth.shape:
        return out
    out["psnr_db"] = psnr_db(recon, truth)
    printed = re.search(r"psnr ([-0-9.eE+]+) dB", stdout.get("reconstruct", ""))
    tally.check("psnr_matches_cli", printed is not None
                and abs(float(printed.group(1)) - out["psnr_db"]) < 0.01,
                f"cli {printed and printed.group(1)} vs {out['psnr_db']:.4f}")
    if wl.name == "tv_256":
        tally.check("psnr_above_stage0", out["psnr_db"] > stage0_psnr,
                    f"{out['psnr_db']:.4f} <= {stage0_psnr}")
    if wl.train_steps:
        ok = len(losses) == wl.train_steps and all(np.isfinite(losses))
        tally.check("losses_finite", ok, f"{len(losses)} rows")
        if ok:
            tally.check("loss_decreased", losses[-1] < losses[0], f"{losses[0]} -> {losses[-1]}")
            out["loss_ratio"] = losses[0] / losses[-1]
    return out


def check_repeat(digests: dict, reference: dict | None, tally: Tally, what: str) -> None:
    if reference is not None:
        diff = sorted(k for k in reference if digests.get(k) != reference[k])
        tally.check(f"identical_outputs_{what}", not diff, f"differ: {diff}")


# ---------------------------------------------------------------------------
# untraced mode: one child process per command
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(argv: list, work: Path, env: dict, program=("-m", "cassikit")) -> tuple:
    """Run `python <program> argv`; return (exit code, wall s, peak RSS MB, stdout)."""
    out_path = work / "stdout.txt"
    with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, DEADLINE_S - (t0 - STARTED)), proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:      # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((work / "stderr.txt").read_text())
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()


def time_setup(wl: Workload, seed: int, work: Path) -> tuple:
    """Set up at least SETUP_MIN_REPEATS times and for SETUP_MIN_S.

    Returns (median seconds, number of set-ups)."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        setup_inputs(wl, seed, work)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def run_untraced(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """Repeat the workload's commands for up to `seconds` (at least MIN_ITERATIONS passes).

    Within a pass, a command shorter than COMMAND_MIN_S runs again until its
    runs add up to COMMAND_MIN_S, so short commands get enough samples.
    """
    setup_s, setups = time_setup(wl, seed, work)
    env = child_env()
    walls: dict = {}        # label -> wall seconds of every run
    rss: dict = {}          # label -> peak RSS MB of every run
    quality: list = []      # per pass: {"psnr_db": ..., "loss_ratio": ...}
    reference = None
    start = time.perf_counter()
    while True:
        pass_start, stdout = time.perf_counter(), {}
        for label, argv in commands(wl, seed, work):
            spent = 0.0
            while spent < COMMAND_MIN_S:
                code, wall, peak, stdout[label] = run_child(argv, work, env)
                if not tally.check(f"{label}_exit_0", code == 0, f"exit {code}"):
                    return {}
                walls.setdefault(label, []).append(wall)
                rss.setdefault(label, []).append(peak)
                spent += wall
        quality.append(check_outputs(wl, work, stdout, tally))
        digests = file_digests(work)
        check_repeat(digests, reference, tally, "across_repeats")
        reference = reference or digests
        # stop before a pass that would end past `seconds` (or RUN_LIMIT_S)
        now = time.perf_counter()
        next_end = now - start + (now - pass_start)
        if next_end > RUN_LIMIT_S or (len(quality) >= MIN_ITERATIONS and next_end > seconds):
            break
    tally.check("passes_repeated", len(quality) >= MIN_ITERATIONS, f"{len(quality)} passes")

    med = {label: statistics.median(v) for label, v in walls.items()}
    metrics = {
        "setup_s": setup_s,
        "simulate_s": med["simulate"],
        "reconstruct_s": med["reconstruct"],
        "pipeline_s": sum(med.values()),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
    }
    info = {"passes": len(quality), "setups": setups,
            "runs": {k: len(v) for k, v in walls.items()}}
    if wl.train_steps:
        info["train_s"] = med["train"]
    for key in ("psnr_db", "loss_ratio"):
        values = [q[key] for q in quality if key in q]
        if values:
            info[key] = statistics.median(values)
    return {"metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# traced mode: each command in its own process, through cassikit.cli.main
# ---------------------------------------------------------------------------

def run_traced(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally,
               names: list) -> dict:
    """Rounds for up to `seconds` (at least two); in each, every command runs
    untraced and then traced.

    The traced worker (spans.py) calls `cassikit.cli.main` in a fresh process,
    like the untraced `python -m cassikit`, so both start cold.  Set-up runs
    traced in this process.
    """
    from spans import Tracer
    env = child_env()
    tracers, plain_walls, traced_walls = [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            setup_inputs(wl, seed, work)
        finally:
            tracer.uninstall()
        plain = traced = 0.0
        stdout = {}
        for label, argv in commands(wl, seed, work):
            code, wall, _, _ = run_child(argv, work, env)
            if not tally.check(f"{label}_exit_0", code == 0, f"exit {code}"):
                return {}
            plain += wall
            untraced_digests = file_digests(work)
            dump = work / "spans.json"
            code, wall, _, stdout[label] = run_child(argv, work, env,
                                                     (str(HERE / "spans.py"), str(dump)))
            if not tally.check(f"{label}_traced_exit_0", code == 0, f"exit {code}"):
                return {}
            traced += wall
            tracer.absorb(json.loads(dump.read_text()))
            check_repeat(file_digests(work), untraced_digests, tally, f"traced_{label}")
        check_outputs(wl, work, stdout, tally)
        digests = file_digests(work)
        check_repeat(digests, reference, tally, "across_rounds")
        reference = reference or digests
        tracers.append(tracer)
        plain_walls.append(plain)
        traced_walls.append(traced)
        if len(tracers) > 1:
            first, last = tracers[0].counts(), tracer.counts()
            diff = sorted(k for k in first.keys() | last.keys() if first.get(k) != last.get(k))
            tally.check("exact_counts_repeat", not diff, f"differ: {diff[:8]}")
        now = time.perf_counter()
        next_end = now - start + (now - round_start)
        if next_end > RUN_LIMIT_S or (len(tracers) >= MIN_ITERATIONS and next_end > seconds):
            break
    tally.check("rounds_repeated", len(tracers) >= MIN_ITERATIONS, f"{len(tracers)} rounds")
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif name.endswith((".s", ".self_s")):
            metrics[name] = statistics.median(t.value(name) for t in tracers)
        else:       # exact quantities, equal in every round
            metrics[name] = tracers[0].value(name)
    return {"metrics": metrics,
            "info": {"untraced_commands_s": plain_walls, "traced_commands_s": traced_walls}}


# ---------------------------------------------------------------------------
# environment record and entry point
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD from .git without running git (the checkout may not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_ENV,
            "git_commit": git_commit(), "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the `finally` blocks that stop the child
    # and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cassikit" / "__init__.py").is_file():
        print(f"error: no cassikit package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    wl = WORKLOADS[args.workload]

    print(json.dumps({"environment": environment()}))
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.trace:
            result = run_traced(wl, args.seed, args.seconds, work, tally, list(units))
        else:
            result = run_untraced(wl, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    values = result.get("metrics", {})
    missing = [name for name in units if name not in values]
    if missing:
        tally.check("all_metrics_measured", False, f"missing {missing}")
    info = dict(result.get("info", {}))
    info["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    shown = {**{k: (values[k], unit) for k, unit in units.items() if k in values},
             **{k: (v, INFO_UNITS[k]) for k, v in info.items() if k in INFO_UNITS}}
    for name, (value, unit) in shown.items():
        print(f"{wl.name:<11} {name:<32} {value:>14.6g} {unit}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
