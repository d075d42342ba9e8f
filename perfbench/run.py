#!/usr/bin/env python3
"""evsynth benchmark: named workloads run through the evsynth CLI.

    python3 perfbench/run.py --workload synth-mixed-64 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

--trace 0 repeats passes for --seconds; a pass runs every command of the
workload once, each in its own ``python3 -m evsynth.cli`` process, so
interpreter start-up, imports and the BLAS/worker thread policy all count.
It reports the end-to-end metrics.  --trace 1 runs one such pass, then the
same commands in-process through ``evsynth.cli.main``, untraced and then with
the timing wrappers of tracer.py installed, and reports the per-layer
metrics.  Every command's outputs are checked after each pass.

Workloads, their exact commands, sizes and metric definitions live in
workloads.json beside this file; BENCHMARK.json at the checkout root lists
the metrics a result line carries.  The last line printed is one JSON object
with the keys correct, attempted, failed and metrics.  The package is taken
from src/ of the checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import pkgutil
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0      # a run at the benchmark's run_seconds ends within 180 s
SETUP_FIRST = 3         # set-ups before the first pass ...
SETUP_PER_PASS = 2      # ... and after each pass, so the median spans the run
BAND_ROWS = 8           # simulate check: top rows re-simulated at --workers 1
SAMPLE_PIXELS = 32      # infer check: pixels compared with spikenet.forward

STAT = re.compile(r"^(\w+\.\w+)\.(calls|self_s|total_s|wall_s|busy_s|gflops_per_s)$")
# per-layer names that are 0 on a workload without the command, file or count
ZERO_IF_ABSENT = {"gen_s", "simulate_s", "infer_s", "eval_s", "emd_vs_ref",
                  "holdout_loss", "core.events", "formats.fseq_bytes",
                  "formats.evt1_bytes"}


class SetupError(Exception):
    pass


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# work counted by the traced run

def _conv_flops(batch, t_out, w):
    """2*B*T_out*C_in*C_out*k for a (C_out, C_in, k) kernel."""
    return 2 * batch * t_out * w.shape[0] * w.shape[1] * w.shape[2]


def _conv1d_flops(x, w, pad):
    pad = (w.shape[2] - 1) // 2 if pad is None else pad
    return _conv_flops(x.shape[0], x.shape[2] + 2 * pad - w.shape[2] + 1, w)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _file_bytes(key, path_index):
    def work(args, kwargs, _result):
        yield key, os.path.getsize(_arg(args, kwargs, path_index, "path"))
    return work


WORK = {
    "spikenet.conv1d": lambda a, kw, r: [(
        "spikenet.conv1d.flops", _conv1d_flops(a[0], a[1], _arg(a, kw, 3, "pad")))],
    # gy is (B, C_out, T_out); dw and dx each cost one forward
    "spikenet.conv1d_backward": lambda a, kw, r: [(
        "spikenet.conv1d_backward.flops", 2 * _conv_flops(a[0].shape[0], a[0].shape[2], a[2]))],
    "core.dense_to_sparse": lambda a, kw, r: [("core.events", len(r))],
    "core.sparse_to_dense": lambda a, kw, r: [("core.events", len(a[0]))],
    "formats.read_fseq": _file_bytes("formats.fseq_bytes", 0),
    "formats.write_fseq": _file_bytes("formats.fseq_bytes", 1),
    "formats.read_evt1": _file_bytes("formats.evt1_bytes", 0),
    "formats.write_evt1": _file_bytes("formats.evt1_bytes", 1),
}


# ---------------------------------------------------------------------------
# environment and workload expansion

def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def expand(spec: dict, wl: dict, seed: int, work: Path, tiny: bool) -> list[list[str]]:
    """The workload's commands with placeholders and seed flags filled in."""
    values = dict(wl["tiny" if tiny else "size"], work=work, nproc=nproc(),
                  ckpt=BENCH / spec["fixture"]["path"], seed=seed,
                  seed_plus_1=seed + 1, seed_plus_2=seed + 2)
    seed_flags = []
    for flag in spec["seed_sets"]["flags"]:
        seed_flags += ["--set", flag.format(**values)]
    return [[a.format(**values) for a in cmd] + seed_flags for cmd in wl["commands"]]


def _opt(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


# ---------------------------------------------------------------------------
# ops: every command and every output check counts once

class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, what: str, fn):
        """Run one output check; returns its value, or None if it failed."""
        try:
            value = fn()
        except Exception as exc:  # any failure of a check is a failed op
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.record(True, what)
        return value


class Checker:
    """Output checks for each CLI command, using the package under test."""

    def __init__(self, ev, size: dict, work: Path):
        self.ev = ev
        self.size = size
        self.work = work

    def frames(self) -> int:
        return int(round(self.size["duration"] * 1000.0))

    def run(self, argv: list[str], ops: Ops, quality: dict) -> None:
        getattr(self, "check_" + argv[0])(argv, ops, quality)

    def _fseq(self, path):
        f = self.ev.formats.read_fseq(path)
        want = (self.size["width"], self.size["height"], self.frames())
        if (f.width, f.height, f.n_frames) != want:
            raise CheckFailed(f"{path}: {(f.width, f.height, f.n_frames)} != {want}")
        return f

    def check_gen(self, argv, ops, quality):
        for flag in ("--out", "--noisy-out"):
            if _opt(argv, flag):
                ops.check(f"gen {flag} parses", lambda: self._fseq(_opt(argv, flag)))

    def _band(self, argv):
        ev = self.ev
        full = ev.formats.read_evt1(_opt(argv, "--out"))
        frames = ev.formats.read_fseq(argv[1])
        rows = min(BAND_ROWS, frames.height)
        band_in, band_out = self.work / "band.fseq", self.work / "band.evt1"
        ev.formats.write_fseq(ev.core.FrameSeq(frames.width, rows, frames.fps,
                                               frames.frames[:, :rows]), band_in)
        band_argv = list(argv)
        band_argv[1] = str(band_in)
        band_argv[band_argv.index("--out") + 1] = str(band_out)
        band_argv[band_argv.index("--workers") + 1] = "1"
        if ev.cli.main(band_argv) != 0:
            raise CheckFailed("band simulate exited non-zero")
        want = ev.formats.read_evt1(band_out).records
        got = full.records[full.records["y"] < rows]
        if not ev.np.array_equal(got, want):
            raise CheckFailed(f"top {rows} rows: {len(got)} events differ from "
                              f"the {len(want)} of a --workers 1 run on the band")

    def check_simulate(self, argv, ops, quality):
        ops.check("simulate output parses",
                  lambda: self.ev.formats.read_evt1(_opt(argv, "--out")))
        ops.check("simulate band matches --workers 1", lambda: self._band(argv))

    def _sample(self, argv):
        ev, np = self.ev, self.ev.np
        events = ev.formats.read_evt1(_opt(argv, "--out"))
        frames = ev.formats.read_fseq(argv[1])
        x = ev.luminance.log_diff_sequence(frames).pixel_sequences()
        got = ev.core.sparse_to_dense(events, frames.fps, x.shape[1]).pixel_sequences()
        idx = np.unique(np.linspace(0, x.shape[0] - 1, SAMPLE_PIXELS).astype(int))
        params, cfg = ev.spikenet.load_checkpoint(argv[2])
        want, _ = ev.spikenet.forward(x[idx], params, cfg, mode="hard")
        if not np.array_equal(got[idx], want):
            bad = int((got[idx] != want).any(axis=1).sum())
            raise CheckFailed(f"{bad} of {idx.size} sampled pixels differ from "
                              "spikenet.forward")

    def check_infer(self, argv, ops, quality):
        ops.check("infer output parses",
                  lambda: self.ev.formats.read_evt1(_opt(argv, "--out")))
        ops.check("infer sample matches spikenet.forward", lambda: self._sample(argv))

    def check_eval(self, argv, ops, quality):
        def parse():
            lines = Path(_opt(argv, "--out")).read_text().splitlines()
            rows = [line.split(",") for line in lines]
            keys = ["metric", "emd", "count_ratio", "pos_ratio", "neg_ratio", "pixels"]
            if [r[0] for r in rows] != keys or any(len(r) != 2 for r in rows):
                raise CheckFailed(f"eval.csv rows {[r[0] for r in rows]} != {keys}")
            values = {k: float(v) for k, v in rows[1:]}
            if not all(map(math.isfinite, values.values())):
                raise CheckFailed(f"eval.csv has non-finite values {values}")
            return values
        values = ops.check("eval csv columns", parse)
        if values:
            quality["emd_vs_ref"] = values["emd"]

    def check_hist(self, argv, ops, quality):
        def parse():
            lines = Path(_opt(argv, "--out")).read_text().splitlines()
            if lines[0] != "bucket,count" or len(lines) < 3:
                raise CheckFailed(f"hist.csv header {lines[0]!r}")
            for i, line in enumerate(lines[1:]):
                bucket, count = (int(v) for v in line.split(","))
                if bucket != i or count < 0:
                    raise CheckFailed(f"hist.csv row {line!r}")
        ops.check("hist csv columns", parse)

    def check_train(self, argv, ops, quality):
        out = Path(_opt(argv, "--out"))

        def history():
            lines = (out / "history.csv").read_text().splitlines()
            if lines[0] != "epoch,train_loss,holdout_loss" or len(lines) < 2:
                raise CheckFailed(f"history.csv header {lines[0]!r}")
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            if not all(math.isfinite(v) for row in rows for v in row):
                raise CheckFailed(f"history.csv has non-finite values {rows}")
            return rows[-1][2]
        holdout = ops.check("train history finite", history)
        if holdout is not None:
            quality["holdout_loss"] = holdout
        ops.check("train checkpoint loads",
                  lambda: self.ev.spikenet.load_checkpoint(out / "model.evsn"))


# ---------------------------------------------------------------------------
# passes

def child_env() -> dict:
    """The caller's environment plus PYTHONPATH=src; thread settings untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], deadline: float, log: Path):
    """Run one process to completion; returns (exit code, wall s, max RSS MB)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def process_pass(cmds, ops, deadline, log):
    walls, rss = [], []
    for argv in cmds:
        rc, wall, mb = run_process([sys.executable, "-m", "evsynth.cli", *argv],
                                   deadline, log)
        ops.record(rc == 0, f"{argv[0]} exited {rc} (stderr in {log})")
        walls.append(wall)
        rss.append(mb)
    return walls, max(rss)


def inprocess_pass(cmds, ops, cli_main):
    walls = []
    for argv in cmds:
        t0 = time.perf_counter()
        try:
            rc = cli_main(list(argv))
        except Exception as exc:  # a traceback is a failed command, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        ops.record(rc == 0, f"in-process {argv[0]} returned {rc}")
    return walls


def check_pass(cmds, checker, ops) -> dict:
    quality = {}
    for argv in cmds:
        checker.run(argv, ops, quality)
    return quality


def command_seconds(cmds, walls) -> dict:
    out = {}
    for argv, wall in zip(cmds, walls):
        out[argv[0] + "_s"] = out.get(argv[0] + "_s", 0.0) + wall
    return out


# ---------------------------------------------------------------------------
# set-up

def verify_fixture(spec) -> None:
    fx = spec["fixture"]
    digest = hashlib.sha256((BENCH / fx["path"]).read_bytes()).hexdigest()
    if digest != fx["sha256"]:
        raise SetupError(f"fixture {fx['path']} sha256 {digest} != {fx['sha256']} "
                         f"(recorded command: {fx['command']})")


def setup(spec, tiny_cmds, cli_main, reps: int) -> list[float]:
    """Time reps set-ups: verify the fixture, then run the workload's commands
    once at their tiny size in-process, which checks the pipeline end to end."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        verify_fixture(spec)
        for argv in tiny_cmds:
            if cli_main(list(argv)) != 0:
                raise SetupError(f"tiny {argv[0]} failed: {' '.join(argv)}")
        times.append(time.perf_counter() - t0)
    return times


class Package:
    """The evsynth modules of the checkout, plus numpy."""

    def __init__(self):
        if not (SRC / "evsynth" / "cli.py").is_file():
            raise SetupError(f"no evsynth package at {SRC}")
        sys.path.insert(0, str(SRC))
        import numpy
        import evsynth
        self.np = numpy
        self.package = evsynth
        self.modules = [importlib.import_module(f"evsynth.{m.name}")
                        for m in pkgutil.iter_modules(evsynth.__path__)]
        for mod in self.modules:
            setattr(self, mod.__name__.rsplit(".", 1)[-1], mod)
        self.layers = [m for m in self.modules
                       if m.__name__ not in ("evsynth.cli", "evsynth.errors")]


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(spec, wl, args, ev, work, log, deadline):
    """--trace 0: passes until --seconds is used up; end-to-end metrics."""
    tiny_cmds = expand(spec, wl, args.seed, work / "setup", tiny=True)
    setups = setup(spec, tiny_cmds, ev.cli.main, SETUP_FIRST)
    size = wl["tiny" if args.tiny else "size"]
    cmds = expand(spec, wl, args.seed, work, args.tiny)
    checker = Checker(ev, size, work)
    ops = Ops()
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls, rss = process_pass(cmds, ops, deadline, log)
        pass_s = time.perf_counter() - t0
        quality = check_pass(cmds, checker, ops)
        passes.append((pass_s, walls, rss, quality))
        setups += setup(spec, tiny_cmds, ev.cli.main, SETUP_PER_PASS)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    pass_s = median(p[0] for p in passes)
    per_cmd = [command_seconds(cmds, p[1]) for p in passes]
    gated = {"setup_s": median(setups),
             "pixel_ticks_per_s": size["pixel_ticks"] / pass_s,
             "peak_rss_mb": median(p[2] for p in passes)}
    scoped = {name: median(c[name] for c in per_cmd) for name in per_cmd[0]}
    scoped.update(passes[-1][3])
    scoped["error_rate"] = ops.failed / ops.attempted
    scoped["passes"] = len(passes)
    return ops, gated, scoped


def run_traced(spec, name, args, ev, work, log, deadline):
    """--trace 1: a process pass, then in-process untraced and traced passes."""
    wl = spec["workloads"][name]
    verify_fixture(spec)
    size = wl["tiny" if args.tiny else "size"]
    cmds = expand(spec, wl, args.seed, work, args.tiny)
    checker = Checker(ev, size, work)
    ops = Ops()

    proc_walls, _ = process_pass(cmds, ops, deadline, log)
    quality = check_pass(cmds, checker, ops)
    t0 = time.perf_counter()
    plain_walls = inprocess_pass(cmds, ops, ev.cli.main)
    plain_s = time.perf_counter() - t0
    check_pass(cmds, checker, ops)

    tracer = Tracer()
    with tracer.installed(ev.layers, [ev.package] + ev.modules, WORK,
                          spec["trace"]["pools"]):
        t0 = time.perf_counter()
        inprocess_pass(cmds, ops, tracer.span("cli.main", ev.cli.main))
        traced_s = time.perf_counter() - t0
    check_pass(cmds, checker, ops)
    tracer.write(OUT / "traces" / f"{name}-seed{args.seed}.json")

    agg = tracer.aggregate()
    extra = {
        "cli.startup_s": median(p - q for p, q in zip(proc_walls, plain_walls)),
        "trace.overhead_s": traced_s - plain_s,
        "train.step_s.p50": tracer.step_p50("spikenet.forward", "train.adam_step"),
        "error_rate": ops.failed / ops.attempted,
    }
    extra.update(tracer.counters)
    extra.update(command_seconds(cmds, proc_walls))
    extra.update(quality)
    metrics = {m["name"]: layer_value(m["name"], agg, extra)
               for m in spec["per_layer"]}
    return ops, metrics


def layer_value(name, agg, extra) -> float:
    if name in extra:
        return float(extra[name])
    if name in ZERO_IF_ABSENT:
        return 0.0
    match = STAT.match(name)
    if not match:
        raise KeyError(f"per-layer metric {name!r} has no definition")
    fn, stat = match.groups()
    a = agg.get(fn)
    if a is None:
        return 0.0
    if stat == "wall_s":
        return a["total_s"]
    if stat == "gflops_per_s":
        flops = extra.get(fn + ".flops", 0)
        return flops / a["self_s"] / 1e9 if a["self_s"] > 0 else 0.0
    return float(a[stat])


# ---------------------------------------------------------------------------

def load_spec() -> dict:
    spec = json.loads((BENCH / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer", "run_seconds"):
        spec[key] = bench[key]
    return spec


def run_one(spec, name, args, ev) -> None:
    wl = spec["workloads"][name]
    deadline = time.monotonic() + max(DEADLINE_S, 3 * args.seconds)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work.parent / f"stderr-{name}-{os.getpid()}.log"
    log.unlink(missing_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        if args.trace:
            ops, metrics = run_traced(spec, name, args, ev, work, log, deadline)
            report = metrics
        else:
            ops, metrics, scoped = run_untraced(spec, wl, args, ev, work, log, deadline)
            report = dict(metrics)
            report.update({k: v for k, v in scoped.items()
                           if k in wl["end_to_end"] or k == "passes"})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# {name} seed={args.seed} trace={args.trace} "
          f"attempted={ops.attempted} failed={ops.failed}")
    print("# env " + json.dumps(environment()))
    for key, value in report.items():
        print(f"# {key:40s} {value:.6g} {units.get(key, '')}")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}
    print(json.dumps(result), flush=True)
    if log.exists() and log.stat().st_size == 0:
        log.unlink()


def main(argv=None) -> int:
    try:
        spec = load_spec()
        spec_names = list(spec["workloads"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=spec_names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the workload at its tiny size (smoke check)")
    args = ap.parse_args(argv)
    try:
        ev = Package()
        names = spec_names if args.workload == "all" else [args.workload]
        for name in names:
            run_one(spec, name, args, ev)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
