"""Command-line front end: gen, simulate, train, infer, eval, hist.

Configuration is plain-text ``section.key = value`` lines merged with command
line flags (flags win).  A section's keys and defaults are the fields of its
config type (``DEFAULTS``), and a command builds that type from the section's
resolved values by the same rule (``_fields``, ``_build``).  After a command
succeeds, ``main`` writes the fully resolved configuration as ``run.cfg`` next
to its output.  Exit codes: 0 success, 1 usage/config error, 2 data/format
error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import core, formats, metrics, refsim, scenegen, spikenet, train as train_mod
from .errors import ConfigError, EvsynthError
from .luminance import LuminanceConfig, log_diff_blocks
from .refsim import RefSimConfig
from .scenegen import NoiseModel, SceneSpec
from .spikenet import SpikeNetConfig


def _key(name: str) -> str:
    # a field's config key is its name, but a key may not be a Python keyword
    return "lambda" if name == "count_weight" else name


def _fields(t) -> dict[str, object]:
    """Config type ``t``'s keys and defaults, in declaration order.  A field
    holding a nested config type (a ``default_factory``) gives that type's
    keys in its place."""
    out = {}
    for f in fields(t):
        if f.default_factory is not MISSING:
            out.update(_fields(f.default_factory))
        else:
            out[_key(f.name)] = f.default
    return out


def _build(t, values: dict[str, object]):
    """Config type ``t`` from a section's resolved values, by ``_fields``' rule."""
    return t(**{f.name: _build(f.default_factory, values)
                if f.default_factory is not MISSING
                else values[_key(f.name)] for f in fields(t)})


# Literal entries are keys no config type holds.
DEFAULTS: dict[str, dict[str, object]] = {
    "scene": _fields(SceneSpec),
    "noise": _fields(NoiseModel),
    "lum": _fields(LuminanceConfig),
    "sim": _fields(RefSimConfig),
    "net": {**_fields(SpikeNetConfig), "v0_mode": "zero"},
    "train": {**_fields(train_mod.TrainConfig),
              "kinds": "moving_edge,grating,flashing_light"},
    "eval": {"fps": 1000.0, "bin_fps": 60.0, "buckets": 32},
}


class RunConfig:
    """Resolved section.key -> value map with typed parsing."""

    def __init__(self):
        self.values = {sec: dict(kv) for sec, kv in DEFAULTS.items()}

    def set(self, dotted: str, raw: str) -> None:
        if "." not in dotted:
            raise ConfigError(f"expected section.key, got {dotted!r}")
        sec, key = dotted.split(".", 1)
        if sec not in self.values or key not in self.values[sec]:
            raise ConfigError(f"unknown config key {dotted!r}")
        default = DEFAULTS[sec][key]
        try:
            if isinstance(default, int):
                self.values[sec][key] = int(raw)
            elif isinstance(default, float):
                value = float(raw)
                if not math.isfinite(value):
                    raise ValueError(raw)
                self.values[sec][key] = value
            else:
                self.values[sec][key] = raw
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for {dotted}") from None

    def load_file(self, path) -> None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for n, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{n}: expected 'section.key = value'")
            dotted, raw = (part.strip() for part in line.split("=", 1))
            self.set(dotted, raw)

    def __getitem__(self, dotted: str):
        sec, key = dotted.split(".", 1)
        return self.values[sec][key]

    def override_seed(self, seed: int) -> None:
        for section in self.values.values():
            if "seed" in section:
                section["seed"] = seed

    def dump(self) -> str:
        lines = []
        for sec in sorted(self.values):
            for key in sorted(self.values[sec]):
                lines.append(f"{sec}.{key} = {self.values[sec][key]}")
        return "\n".join(lines) + "\n"


def _write_spikes(blocks, path, width: int, height: int, fps: float) -> None:
    """Append the events of blocks, spike blocks (m, H, W) in tick order, to
    the event file at path, staged until the last block is written, so a
    failure writes nothing."""
    with formats.events_writer(path, width, height) as append:
        t0 = 0
        for spikes in blocks:
            # the records of one frame block of ticks at a time
            for a, b in core.frame_blocks(len(spikes), width * height):
                append(core.spike_records(spikes[a:b], fps, t0 + a))
            t0 += len(spikes)


def cmd_gen(args, cfg: RunConfig) -> None:
    spec = _build(SceneSpec, cfg.values["scene"])
    noise = _build(NoiseModel, cfg.values["noise"]) if args.noisy_out else None
    if noise and Path(args.noisy_out).resolve() == Path(args.out).resolve():
        raise ConfigError("--noisy-out and --out name the same file")
    clip = (spec.width, spec.height, spec.n_frames, spec.fps)
    # both clips are staged until the last block is written, so a failure
    # writes neither
    with contextlib.ExitStack() as stack:
        noisy = (stack.enter_context(formats.fseq_writer(args.noisy_out, *clip))
                 if noise else None)
        clean = stack.enter_context(formats.fseq_writer(args.out, *clip))
        for a, frames in scenegen.render_blocks(spec):
            clean(frames)
            if noise:
                noisy(scenegen.noise_block(frames, a, noise))


def cmd_simulate(args, cfg: RunConfig) -> None:
    lum = _build(LuminanceConfig, cfg.values["lum"])
    sim = _build(RefSimConfig, cfg.values["sim"])
    with formats.fseq_reader(args.input) as (width, height, n, fps, frames):
        xs = log_diff_blocks(frames, n, height, width, lum)
        blocks = refsim.simulate_blocks(xs, height, width, fps, sim)
        _write_spikes((spikes for spikes, _ in blocks), args.out, width, height, fps)


def cmd_train(args, cfg: RunConfig) -> None:
    kinds = [k.strip() for k in str(cfg["train.kinds"]).split(",") if k.strip()]
    if not kinds:
        raise ConfigError("train.kinds is empty")
    # train renders one scene per kind, so scene.kind is not read here
    scenes = [_build(SceneSpec, {**cfg.values["scene"], "kind": k,
                                 "seed": cfg["scene.seed"] + i})
              for i, k in enumerate(kinds)]
    net_cfg = _build(SpikeNetConfig, cfg.values["net"])
    t_cfg = _build(train_mod.TrainConfig, cfg.values["train"])
    # the run directory, or its deepest existing ancestor, must be a
    # directory, or the first checkpoint fails only after an epoch of work
    out_dir = Path(args.out)
    d = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not d.is_dir():
        raise ConfigError(f"--out {args.out}: {d} is not a directory")
    data = train_mod.make_dataset(scenes, _build(NoiseModel, cfg.values["noise"]),
                                  _build(RefSimConfig, cfg.values["sim"]),
                                  _build(LuminanceConfig, cfg.values["lum"]))
    params, history = train_mod.train(data, net_cfg, t_cfg,
                                      checkpoint_dir=out_dir,
                                      verbose=args.verbose)
    spikenet.save_checkpoint(out_dir / "model.evsn", params, net_cfg)
    train_mod.write_history_csv(history, out_dir / "history.csv")


def cmd_infer(args, cfg: RunConfig) -> None:
    lum = _build(LuminanceConfig, cfg.values["lum"])
    spikenet.check_v0(cfg["net.v0_mode"], cfg["sim.seed"])
    params, net_cfg = spikenet.load_checkpoint(args.checkpoint)
    with formats.fseq_reader(args.input) as (width, height, n, fps, frames):
        xs = log_diff_blocks(frames, n, height, width, lum)
        blocks = spikenet.infer_blocks(xs, n - 1, height, width, params, net_cfg,
                                       v0_mode=cfg["net.v0_mode"],
                                       seed=cfg["sim.seed"])
        _write_spikes(blocks, args.out, width, height, fps)


def cmd_eval(args, cfg: RunConfig) -> None:
    rep = metrics.event_distance(formats.read_events(args.events_a),
                                 formats.read_events(args.events_b), cfg["eval.fps"])
    formats.write_text(args.out, "metric,value\n"
                                 f"emd,{rep.emd:.8g}\n"
                                 f"count_ratio,{rep.count_ratio:.8g}\n"
                                 f"pos_ratio,{rep.pos_ratio:.8g}\n"
                                 f"neg_ratio,{rep.neg_ratio:.8g}\n"
                                 f"pixels,{rep.pixels}\n")


def cmd_hist(args, cfg: RunConfig) -> None:
    e = formats.read_events(args.input)
    hist = metrics.intensity_histogram(e, cfg["eval.bin_fps"], cfg["eval.buckets"])
    lines = ["bucket,count"] + [f"{i},{c}" for i, c in enumerate(hist.tolist())]
    formats.write_text(args.out, "\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="evsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="plain-text section.key = value file")
        p.add_argument("--seed", type=int, help="override all random seeds")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored; infer and train take "
                            "their thread count from OpenBLAS")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen", help="render a procedural scene to FSEQ")
    common(p)
    p.add_argument("--noisy-out", help="also write a shot-noise corrupted copy")

    p = sub.add_parser("simulate", help="reference sensor sim: FSEQ -> events")
    common(p)
    p.add_argument("input", help="input .fseq file")
    p.add_argument("--theta", dest="sim.theta", help="contrast threshold")

    p = sub.add_parser("train", help="build dataset and train the network")
    common(p)
    p.add_argument("--lambda", dest="train.lambda", help="count-loss weight")
    p.add_argument("--epochs", dest="train.epochs")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("infer", help="network inference: FSEQ -> events")
    common(p)
    p.add_argument("input", help="input .fseq file")
    p.add_argument("checkpoint", help="EVSN checkpoint")

    p = sub.add_parser("eval", help="compare two event streams")
    common(p)
    p.add_argument("events_a")
    p.add_argument("events_b")

    p = sub.add_parser("hist", help="event intensity histogram CSV")
    common(p)
    p.add_argument("input", help="input event file")
    return parser


_COMMANDS = {"gen": cmd_gen, "simulate": cmd_simulate, "train": cmd_train,
             "infer": cmd_infer, "eval": cmd_eval, "hist": cmd_hist}


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg.load_file(args.config)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        cfg.set(dotted.strip(), raw.strip())
    # per-command shorthand flags (dest "section.key") win over the above
    for dotted, raw in vars(args).items():
        if "." in dotted and raw is not None:
            cfg.set(dotted, raw)
    if args.seed is not None:
        cfg.override_seed(args.seed)
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        out = Path(args.out)  # train's run directory, else a file
        run_cfg = (out if args.command == "train" else out.parent) / "run.cfg"
        for path in (args.out, getattr(args, "noisy_out", None)):
            if path and Path(path).resolve() == run_cfg.resolve():
                raise ConfigError(f"{path} is where this run writes run.cfg")
        written = {out.resolve(): f"--out {args.out}", run_cfg.resolve(): "run.cfg"}
        for name in ("input", "checkpoint", "events_a", "events_b"):
            path = getattr(args, name, None)
            if path and (what := written.get(Path(path).resolve())):
                raise ConfigError(f"{what} names this run's input {path}")
        _COMMANDS[args.command](args, cfg)
        formats.write_text(run_cfg, f"# evsynth {args.command}\n" + cfg.dump())
        return 0
    except (EvsynthError, OSError, MemoryError) as exc:
        print(f"evsynth: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def _keep_freed_pages() -> None:
    """Make this process's malloc keep the heap pages it frees mapped.

    By glibc's default a freed block above its dynamic mmap threshold is
    unmapped and free heap past its trim threshold goes back to the OS, so
    a loop that frees its arrays faults their pages in again on every pass.
    Setting either threshold fixes both, so both are set.  Nothing happens
    where the C library has no mallopt.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD: glibc's 64-bit ceiling
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim


def run() -> int:
    """The process entry of ``python -m evsynth.cli`` and the ``evsynth``
    console script: main() under _keep_freed_pages.  Library callers of
    main() keep their process's allocator policy."""
    _keep_freed_pages()
    return main()


if __name__ == "__main__":
    sys.exit(run())
