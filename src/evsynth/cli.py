"""Command-line front end: gen, simulate, train, infer, eval, hist.

Configuration is plain-text ``section.key = value`` lines merged with command
line flags (flags win).  Every run writes the fully resolved configuration as
``run.cfg`` next to its output.  Exit codes: 0 success, 1 usage/config error,
2 data/format error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import core, formats, metrics, refsim, scenegen, spikenet, train as train_mod
from .errors import ConfigError, EvsynthError
from .luminance import LuminanceConfig, log_diff_sequence
from .refsim import RefSimConfig
from .scenegen import NoiseModel, SceneSpec
from .spiking import LifParams, SurrogateConfig
from .spikenet import SpikeNetConfig

DEFAULTS: dict[str, dict[str, object]] = {
    "scene": {"kind": "moving_edge", "width": 64, "height": 64, "fps": 1000.0,
              "duration": 0.25, "velocity": 120.0, "spatial_freq": 0.0625,
              "flash_period": 0.1, "contrast": 0.9, "seed": 0},
    "noise": {"spp": 64, "gain": 0.5, "seed": 0},
    "lum": {"rho_log": 0.02},
    "sim": {"theta": 0.2, "sigma_theta": 0.03, "init_mode": "zero",
            "leak_rate": 0.1, "shot_rate": 1.0, "seed": 0},
    "net": {"channels": 32, "kernel": 7, "depth": 3, "tau": 2.0, "v_th": 1.0,
            "alpha": 2.0, "v0_mode": "zero"},
    "train": {"epochs": 20, "batch": 256, "lr": 1e-3, "lambda": 0.1,
              "clip": 1.0, "seed": 0, "holdout": 0.1,
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
        for n, line in enumerate(Path(path).read_text().splitlines(), 1):
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
        for sec in ("scene", "noise", "sim", "train"):
            self.values[sec]["seed"] = seed

    def dump(self) -> str:
        lines = []
        for sec in sorted(self.values):
            for key in sorted(self.values[sec]):
                lines.append(f"{sec}.{key} = {self.values[sec][key]}")
        return "\n".join(lines) + "\n"


def _write_run_cfg(cfg: RunConfig, out_path, command: str) -> None:
    out_path = Path(out_path)
    target = (out_path if out_path.is_dir() else out_path.parent) / "run.cfg"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(f"# evsynth {command}\n" + cfg.dump())


def _scene_spec(cfg: RunConfig, kind=None, seed_offset=0) -> SceneSpec:
    return SceneSpec(
        kind=kind or cfg["scene.kind"], width=cfg["scene.width"],
        height=cfg["scene.height"], fps=cfg["scene.fps"],
        duration=cfg["scene.duration"], velocity=cfg["scene.velocity"],
        spatial_freq=cfg["scene.spatial_freq"],
        flash_period=cfg["scene.flash_period"], contrast=cfg["scene.contrast"],
        seed=cfg["scene.seed"] + seed_offset)


def _noise_model(cfg: RunConfig) -> NoiseModel:
    return NoiseModel(cfg["noise.spp"], cfg["noise.gain"], cfg["noise.seed"])


def _lum_config(cfg: RunConfig) -> LuminanceConfig:
    return LuminanceConfig(cfg["lum.rho_log"])


def _refsim_config(cfg: RunConfig) -> RefSimConfig:
    return RefSimConfig(
        theta=cfg["sim.theta"], sigma_theta=cfg["sim.sigma_theta"],
        init_mode=cfg["sim.init_mode"], leak_rate=cfg["sim.leak_rate"],
        shot_rate=cfg["sim.shot_rate"], seed=cfg["sim.seed"])


def _net_config(cfg: RunConfig) -> SpikeNetConfig:
    return SpikeNetConfig(
        channels=cfg["net.channels"], kernel=cfg["net.kernel"],
        depth=cfg["net.depth"], lif=LifParams(cfg["net.tau"], cfg["net.v_th"]),
        surrogate=SurrogateConfig(cfg["net.alpha"]))


def _train_config(cfg: RunConfig) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(
        epochs=cfg["train.epochs"], batch=cfg["train.batch"],
        lr=cfg["train.lr"], count_weight=cfg["train.lambda"],
        clip=cfg["train.clip"], seed=cfg["train.seed"],
        holdout=cfg["train.holdout"])


def _read_events(path) -> core.EventList:
    path = Path(path)
    if path.suffix == ".csv":
        return formats.read_csv(path)
    return formats.read_evt1(path)


def _write_events(e: core.EventList, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".csv":
        formats.write_csv(e, path)
    else:
        formats.write_evt1(e, path)


def cmd_gen(args, cfg: RunConfig) -> None:
    spec = _scene_spec(cfg)
    clean = scenegen.gen_scene(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_fseq(clean, out)
    if args.noisy_out:
        noisy = scenegen.add_render_noise(clean, _noise_model(cfg))
        formats.write_fseq(noisy, args.noisy_out)
    _write_run_cfg(cfg, out, "gen")


def cmd_simulate(args, cfg: RunConfig) -> None:
    frames = formats.read_fseq(args.input)
    x = log_diff_sequence(frames, _lum_config(cfg))
    train_out = refsim.simulate(x, _refsim_config(cfg))
    _write_events(core.dense_to_sparse(train_out), args.out)
    _write_run_cfg(cfg, args.out, "simulate")


def cmd_train(args, cfg: RunConfig) -> None:
    kinds = [k.strip() for k in str(cfg["train.kinds"]).split(",") if k.strip()]
    if not kinds:
        raise ConfigError("train.kinds is empty")
    scenes = [_scene_spec(cfg, kind=k, seed_offset=i) for i, k in enumerate(kinds)]
    net_cfg, t_cfg = _net_config(cfg), _train_config(cfg)
    data = train_mod.make_dataset(scenes, _noise_model(cfg), _refsim_config(cfg),
                                  _lum_config(cfg))
    out_dir = Path(args.out)
    params, history = train_mod.train(data, net_cfg, t_cfg,
                                      checkpoint_dir=out_dir,
                                      verbose=args.verbose)
    spikenet.save_checkpoint(out_dir / "model.evsn", params, net_cfg)
    train_mod.write_history_csv(history, out_dir / "history.csv")
    _write_run_cfg(cfg, out_dir, "train")


def cmd_infer(args, cfg: RunConfig) -> None:
    frames = formats.read_fseq(args.input)
    params, net_cfg = spikenet.load_checkpoint(args.checkpoint)
    x = log_diff_sequence(frames, _lum_config(cfg))
    spikes = spikenet.infer_stream(x, params, net_cfg,
                                   v0_mode=cfg["net.v0_mode"],
                                   seed=cfg["sim.seed"])
    _write_events(core.dense_to_sparse(spikes), args.out)
    _write_run_cfg(cfg, args.out, "infer")


def _events_to_train(e: core.EventList, fps: float, k: int, width: int,
                     height: int) -> core.SpikeTrain:
    widened = core.EventList(width, height, e.records)
    return core.sparse_to_dense(widened, fps, k)


def cmd_eval(args, cfg: RunConfig) -> None:
    ea, eb = _read_events(args.events_a), _read_events(args.events_b)
    fps = cfg["eval.fps"]
    width, height = max(ea.width, eb.width), max(ea.height, eb.height)
    last = [core.us_to_tick(e.records["t"], fps).max() for e in (ea, eb)
            if len(e)]
    k = int(max(last)) + 1 if last else 1
    a = _events_to_train(ea, fps, k, width, height)
    b = _events_to_train(eb, fps, k, width, height)
    rep = metrics.stream_distance(a, b)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("metric,value\n"
                   f"emd,{rep.emd:.8g}\n"
                   f"count_ratio,{rep.count_ratio:.8g}\n"
                   f"pos_ratio,{rep.pos_ratio:.8g}\n"
                   f"neg_ratio,{rep.neg_ratio:.8g}\n"
                   f"pixels,{rep.pixels}\n")
    _write_run_cfg(cfg, out, "eval")


def cmd_hist(args, cfg: RunConfig) -> None:
    e = _read_events(args.input)
    hist = metrics.intensity_histogram(e, cfg["eval.bin_fps"], cfg["eval.buckets"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["bucket,count"] + [f"{i},{c}" for i, c in enumerate(hist.tolist())]
    out.write_text("\n".join(lines) + "\n")
    _write_run_cfg(cfg, out, "hist")


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
                       help="accepted and ignored; BLAS threads parallelize infer")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("gen", help="render a procedural scene to FSEQ")
    common(p)
    p.add_argument("--noisy-out", help="also write a shot-noise corrupted copy")

    p = sub.add_parser("simulate", help="reference sensor sim: FSEQ -> events")
    common(p)
    p.add_argument("input", help="input .fseq file")
    p.add_argument("--theta", type=float, help="contrast threshold")

    p = sub.add_parser("train", help="build dataset and train the network")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, help="count-loss weight")
    p.add_argument("--epochs", type=int)
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
        if not Path(args.config).exists():
            raise ConfigError(f"{args.config}: no such config file")
        cfg.load_file(args.config)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        cfg.set(dotted.strip(), raw.strip())
    # per-command shorthand flags win over config file values
    if getattr(args, "theta", None) is not None:
        cfg.set("sim.theta", str(args.theta))
    if getattr(args, "lam", None) is not None:
        cfg.set("train.lambda", str(args.lam))
    if getattr(args, "epochs", None) is not None:
        cfg.set("train.epochs", str(args.epochs))
    if args.seed is not None:
        cfg.override_seed(args.seed)
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        _COMMANDS[args.command](args, cfg)
        return 0
    except (EvsynthError, OSError) as exc:
        print(f"evsynth: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
