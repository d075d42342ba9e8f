import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evsynth
from evsynth import core, formats, spikenet
from evsynth.cli import DEFAULTS, RunConfig, main
from evsynth.errors import ConfigError
from evsynth.spikenet import SpikeNetConfig, SpikeNetParams, init_params


def run(*argv):
    return main(list(argv))


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scene.kind = grating\nsim.theta = 0.3  # comment\n")
    cfg = RunConfig()
    cfg.load_file(cfg_file)
    assert cfg["scene.kind"] == "grating"
    assert cfg["sim.theta"] == 0.3


def test_unknown_config_key_rejected(tmp_path):
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cfg.set("scene.warp_speed", "9")
    with pytest.raises(ConfigError):
        cfg.set("nosection.x", "1")


def test_gen_writes_fseq_and_run_cfg(tmp_path):
    out = tmp_path / "clean.fseq"
    assert run("gen", "--out", str(out), "--set", "scene.width=16",
               "--set", "scene.height=8", "--set", "scene.duration=0.02",
               "--set", "scene.fps=500") == 0
    seq = formats.read_fseq(out)
    assert (seq.width, seq.height, seq.n_frames) == (16, 8, 10)
    resolved = (tmp_path / "run.cfg").read_text()
    assert "scene.width = 16" in resolved


def test_gen_noisy_output(tmp_path):
    out, noisy = tmp_path / "c.fseq", tmp_path / "n.fseq"
    assert run("gen", "--out", str(out), "--noisy-out", str(noisy),
               "--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.01") == 0
    a, b = formats.read_fseq(out), formats.read_fseq(noisy)
    assert not np.array_equal(a.frames, b.frames)


def test_static_scene_simulates_to_zero_events(tmp_path):
    fseq = tmp_path / "static.fseq"
    assert run("gen", "--out", str(fseq), "--set", "scene.velocity=0",
               "--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.02") == 0
    out = tmp_path / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(out),
               "--set", "sim.sigma_theta=0", "--set", "sim.leak_rate=0",
               "--set", "sim.shot_rate=0") == 0
    assert len(formats.read_evt1(out)) == 0


def _gen_moving(tmp_path, name="clip.fseq", **extra):
    fseq = tmp_path / name
    args = ["gen", "--out", str(fseq), "--set", "scene.width=24",
            "--set", "scene.height=12", "--set", "scene.duration=0.1",
            "--set", "scene.velocity=200"]
    for k, v in extra.items():
        args += ["--set", f"{k}={v}"]
    assert run(*args) == 0
    return fseq


def test_pipeline_hist_tail_nonzero(tmp_path):
    # moving edge at 200 px/s: at least one 60 FPS pixel-bin sees >= 2 events
    fseq = _gen_moving(tmp_path)
    ev = tmp_path / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(ev)) == 0
    hist_csv = tmp_path / "hist.csv"
    assert run("hist", str(ev), "--out", str(hist_csv)) == 0
    lines = hist_csv.read_text().splitlines()
    assert lines[0] == "bucket,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts[2:]) >= 1


def test_simulate_deterministic_across_worker_counts(tmp_path):
    fseq = _gen_moving(tmp_path)
    outs = []
    for w in (1, 4, 8):
        out = tmp_path / f"ev_w{w}.evt1"
        assert run("simulate", str(fseq), "--out", str(out),
                   "--workers", str(w), "--seed", "5") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert len(formats.read_evt1(tmp_path / "ev_w1.evt1")) > 0


def _fixture_checkpoint(tmp_path, scale=10.0):
    cfg = SpikeNetConfig(channels=8, kernel=5, depth=1)
    params = init_params(cfg, 3)
    # scale the head so an untrained net actually emits spikes
    params = SpikeNetParams.from_tensors(
        [t * scale if i == len(params.tensors()) - 2 else t
         for i, t in enumerate(params.tensors())])
    path = tmp_path / "model.evsn"
    spikenet.save_checkpoint(path, params, cfg)
    return path


def test_infer_deterministic_and_worker_invariant(tmp_path):
    fseq = _gen_moving(tmp_path)
    ckpt = _fixture_checkpoint(tmp_path)
    outs = []
    for w in (1, 4, 8):
        out = tmp_path / f"net_w{w}.evt1"
        assert run("infer", str(fseq), str(ckpt), "--out", str(out),
                   "--workers", str(w)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert len(formats.read_evt1(tmp_path / "net_w1.evt1")) > 0
    # same invocation twice: byte-identical
    again = tmp_path / "net_again.evt1"
    assert run("infer", str(fseq), str(ckpt), "--out", str(again)) == 0
    assert again.read_bytes() == outs[0]


def test_eval_reports_zero_for_identical_streams(tmp_path):
    fseq = _gen_moving(tmp_path)
    ev = tmp_path / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(ev)) == 0
    report = tmp_path / "report.csv"
    assert run("eval", str(ev), str(ev), "--out", str(report)) == 0
    rows = dict(line.split(",") for line in report.read_text().splitlines()[1:])
    assert float(rows["emd"]) == 0.0
    assert float(rows["count_ratio"]) == 1.0


def test_csv_output_path(tmp_path):
    fseq = _gen_moving(tmp_path)
    out = tmp_path / "ev.csv"
    assert run("simulate", str(fseq), "--out", str(out)) == 0
    ev = formats.read_csv(out)
    assert len(ev) > 0


def test_train_command_end_to_end(tmp_path):
    out = tmp_path / "trainrun"
    code = run("train", "--out", str(out),
               "--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.04", "--set", "net.channels=4",
               "--set", "net.kernel=3", "--set", "net.depth=1",
               "--set", "train.batch=32", "--epochs", "2")
    assert code == 0
    assert (out / "model.evsn").exists()
    assert (out / "history.csv").exists()
    assert (out / "epoch_002.evsn").exists()
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,holdout_loss"
    assert len(lines) == 3
    params, cfg = spikenet.load_checkpoint(out / "model.evsn")
    assert cfg.channels == 4


def test_exit_codes(tmp_path):
    # usage: unknown flag / missing args -> 1
    assert run("simulate", "--out", str(tmp_path / "x.evt1")) == 1
    assert run("frobnicate", "--out", "x") == 1
    # config: unknown key -> 1
    assert run("gen", "--out", str(tmp_path / "y.fseq"),
               "--set", "scene.bogus=1") == 1
    # data: missing input file -> 2
    assert run("simulate", str(tmp_path / "missing.fseq"),
               "--out", str(tmp_path / "z.evt1")) == 2
    # data: wrong magic -> 2
    bad = tmp_path / "bad.fseq"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert run("simulate", str(bad), "--out", str(tmp_path / "w.evt1")) == 2
    # usage: bad worker count -> 1
    assert run("gen", "--out", str(tmp_path / "v.fseq"), "--workers", "0") == 1


@pytest.mark.parametrize("key", ["eval.bin_fps", "eval.buckets", "train.batch"])
def test_zero_config_value_exits_1_without_traceback(tmp_path, key):
    ev = tmp_path / "ev.evt1"
    formats.write_evt1(core.EventList(4, 4, np.zeros(0, core.EVENT_DTYPE)), ev)
    argv = (["hist", str(ev)] if key.startswith("eval.") else ["train"])
    env = dict(os.environ, PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "evsynth.cli", *argv, "--out",
         str(tmp_path / "out"), "--set", f"{key}=0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("evsynth: ")


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch):
    import evsynth.cli as cli_mod
    from evsynth.errors import DivergenceError

    def boom(args, cfg):
        raise DivergenceError("loss went non-finite")

    monkeypatch.setitem(cli_mod._COMMANDS, "train", boom)
    assert run("train", "--out", str(tmp_path / "r")) == 3


def test_theta_flag_wins_over_config(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("sim.theta = 0.5\n")
    fseq = _gen_moving(tmp_path)
    a, b = tmp_path / "a.evt1", tmp_path / "b.evt1"
    assert run("simulate", str(fseq), "--config", str(cfg_file),
               "--out", str(a)) == 0
    assert run("simulate", str(fseq), "--config", str(cfg_file),
               "--theta", "0.1", "--out", str(b)) == 0
    # smaller threshold -> strictly more events
    assert len(formats.read_evt1(b)) > len(formats.read_evt1(a))
    assert "sim.theta = 0.1" in (tmp_path / "run.cfg").read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_writes_no_checkpoint(tmp_path, capsys):
    out = tmp_path / "r"
    assert run("train", "--out", str(out), "--epochs", "2",
               "--set", "scene.width=4", "--set", "scene.height=4",
               "--set", "scene.duration=0.02", "--set", "train.lr=1e300") == 3
    assert capsys.readouterr().err.startswith("evsynth: ")
    assert not list(out.glob("epoch_*.evsn"))


_SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "")
_SWEEP_ROUTES = {"scene": ("gen",), "noise": ("gen",),
                 "lum": ("simulate", "infer"), "sim": ("simulate", "infer"),
                 "net": ("train", "infer"), "train": ("train",),
                 "eval": ("eval", "hist")}
_SWEEP_CLIP = ["--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.02"]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """An 8x8, 20-frame clip, its simulated events and a small checkpoint."""
    d = tmp_path_factory.mktemp("sweep")
    fseq, ev = d / "clip.fseq", d / "ev.evt1"
    assert main(["gen", "--out", str(fseq), *_SWEEP_CLIP,
                 "--set", "scene.kind=mixed"]) == 0
    assert main(["simulate", str(fseq), "--out", str(ev)]) == 0
    return str(fseq), str(ev), str(_fixture_checkpoint(d))


def _sweep_argv(command, inputs, out):
    fseq, ev, ckpt = inputs
    # the swept --set goes after these, so it wins over any base value
    return {
        "gen": ["gen", "--out", str(out / "c.fseq"),
                "--noisy-out", str(out / "n.fseq"), *_SWEEP_CLIP],
        "simulate": ["simulate", fseq, "--out", str(out / "s.evt1")],
        "infer": ["infer", fseq, ckpt, "--out", str(out / "i.evt1"),
                  "--set", "net.v0_mode=uniform"],
        "train": ["train", "--out", str(out / "t"), *_SWEEP_CLIP,
                  "--set", "net.channels=4", "--set", "net.kernel=3",
                  "--set", "net.depth=1", "--set", "train.epochs=1"],
        "eval": ["eval", ev, ev, "--out", str(out / "e.csv")],
        "hist": ["hist", ev, "--out", str(out / "h.csv")],
    }[command]


_SWEEP_CASES = [
    pytest.param(command, ["--set", f"{sec}.{key}={value}"],
                 id=f"{command}-{sec}.{key}={value}")
    for sec, keys in DEFAULTS.items() for key in keys
    for value in _SWEEP_VALUES for command in _SWEEP_ROUTES[sec]
] + [pytest.param(command, ["--seed", "-1"], id=f"{command}-seed=-1")
     for command in ("gen", "simulate", "infer", "train", "eval", "hist")]


@pytest.mark.parametrize("command,bad", _SWEEP_CASES)
def test_adversarial_config_value_ends_in_exit_code(tmp_path, capsys,
                                                    sweep_inputs, command, bad):
    code = main(_sweep_argv(command, sweep_inputs, tmp_path) + bad)
    assert code in (0, 1, 2, 3)
    if code:
        assert capsys.readouterr().err.startswith("evsynth: ")


@pytest.mark.parametrize("command,bad", [
    ("gen", "--seed -1"), ("gen", "--set scene.seed=-1"),
    ("gen", "--set noise.seed=-1"), ("simulate", "--set sim.seed=-1"),
    ("infer", "--set sim.seed=-1"), ("train", "--set train.seed=-1"),
    ("train", "--set net.kernel=-1"), ("infer", "--set net.v0_mode=bogus"),
    ("train", "--set train.lambda=-1"), ("eval", "--set eval.fps=0"),
    ("eval", "--set eval.fps=-1"), ("eval", "--set eval.fps=nan"),
    ("hist", "--set eval.bin_fps=inf"), ("gen", "--set scene.fps=inf"),
    ("gen", "--set scene.duration=-inf"), ("gen", "--set noise.gain=nan"),
    ("gen", "--set scene.spatial_freq=nan"),
    ("gen", "--set scene.flash_period=nan"),
    ("simulate", "--set sim.sigma_theta=nan"),
    ("simulate", "--set sim.leak_rate=inf"),
])
def test_out_of_range_value_exits_1(tmp_path, capsys, sweep_inputs, command,
                                    bad):
    assert main(_sweep_argv(command, sweep_inputs, tmp_path) + bad.split()) == 1
    assert capsys.readouterr().err.startswith("evsynth: ")
