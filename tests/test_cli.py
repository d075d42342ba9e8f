import contextlib
import ctypes
import hashlib
import io
import os
import resource
import signal
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import evsynth
from evsynth import cli, core, formats, spikenet
from evsynth.cli import DEFAULTS, RunConfig, main
from evsynth.errors import ConfigError, FormatError
from evsynth.luminance import log_diff_sequence
from evsynth.spikenet import SpikeNetConfig, SpikeNetParams, init_params

from conftest import fake_blas, traced_peak


def run(*argv):
    return main(list(argv))


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scene.kind = grating\nsim.theta = 0.3  # comment\n")
    cfg = RunConfig()
    cfg.load_file(cfg_file)
    assert cfg["scene.kind"] == "grating"
    assert cfg["sim.theta"] == 0.3


def test_config_schema_is_pinned():
    # every section.key, its default and its int/float type, as the
    # hand-written DEFAULTS table had them before the config types held them
    digest = hashlib.sha256(RunConfig().dump().encode()).hexdigest()
    assert digest == ("564db0475aa9817c29b6d87af14d2e20"
                      "d2e0b082fb74e00528959858b28185fc")


@pytest.mark.parametrize("kind", ["not_utf8", "directory", "missing"])
def test_unreadable_config_file_exits_1(tmp_path, capsys, kind):
    path = tmp_path / "c.cfg"
    if kind == "not_utf8":
        path.write_bytes(b"scene.kind = \xff\n")
    elif kind == "directory":
        path.mkdir()
    out = tmp_path / "o" / "c.fseq"
    assert run("gen", "--out", str(out), "--config", str(path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")
    assert not out.parent.exists()


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


def test_gen_creates_each_output_directory(tmp_path, capsys):
    out, noisy = tmp_path / "a" / "c.fseq", tmp_path / "b" / "n.fseq"
    assert run("gen", "--out", str(out), "--noisy-out", str(noisy),
               "--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.01") == 0
    assert capsys.readouterr().err == ""
    assert formats.read_fseq(noisy).n_frames == formats.read_fseq(out).n_frames
    assert (tmp_path / "a" / "run.cfg").read_text().startswith("# evsynth gen\n")


@pytest.mark.parametrize("sets", [
    ["noise.gain=-1"],  # refused
    ["noise.gain=1e40"],  # float32 overflow
    # the clean render goes non-finite at frame 180 of 250, blocks after the
    # first blocks of both clips were written
    ["scene.kind=grating", "scene.velocity=1e306", "scene.width=64",
     "scene.height=64", "scene.duration=0.25"],
], ids=["-1", "1e40", "late-render"])
def test_gen_writes_nothing_when_the_noisy_copy_fails(tmp_path, capsys, sets):
    out = tmp_path / "g"
    size = ["scene.width=8", "scene.height=8", "scene.duration=0.01"]
    argv = ["gen", "--out", str(out / "c.fseq"), "--noisy-out", str(out / "d" / "n.fseq")]
    for item in size + sets:
        argv += ["--set", item]
    assert run(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines
    assert list(tmp_path.iterdir()) == []  # no clip, temporary file or directory


def test_gen_refuses_one_file_for_both_clips(tmp_path, monkeypatch, capsys):
    # both staged writers renamed over the one path, and the noisy clip,
    # closed last, took the clean clip's place
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--out", "a.fseq", "--noisy-out", "./a.fseq",
               "--set", "scene.width=8", "--set", "scene.height=8",
               "--set", "scene.duration=0.01") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines
    assert list(tmp_path.iterdir()) == []  # no clip, temporary file or run.cfg


@pytest.mark.parametrize("flag", ["--out", "--noisy-out", "simulate"])
def test_an_output_named_as_the_run_cfg_exits_1_writing_nothing(tmp_path, capsys,
                                                                 monkeypatch, flag):
    # main writes run.cfg beside --out after the command, over its output
    clip = _gen_moving(tmp_path)
    out = tmp_path / "o"
    out.mkdir()
    (out / "run.cfg").write_text("old")
    argv = {"--out": ["gen", "--out", "o/run.cfg"],
            "--noisy-out": ["gen", "--out", "o/c.fseq", "--noisy-out", "o/run.cfg"],
            "simulate": ["simulate", str(clip), "--out", str(out / "run.cfg")]}[flag]
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--set", "scene.width=8", "--set", "scene.height=8") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines
    assert [p.name for p in out.iterdir()] == ["run.cfg"]
    assert (out / "run.cfg").read_text() == "old"


@pytest.mark.parametrize("victim", ["simulate", "infer", "checkpoint", "eval_a",
                                    "eval_b", "hist", "run_cfg"])
def test_an_output_naming_its_input_exits_1_leaving_the_input(tmp_path, capsys,
                                                              monkeypatch, victim):
    # the staged writer renamed its output, or main its run.cfg, over the
    # input the run had read
    clip = _gen_moving(tmp_path)
    ev = tmp_path / "ev.evt1"
    assert run("simulate", str(clip), "--out", str(ev)) == 0
    ckpt = _fixture_checkpoint(tmp_path)
    (tmp_path / "run.cfg").unlink()  # the one simulate wrote
    monkeypatch.chdir(tmp_path)
    # --out spells the input another way, so only their resolved paths agree
    argv, target = {
        "simulate": (["simulate", "clip.fseq", "--out", "./clip.fseq"], clip),
        "infer": (["infer", "clip.fseq", "model.evsn", "--out", "./clip.fseq"], clip),
        "checkpoint": (["infer", "clip.fseq", "model.evsn", "--out", "./model.evsn"],
                       ckpt),
        "eval_a": (["eval", "ev.evt1", "other.evt1", "--out", "./ev.evt1"], ev),
        "eval_b": (["eval", "other.evt1", "ev.evt1", "--out", str(ev)], ev),
        "hist": (["hist", "ev.evt1", "--out", "./ev.evt1"], ev),
        "run_cfg": (["hist", "run.cfg", "--out", "h.csv"], tmp_path / "run.cfg"),
    }[victim]
    if victim == "run_cfg":  # an EVT1 file named as the run.cfg beside --out
        (tmp_path / "run.cfg").write_bytes(ev.read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("evsynth: run.cfg " if victim == "run_cfg"
                               else "evsynth: --out "), lines
    assert target.name in lines[0]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_into_a_file_exits_1_before_the_dataset(tmp_path, capsys, monkeypatch):
    # the first checkpoint failed only after make_dataset and a whole epoch
    def no_dataset(*args, **kwargs):
        raise AssertionError("make_dataset ran before --out was checked")

    monkeypatch.setattr(cli.train_mod, "make_dataset", no_dataset)
    runfile = tmp_path / "runfile"
    runfile.write_bytes(b"keep")
    for out in (runfile, runfile / "sub"):
        assert run("train", "--out", str(out), "--epochs", "2") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evsynth: --out "), lines
        assert "not a directory" in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runfile"]
    assert runfile.read_bytes() == b"keep"


@pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
def test_keep_freed_pages_is_quiet_without_mallopt(monkeypatch, libc):
    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_pages() is None


def test_keep_freed_pages_fixes_both_malloc_thresholds(monkeypatch):
    # M_MMAP_THRESHOLD (-3) at glibc's 32 MiB ceiling, M_TRIM_THRESHOLD (-1)
    # at -1, no trimming; either alone leaves the other one dynamic
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    cli._keep_freed_pages()
    assert sorted(calls) == [(-3, 32 * 2**20), (-1, -1)]


_HANDLED = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)


def test_main_leaves_the_allocator_alone(tmp_path, monkeypatch):
    # library callers of main, tests and in-process benchmarks among them,
    # keep their process's malloc policy and signal handlers
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_pages", lambda: calls.append(1))
    handlers = [signal.getsignal(sig) for sig in _HANDLED]
    assert run("gen", "--out", str(tmp_path / "a.fseq"), "--set", "scene.width=8",
               "--set", "scene.height=8", "--set", "scene.duration=0.01") == 0
    assert run("gen") == 1
    assert calls == []
    assert [signal.getsignal(sig) for sig in _HANDLED] == handlers


def test_run_keeps_freed_pages_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_pages", lambda: calls.append("keep"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
    assert cli.run() == 3
    assert calls == ["keep", "main"]


@pytest.fixture
def hup_fails():
    """A SIGHUP that reaches the test process's own handler fails the test
    rather than ending the process."""
    def fail(signum, frame):
        pytest.fail("SIGHUP reached the test's own handler")
    before = signal.signal(signal.SIGHUP, fail)
    yield
    signal.signal(signal.SIGHUP, before)


def test_run_ends_a_signalled_command_with_one_line(monkeypatch, capsys, hup_fails):
    # main raises the signal itself; run's handler turns it into 129 and
    # one line, then puts the handlers before it back
    monkeypatch.setattr(cli, "_keep_freed_pages", lambda: None)
    before = [signal.getsignal(sig) for sig in _HANDLED]

    def hangup(argv=None):
        signal.raise_signal(signal.SIGHUP)
        raise AssertionError("the signal did not stop main")
    monkeypatch.setattr(cli, "main", hangup)
    assert cli.run() == 129
    assert capsys.readouterr().err.splitlines() == ["evsynth: interrupted by SIGHUP"]
    assert [signal.getsignal(sig) for sig in _HANDLED] == before


def test_run_raises_a_signal_that_lands_in_an_import_after_it(tmp_path, monkeypatch,
                                                             capsys, hup_fails):
    # a module's initialisation may swallow what the handler raises, so a
    # signal during an import is sent again once the import is done
    monkeypatch.setattr(cli, "_keep_freed_pages", lambda: None)
    (tmp_path / "signalled_module.py").write_text(
        "import signal\nsignal.raise_signal(signal.SIGHUP)\nLOADED = True\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    loaded = []

    def imports(argv=None):
        import signalled_module
        loaded.append(signalled_module.LOADED)
        time.sleep(60)
        raise AssertionError("the signal was lost")
    monkeypatch.setattr(cli, "main", imports)
    monkeypatch.delitem(sys.modules, "signalled_module", raising=False)
    assert cli.run() == 129
    assert loaded == [True]
    assert capsys.readouterr().err.splitlines() == ["evsynth: interrupted by SIGHUP"]


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_interrupted_gen_leaves_nothing_and_prints_one_line(tmp_path, sig):
    # a 64x64 clip of 20 s runs for many seconds after its first staged
    # file appears, which is when the signal is sent
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "evsynth.cli", "gen", "--out", str(out / "clean.fseq"),
         "--noisy-out", str(out / "noisy.fseq"), "--set", "scene.width=64",
         "--set", "scene.height=64", "--set", "scene.duration=20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        while not any(p.suffix == ".tmp" for p in out.iterdir()):
            assert proc.poll() is None, proc.stderr.read()
            time.sleep(0.01)
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 128 + sig
    assert err.splitlines() == [f"evsynth: interrupted by {sig.name}"]
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("command", ["simulate", "infer"])
def test_non_finite_frame_in_the_last_block_writes_nothing(tmp_path, capsys,
                                                           monkeypatch, command):
    # 3-frame blocks of an 8x8 clip of 20 frames: the NaN is in the last
    # block, read after the events of the blocks before it were written
    monkeypatch.setattr(core, "_BLOCK_VALUES", 3 * 4 * 8 * 8)
    frames = np.random.default_rng(5).uniform(0.1, 1.0, (20, 8, 8, 3))
    frames[19, 4, 4, 1] = np.nan
    clip = tmp_path / "clip.fseq"
    clip.write_bytes(struct.pack("<4sHHHIfB", b"FSEQ", 1, 8, 8, 20, 1000.0, 3)
                     + frames.astype("<f4").tobytes())
    ckpt = _fixture_checkpoint(tmp_path)
    out = tmp_path / "ev.evt1"
    out.write_bytes(b"old")
    inputs = [str(clip)] + ([str(ckpt)] if command == "infer" else [])
    assert run(command, *inputs, "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"evsynth: {clip}: frame values must be finite and non-negative"]
    assert out.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clip.fseq", "ev.evt1", "model.evsn"]


def test_event_count_past_u32_exits_2_writing_nothing(tmp_path, capsys, monkeypatch):
    # the EVT1 writer's limit is lowered from its u32 count's 2**32 - 1 to 3
    fseq = _gen_moving(tmp_path)
    monkeypatch.setattr(formats, "_EVT1_MAX_COUNT", 3)
    out = tmp_path / "new" / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"evsynth: {out}: more than "), lines
    assert not out.parent.exists()


# Traced peaks of a 32x32 clip at 4x the duration against 1x: each command
# holds one block of frames (and infer one window of chunks), not the clip.
# 0.3 s is two of infer's 256-tick chunks, so the window is at its full size.
_PEAK_CLIP = ["--set", "scene.kind=mixed", "--set", "scene.width=32",
              "--set", "scene.height=32"]


def _command_peak(tmp_path, command, duration):
    clip, noisy = tmp_path / f"c{duration}.fseq", tmp_path / f"n{duration}.fseq"
    gen = ["gen", "--out", str(clip), "--noisy-out", str(noisy), *_PEAK_CLIP,
           "--set", f"scene.duration={duration}"]
    argv = {"gen": gen,
            "simulate": ["simulate", str(clip), "--out", str(tmp_path / "s.evt1")],
            "infer": ["infer", str(noisy), str(tmp_path / "m.evsn"),
                      "--out", str(tmp_path / "i.evt1")]}[command]
    if command != "gen":
        assert main(gen) == 0
    code, peak = traced_peak(main, argv)
    assert code == 0
    return peak


@pytest.mark.parametrize("command", ["gen", "simulate", "infer"])
def test_command_peak_does_not_grow_with_the_clip(tmp_path, monkeypatch, command):
    fake_blas(monkeypatch, None)  # one thread, so the peak is one order's
    cfg = SpikeNetConfig(channels=4, kernel=3, depth=1)
    spikenet.save_checkpoint(tmp_path / "m.evsn", init_params(cfg, 1), cfg)
    short = _command_peak(tmp_path, command, 0.3)
    long = _command_peak(tmp_path, command, 1.2)
    assert long < short + 2**19, (short, long)


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


def test_infer_over_several_chunks_equals_forward(tmp_path, monkeypatch):
    # one frame per lin-log block, as at 720p, and 599 ticks: three of
    # infer's 256-tick chunks, each window filled from many blocks
    monkeypatch.setattr(core, "_BLOCK_VALUES", 4 * 16 * 16)
    noisy = tmp_path / "noisy.fseq"
    assert run("gen", "--out", str(tmp_path / "clean.fseq"), "--noisy-out", str(noisy),
               "--set", "scene.kind=mixed", "--set", "scene.width=16",
               "--set", "scene.height=16", "--set", "scene.duration=0.6") == 0
    ckpt = _fixture_checkpoint(tmp_path)
    out = tmp_path / "net.evt1"
    assert run("infer", str(noisy), str(ckpt), "--out", str(out)) == 0
    x = log_diff_sequence(formats.read_fseq(noisy))
    assert x.k == 599
    params, cfg = spikenet.load_checkpoint(ckpt)
    want, _ = spikenet.forward(x.pixel_sequences(), params, cfg, mode="hard")
    got = core.sparse_to_dense(formats.read_evt1(out), x.fps, x.k)
    assert np.array_equal(got.pixel_sequences(), want)
    assert np.abs(want).sum() > 0


def test_eval_reports_zero_for_identical_streams(tmp_path):
    fseq = _gen_moving(tmp_path)
    ev = tmp_path / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(ev)) == 0
    report = tmp_path / "report.csv"
    assert run("eval", str(ev), str(ev), "--out", str(report)) == 0
    rows = dict(line.split(",") for line in report.read_text().splitlines()[1:])
    assert float(rows["emd"]) == 0.0
    assert float(rows["count_ratio"]) == 1.0


def test_eval_at_a_coarser_rate_than_the_clip(tmp_path):
    # 500 fps ticks over a 1 kHz clip hold several events of a pixel
    fseq = _gen_moving(tmp_path)
    ev = tmp_path / "ev.evt1"
    assert run("simulate", str(fseq), "--out", str(ev)) == 0
    report = tmp_path / "report.csv"
    assert run("eval", str(ev), str(ev), "--out", str(report),
               "--set", "eval.fps=500") == 0
    rows = dict(line.split(",") for line in report.read_text().splitlines()[1:])
    assert float(rows["emd"]) == 0.0
    assert float(rows["count_ratio"]) == 1.0


def test_hist_of_a_sparse_long_clip(tmp_path):
    # 32 bytes: a 640x480 header and two events 4e9 us apart, so 7.4e10
    # pixel-bins at 60 fps, nearly all of them empty
    ev = tmp_path / "long.evt1"
    formats.write_evt1(core.EventList.from_arrays(
        640, 480, t=[0, 4_000_000_000], x=[0, 5], y=[0, 7], p=[1, -1]), ev)
    assert len(ev.read_bytes()) == 32
    out = tmp_path / "h.csv"
    assert run("hist", str(ev), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1:3] == [f"0,{240001 * 640 * 480 - 2}", "1,2"]


def test_eval_of_a_maximal_sensor_at_1_mhz(tmp_path):
    # two events 2**32 - 1 us apart: counts over 2 x pixels x ticks would
    # need an index past int64
    ev = tmp_path / "long.evt1"
    formats.write_evt1(core.EventList.from_arrays(
        65535, 65535, t=[0, 2**32 - 1], x=[0, 65534], y=[0, 65534], p=[1, -1]), ev)
    out = tmp_path / "r" / "eval.csv"
    assert run("eval", str(ev), str(ev), "--out", str(out),
               "--set", "eval.fps=1e6") == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["eval.csv", "run.cfg"]
    assert out.read_text().splitlines() == [
        "metric,value", "emd,0", "count_ratio,1", "pos_ratio,1", "neg_ratio,1",
        f"pixels,{65535 ** 2}"]


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


def test_exit_codes(tmp_path, capsys):
    # usage: unknown flag / missing args -> 1
    assert run("simulate", "--out", str(tmp_path / "x.evt1")) == 1
    assert run("frobnicate", "--out", "x") == 1
    # config: unknown key -> 1
    assert run("gen", "--out", str(tmp_path / "y.fseq"),
               "--set", "scene.bogus=1") == 1
    # data: missing input file -> 2, with one line
    capsys.readouterr()
    missing = str(tmp_path / "missing.evt1")
    for argv in (["simulate", str(tmp_path / "missing.fseq")],
                 ["eval", missing, missing]):
        assert run(*argv, "--out", str(tmp_path / "z.evt1")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evsynth: ")
    # data: wrong magic -> 2
    bad = tmp_path / "bad.fseq"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert run("simulate", str(bad), "--out", str(tmp_path / "w.evt1")) == 2
    # usage: bad worker count -> 1
    assert run("gen", "--out", str(tmp_path / "v.fseq"), "--workers", "0") == 1


@pytest.mark.parametrize("record", ["-1,0,0,1", "5,70000,0,1",
                                    "99999999999,0,0,1", "5,0,0,300"])
def test_out_of_range_csv_field_exits_2(tmp_path, capsys, record):
    ev = tmp_path / "f.csv"
    ev.write_text(f"t_us,x,y,p\n{record}\n")
    assert run("hist", str(ev), "--out", str(tmp_path / "h.csv")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")


def test_non_utf8_csv_exits_2(tmp_path, capsys):
    ev = tmp_path / "f.csv"
    ev.write_bytes(b"t_us,x,y,p\n\xff,0,0,1\n")
    assert run("hist", str(ev), "--out", str(tmp_path / "h.csv")) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")


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


def test_train_lambda_checked_before_the_dataset(tmp_path, capsys, monkeypatch):
    import evsynth.cli as cli_mod

    def no_dataset(*args, **kwargs):
        raise AssertionError("make_dataset ran before train.lambda was checked")

    monkeypatch.setattr(cli_mod.train_mod, "make_dataset", no_dataset)
    assert run("train", "--out", str(tmp_path / "r"), "--lambda", "-1") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")


@pytest.mark.parametrize("bad", [["--lambda", "-1"], ["--set", "train.lambda=-1"]],
                         ids=["flag", "set"])
def test_train_lambda_error_names_the_key(tmp_path, capsys, bad):
    assert run("train", "--out", str(tmp_path / "r"), *bad) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: lambda")
    assert "count_weight" not in lines[0]


@pytest.mark.parametrize("command,bad", [
    ("simulate", ["--theta", "-1"]), ("infer", ["--set", "net.v0_mode=bogus"]),
], ids=["simulate", "infer"])
def test_config_checked_before_the_clip_is_read(tmp_path, capsys, monkeypatch,
                                                command, bad):
    ckpt = tmp_path / "m.evsn"
    cfg = SpikeNetConfig(channels=4, kernel=3, depth=1)
    spikenet.save_checkpoint(ckpt, init_params(cfg, 0), cfg)
    clip = _gen_moving(tmp_path)

    def no_clip(*args, **kwargs):
        raise AssertionError("the clip was opened before the config was checked")

    monkeypatch.setattr(formats, "fseq_reader", no_clip)
    inputs = [str(clip)] + ([str(ckpt)] if command == "infer" else [])
    assert run(command, *inputs, "--out", str(tmp_path / "o.evt1"), *bad) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_writes_no_checkpoint(tmp_path, capsys):
    out = tmp_path / "r"
    assert run("train", "--out", str(out), "--epochs", "2",
               "--set", "scene.width=4", "--set", "scene.height=4",
               "--set", "scene.duration=0.02", "--set", "train.lr=1e300") == 3
    assert capsys.readouterr().err.startswith("evsynth: ")
    assert not out.exists()


def test_diverging_train_prints_one_line(tmp_path):
    # a subprocess, since pytest would capture numpy's RuntimeWarnings
    env = dict(os.environ, PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "evsynth.cli", "train", "--out",
         str(tmp_path / "r"), "--set", "scene.width=4", "--set", "scene.height=4",
         "--set", "scene.duration=0.02", "--set", "train.lr=1e300"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")


_SWEEP_VALUES = ("0", "-1", "nan", "inf", "-inf", "", "1e300")
_HUGE_INT = str(2**64)  # one past the u64 keys of rng.hash_u64
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
] + [
    pytest.param(command, ["--set", f"{sec}.{key}={_HUGE_INT}"],
                 id=f"{command}-{sec}.{key}={_HUGE_INT}")
    for sec, keys in DEFAULTS.items() for key, default in keys.items()
    # every int key but train.epochs: 2**64 epochs is a long run, not a bad value
    if type(default) is int and key != "epochs"
    for command in _SWEEP_ROUTES[sec]
] + [pytest.param(command, ["--seed", value], id=f"{command}-seed={value}")
     for value in ("-1", _HUGE_INT)
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
    ("simulate", "--set sim.leak_rate=inf"), ("eval", "--set eval.fps=1e300"),
    ("gen", "--set scene.width=70000"),
    ("gen", "--set scene.fps=1e39 --set scene.duration=2e-36"),
    ("gen", "--set scene.fps=2e6"),
    ("gen", "--set scene.velocity=1e308"),
    ("gen", "--set scene.kind=grating --set scene.spatial_freq=1e308"),
    ("gen", "--set scene.kind=flashing_light --set scene.flash_period=0"),
    ("simulate", "--set lum.rho_log=1e-320"),  # ln(rho)/rho overflows
    ("simulate", "--set sim.theta=1e300 --set sim.sigma_theta=1e10"),
    # leak and shot events in one tick push a potential past float64
    ("simulate", "--set sim.theta=1e308 --set sim.leak_rate=500 --set sim.shot_rate=500"),
    # the shorthand flags parse like --set
    ("simulate", "--theta abc"), ("train", "--lambda nan"), ("train", "--epochs 2.5"),
])
def test_out_of_range_value_exits_1(tmp_path, capsys, sweep_inputs, command,
                                    bad):
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code = main(_sweep_argv(command, sweep_inputs, tmp_path) + bad.split())
    lines = capsys.readouterr().err.splitlines() + [str(w.message) for w in warned]
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines


@pytest.mark.parametrize("argv", [
    ["hist", "{ev}", "--set", "eval.buckets=4294967296"],  # 32 GiB of counters
    ["gen", "--set", "scene.width=65535", "--set", "scene.height=65535",
     "--set", "scene.duration=0.002"],  # two 65535x65535 float64 frames
], ids=["hist", "gen"])
def test_allocation_past_memory_exits_2(tmp_path, sweep_inputs, argv):
    # the address-space cap is set in the child only, so the allocation fails
    # at once instead of paging
    cap = 3 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "evsynth.cli",
         *[a.format(ev=sweep_inputs[1]) for a in argv],
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("evsynth: Unable to allocate"), lines


def test_fseq_fps_above_1e6_exits_2(tmp_path, capsys):
    # two 8x8 frames at 4e6 fps: ticks closer than a microsecond timestamp
    clip = tmp_path / "fast.fseq"
    clip.write_bytes(struct.pack("<4sHHHIfB", b"FSEQ", 1, 8, 8, 2, 4e6, 3)
                     + np.full(2 * 8 * 8 * 3, 0.5, "<f4").tobytes())
    assert main(["simulate", str(clip), "--out", str(tmp_path / "ev.evt1")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: ")


@pytest.mark.parametrize("width,height", [(0, 4), (4, 0)])
@pytest.mark.parametrize("command", ["simulate", "infer"])
def test_fseq_of_zero_width_or_height_exits_2(tmp_path, capsys, command,
                                               width, height):
    clip = tmp_path / "empty.fseq"
    clip.write_bytes(struct.pack("<4sHHHIfB", b"FSEQ", 1, width, height, 2, 1000.0, 3))
    cfg = SpikeNetConfig(channels=2, kernel=3, depth=1)
    spikenet.save_checkpoint(tmp_path / "m.evsn", init_params(cfg, 1), cfg)
    args = [command, str(clip)] + ([str(tmp_path / "m.evsn")] if command == "infer" else [])
    assert main([*args, "--out", str(tmp_path / "ev.evt1")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines
    assert f"frame size {width}x{height} is empty" in lines[0]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid 8x8 FSEQ, EVSN and EVT1 files for the reader fuzzer."""
    d = tmp_path_factory.mktemp("fuzz")
    gen = np.random.default_rng(3)
    formats.write_fseq(core.FrameSeq(8, 8, 1000.0, gen.uniform(
        0.1, 1.0, (3, 8, 8, 3))), d / "ok.fseq")
    cfg = SpikeNetConfig(channels=2, kernel=3, depth=1)
    spikenet.save_checkpoint(d / "ok.evsn", init_params(cfg, 1), cfg)
    spikes = gen.choice([-1, 0, 0, 0, 1], (4, 8, 8)).astype(np.int8)
    formats.write_evt1(core.dense_to_sparse(core.SpikeTrain(8, 8, 1000.0, spikes)),
                       d / "ok.evt1")
    return d


# command -> (kind of the mutated file, the arguments before it)
_FUZZ_ROUTES = {"simulate": ("fseq", ["simulate"]),
                "infer": ("evsn", ["infer", "{dir}/ok.fseq"]),
                "hist": ("evt1", ["hist"]),
                "eval": ("evt1", ["eval", "{dir}/ok.evt1"])}


@settings(max_examples=300)
@given(command=st.sampled_from(sorted(_FUZZ_ROUTES)),
       mutation=st.one_of(  # 1-3 (position, xor mask) edits, a length, or
           st.lists(st.tuples(st.integers(0, 4095), st.integers(1, 255)),
                    min_size=1, max_size=3),
           st.integers(0, 4095),
           st.integers(1, 2**20).map(bytes)))  # zero bytes to append
@example(command="hist", mutation=[(7, 0xFF), (9, 0xFF)])  # 65288x65288 sensor
@example(command="eval", mutation=[(7, 0xFF), (9, 0xFF)])
@example(command="infer", mutation=bytes(2**20))
def test_mutated_input_file_exits_0_or_2(fuzz_dir, command, mutation):
    kind, args = _FUZZ_ROUTES[command]
    data = bytearray((fuzz_dir / f"ok.{kind}").read_bytes())
    if isinstance(mutation, int):
        data = data[:mutation % len(data)]
    elif isinstance(mutation, bytes):
        data += mutation
    else:
        for pos, mask in mutation:
            data[pos % len(data)] ^= mask
    bad = fuzz_dir / f"bad.{kind}"
    bad.write_bytes(bytes(data))
    argv = [a.format(dir=fuzz_dir) for a in args]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code = main([*argv, str(bad), "--out", str(fuzz_dir / "out" / "o.csv")])
    lines = err.getvalue().splitlines() + [str(w.message) for w in warned]
    assert code in (0, 2)
    if code:
        assert len(lines) == 1 and lines[0].startswith("evsynth: "), lines
    else:
        assert lines == []


def test_evsn_with_50mb_appended_exits_2_holding_none_of_it(fuzz_dir, tmp_path, capsys):
    model = tmp_path / "long.evsn"
    model.write_bytes((fuzz_dir / "ok.evsn").read_bytes())
    size = model.stat().st_size
    os.truncate(model, size + 50_000_000)  # zeros, sparse on disk
    assert main(["infer", str(fuzz_dir / "ok.fseq"), str(model),
                 "--out", str(tmp_path / "o.evt1")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"evsynth: {model}: expected {size - 30} tensor-table bytes, "
                     f"got {size - 30 + 50_000_000}"]

    def refuse():
        with pytest.raises(FormatError, match="tensor-table bytes"):
            spikenet.load_checkpoint(model)
    _, peak = traced_peak(refuse)
    assert peak < 2**20


def test_cli_import_adds_neither_ctypes_nor_thread_pools():
    # infer imports them when it runs, so no command's start-up pays for
    # them; numpy may load ctypes itself, so only evsynth's own imports count
    code = ("import sys, numpy; pre = set(sys.modules); import evsynth.cli; "
            "print(sorted({'ctypes', 'concurrent.futures'} & (set(sys.modules) - pre)))")
    env = dict(os.environ, PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_import_adds_no_other_command_modules():
    # evsynth/__init__ imports nothing, so eval's modules load without the
    # network, the trainer, the reference simulator or the scene renderer
    code = ("import sys; import evsynth.metrics; print(sorted({'evsynth.spikenet', "
            "'evsynth.train', 'evsynth.refsim', 'evsynth.scenegen'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
