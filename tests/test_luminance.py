import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evsynth import core
from evsynth.core import FrameSeq
from evsynth.luminance import LuminanceConfig, lin_log, log_diff_sequence, luma
from evsynth.scenegen import SceneSpec, gen_scene

from conftest import traced_peak


def test_luma_coefficients():
    assert luma([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert luma([1.0, 0.0, 0.0]) == pytest.approx(0.2126)
    assert luma([0.0, 1.0, 0.0]) == pytest.approx(0.7152)
    assert luma([0.0, 0.0, 1.0]) == pytest.approx(0.0722)


def test_lin_log_at_one_is_zero():
    for rho in (0.01, 0.02, 0.5):
        assert lin_log(1.0, LuminanceConfig(rho)) == 0.0


def test_lin_log_knee_continuity():
    cfg = LuminanceConfig(0.02)
    # both branches agree exactly at the knee
    assert lin_log(0.02, cfg) == pytest.approx(math.log(0.02), abs=0.0)
    assert lin_log(0.02, cfg) == pytest.approx(-3.9120, abs=5e-5)


def test_lin_log_linear_branch():
    cfg = LuminanceConfig(0.02)
    assert lin_log(0.01, cfg) == pytest.approx(0.5 * math.log(0.02))
    assert lin_log(0.01, cfg) == pytest.approx(-1.9560, abs=5e-5)
    assert lin_log(0.0, cfg) == 0.0


@given(st.floats(0.001, 0.99), st.lists(st.floats(1e-6, 100.0), min_size=2,
                                        max_size=20))
def test_lin_log_piecewise_shape(rho, values):
    # strictly increasing on [rho, inf); exactly the chord line below the knee
    cfg = LuminanceConfig(rho)
    v = np.sort(np.unique(np.asarray(values)))
    out = lin_log(v, cfg)
    above = v >= rho
    assert np.all(np.diff(out[above]) > 0)
    below = ~above
    assert np.allclose(out[below], np.log(rho) / rho * v[below], rtol=1e-12)


def _gray_seq(values, fps=1000.0):
    frames = np.repeat(np.asarray(values, np.float32)[:, None, None, None],
                       3, axis=-1)
    return FrameSeq(1, 1, fps, frames)


def test_constant_video_gives_zero_diffs():
    x = log_diff_sequence(_gray_seq([0.3, 0.3, 0.3, 0.3]))
    assert np.all(x.data == 0)


def test_doubling_luminance_gives_ln2():
    x = log_diff_sequence(_gray_seq([0.2, 0.4]), LuminanceConfig(0.02))
    assert x.data[0, 0, 0] == pytest.approx(math.log(2.0), rel=1e-6)
    assert x.k == 1


def test_telescoping_sum(rng):
    # monotone luminance walk, K up to 1e4: prefix sum recovers the
    # end-to-end log-luminance change within 1e-5 relative
    k = 10_000
    values = np.cumsum(rng.uniform(1e-5, 2e-4, size=k + 1)) + 0.05
    seq = _gray_seq(values)
    cfg = LuminanceConfig(0.02)
    x = log_diff_sequence(seq, cfg)
    total = float(x.data[:, 0, 0].astype(np.float64).sum())
    expect = lin_log(luma(seq.frames[-1, 0, 0]), cfg) - lin_log(luma(seq.frames[0, 0, 0]), cfg)
    assert total == pytest.approx(expect, rel=1e-5)


def test_random_video_telescoping(rng):
    frames = rng.uniform(0.0, 1.0, size=(64, 4, 5, 3)).astype(np.float32)
    seq = FrameSeq(5, 4, 500.0, frames)
    cfg = LuminanceConfig()
    x = log_diff_sequence(seq, cfg)
    total = x.data.astype(np.float64).sum(axis=0)
    expect = lin_log(luma(seq.frames[-1]), cfg) - lin_log(luma(seq.frames[0]), cfg)
    assert np.allclose(total, expect, atol=1e-4)


def test_rho_out_of_range_rejected():
    with pytest.raises(ValueError):
        LuminanceConfig(0.0)
    with pytest.raises(ValueError):
        LuminanceConfig(1.5)


def test_config_is_frozen():
    # the default instance is shared by lin_log, log_diff_sequence and
    # make_dataset, so a field set on it would change every later call
    with pytest.raises(dataclasses.FrozenInstanceError):
        LuminanceConfig().rho_log = 0.5


# 8 frames of 2x3 pixels, 4 values per pixel: blocks of 3, 3 and 1 frames
# after the first, and a block smaller than one frame, which then steps by 1
@pytest.mark.parametrize("block", [72, 16, None], ids=["3-frames", "sub-frame", "default"])
def test_blocked_log_diff_equals_the_whole_clip_diff(monkeypatch, rng, block):
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    frames = rng.uniform(0.0, 0.06, size=(8, 2, 3, 3))  # both sides of the knee
    frames[2, 0] = 0.0
    f = FrameSeq(3, 2, 1000.0, frames)
    cfg = LuminanceConfig(0.02)
    want = np.diff(lin_log(luma(f.frames), cfg), axis=0).astype(np.float32)
    assert np.array_equal(log_diff_sequence(f, cfg).data, want)


def test_log_diff_peak_is_its_output_plus_one_block():
    # a block's float64 RGB copy, luma and lin-log temporaries
    f = gen_scene(SceneSpec("mixed", 64, 64, 1000.0, 0.251, seed=2))
    x, peak = traced_peak(log_diff_sequence, f)
    assert peak < x.data.nbytes + 8 * 8 * core._BLOCK_VALUES // 4
