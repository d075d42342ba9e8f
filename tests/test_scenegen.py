import numpy as np
import pytest

from evsynth import core, rng, scenegen
from evsynth.core import FrameSeq
from evsynth.errors import ConfigError
from evsynth.scenegen import (NoiseModel, SceneSpec, add_render_noise,
                              bar_edges, gen_scene)

from conftest import traced_peak


def spec(kind="moving_edge", **kw):
    base = dict(width=32, height=16, fps=100.0, duration=0.2, seed=3)
    base.update(kw)
    return SceneSpec(kind, **base)


def test_static_scene_all_frames_identical():
    f = gen_scene(spec(velocity=0.0))
    assert np.array_equal(f.frames, np.broadcast_to(f.frames[0], f.frames.shape))


def test_determinism_bit_identical():
    a = gen_scene(spec("mixed", seed=9))
    b = gen_scene(spec("mixed", seed=9))
    assert np.array_equal(a.frames, b.frames)
    c = gen_scene(spec("mixed", seed=10))
    assert not np.array_equal(a.frames, c.frames)


def test_frames_in_unit_range():
    for kind in ("moving_edge", "grating", "flashing_light", "mixed"):
        f = gen_scene(spec(kind, contrast=1.0))
        assert f.frames.min() >= 0.0 and f.frames.max() <= 1.0


def test_grating_shifts_by_velocity_over_fps():
    # 1 px per frame, pattern period divides the width -> frame k == roll(frame 0, k)
    s = spec("grating", velocity=100.0, fps=100.0, spatial_freq=4 / 32)
    f = gen_scene(s)
    for k in (1, 5, 11):
        assert np.allclose(f.frames[k], np.roll(f.frames[0], k, axis=1), atol=1e-6)


def test_moving_edge_tracks_analytic_trajectory():
    s = spec(velocity=55.0)
    f = gen_scene(s)
    gray = f.frames[..., 0]
    lo, hi = s.levels()
    mid = 0.5 * (lo + hi)
    for k in (0, 7, 19):
        lead, trail = bar_edges(s, k)
        changed = np.nonzero(np.abs(gray[k, 0] - gray[k - 1, 0]) > 1e-9)[0] if k else []
        for col in changed:
            d = min((col - lead) % s.width, (lead - col) % s.width,
                    (col - trail) % s.width, (trail - col) % s.width)
            assert d <= 1.5  # changes happen only at the bar edges


def test_flashing_light_toggles_rect_only():
    s = spec("flashing_light", fps=100.0, duration=0.3, flash_period=0.1)
    f = gen_scene(s)
    gray = f.frames[..., 0]
    lo, hi = s.levels()
    assert set(np.unique(gray)) == {np.float32(lo), np.float32(hi)}
    # background never changes
    assert np.all(gray[:, 0, 0] == gray[0, 0, 0])
    # the flash region actually toggles
    assert len(np.unique(gray[:, s.height // 2, s.width // 2])) == 2


def test_config_errors():
    with pytest.raises(ConfigError):
        SceneSpec("moving_edge", 0, 16, 100.0, 0.2)
    with pytest.raises(ConfigError):
        SceneSpec("wobble", 16, 16, 100.0, 0.2)
    with pytest.raises(ConfigError):
        SceneSpec("grating", 16, 16, 100.0, 0.005)  # < 2 frames


def test_zero_gain_noise_is_identity():
    f = gen_scene(spec())
    noisy = add_render_noise(f, NoiseModel(spp=64, gain=0.0, seed=1))
    assert np.array_equal(noisy.frames, f.frames)


def test_noise_std_scales_with_inverse_sqrt_spp():
    # constant 0.5 field; sample std ratio between spp=64 and spp=2048 is sqrt(32)
    frames = np.full((13, 64, 64, 3), 0.5, np.float32)
    f = type(gen_scene(spec()))(64, 64, 1000.0, frames)
    lo = add_render_noise(f, NoiseModel(spp=64, gain=0.5, seed=5))
    hi = add_render_noise(f, NoiseModel(spp=2048, gain=0.5, seed=5))
    ratio = lo.frames.std() / hi.frames.std()
    assert ratio == pytest.approx(np.sqrt(32.0), rel=0.10)
    # and the absolute std matches gain/sqrt(spp) * value
    assert lo.frames.std() == pytest.approx(0.5 / 8 * 0.5, rel=0.05)


def test_noise_is_unbiased():
    frames = np.full((25, 64, 64, 3), 0.5, np.float32)
    f = type(gen_scene(spec()))(64, 64, 1000.0, frames)
    noisy = add_render_noise(f, NoiseModel(spp=64, gain=0.5, seed=7))
    n = noisy.frames.size
    sigma = 0.5 / 8 * 0.5
    assert abs(noisy.frames.mean() - 0.5) < 3 * sigma / np.sqrt(n)


def test_noise_deterministic_per_coordinate():
    f = gen_scene(spec())
    m = NoiseModel(spp=64, gain=0.5, seed=2)
    a = add_render_noise(f, m)
    b = add_render_noise(f, m)
    assert np.array_equal(a.frames, b.frames)
    # restricting to a sub-stack reproduces the same values (schedule independence)
    sub = type(f)(f.width, f.height, f.fps, f.frames[:3])
    c = add_render_noise(sub, m)
    assert np.array_equal(c.frames, a.frames[:3])


def _noise_oracle(f, m):
    """The whole-clip formula add_render_noise computes in frame blocks."""
    n, h, w, _ = f.frames.shape
    z = rng.unit_normal(rng.hash_u64(m.seed, *np.ogrid[:n, :h, :w, :3],
                                     scenegen._SALT_NOISE))
    return np.maximum(f.frames.astype(np.float64) * (1.0 + m.sigma * z), 0.0)


# 7 frames of 2x3 pixels, 18 noise values each: blocks of 3, 3 and 1 frames,
# and a block smaller than one frame, which then steps by 1 frame
@pytest.mark.parametrize("block", [54, 10, None], ids=["3-frames", "sub-frame", "default"])
def test_blocked_render_noise_equals_the_whole_clip_formula(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    gen = np.random.default_rng(4)
    f = FrameSeq(3, 2, 100.0, gen.uniform(0, 1, (7, 2, 3, 3)))
    m = NoiseModel(spp=4, gain=0.8, seed=6)
    want = _noise_oracle(f, m).astype(np.float32)
    assert np.array_equal(add_render_noise(f, m).frames, want)


@pytest.mark.parametrize("block", [54, 10], ids=["3-frames", "sub-frame"])
def test_render_noise_overflow_in_the_last_block_raises(monkeypatch, block):
    monkeypatch.setattr(core, "_BLOCK_VALUES", block)
    frames = np.ones((7, 2, 3, 3), np.float32)
    frames[-1] = 3e38
    f, m = FrameSeq(3, 2, 100.0, frames), NoiseModel(spp=1, gain=2.0, seed=1)
    noisy = _noise_oracle(f, m)
    assert noisy[:-1].max() <= np.finfo(np.float32).max < noisy[-1].max()
    with pytest.raises(ConfigError, match="^render noise overflows float32 frames"):
        add_render_noise(f, m)


# Peak bounds on mixed 64x64x251: each stage holds its output and one block.
_CLIP = SceneSpec("mixed", 64, 64, 1000.0, 0.251, seed=2)


def test_gen_scene_peak_is_bounded_by_its_output():
    # the output and one block's float64 gray frames, plus a mixed strip's
    f, peak = traced_peak(gen_scene, _CLIP)
    assert peak < f.frames.nbytes + 4 * 8 * core._BLOCK_VALUES


def test_render_noise_peak_is_its_output_plus_one_block():
    # float64 temporaries of one block, a handful of 8-byte values each
    f = gen_scene(_CLIP)
    out, peak = traced_peak(add_render_noise, f, NoiseModel(seed=3))
    assert peak < out.frames.nbytes + 12 * 8 * core._BLOCK_VALUES
