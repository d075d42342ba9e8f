"""Procedural high-FPS test scenes plus a render-noise model.

Stands in for a path-traced renderer at desk scale: every scene has closed-form
motion, so ground-truth edge positions are known exactly, and the noise model
mimics Monte Carlo variance decay (std ~ gain/sqrt(spp)) without rendering
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .core import F32_MAX, FrameSeq, check_fps, frame_blocks
from .errors import ConfigError

KINDS = ("moving_edge", "grating", "flashing_light", "mixed")

_SALT_NOISE = 11
_U16_MAX = 65535


@dataclass(frozen=True)
class SceneSpec:
    kind: str = "moving_edge"
    width: int = 64
    height: int = 64
    fps: float = 1000.0
    duration: float = 0.25      # seconds
    velocity: float = 120.0     # px/s
    spatial_freq: float = 0.0625  # cycles/px
    flash_period: float = 0.1   # seconds
    contrast: float = 0.9       # in [0, 1]
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scene kind {self.kind!r}")
        if not (0 < self.width <= _U16_MAX and 0 < self.height <= _U16_MAX):
            raise ConfigError("width and height must lie in [1, 65535] (FSEQ's u16)")
        check_fps(self.fps)
        if not 0 <= self.contrast <= 1:
            raise ConfigError("contrast must lie in [0, 1]")
        if not np.isfinite(self.velocity):
            raise ConfigError("velocity must be finite")
        if not 0 < self.flash_period < np.inf:
            raise ConfigError("flash_period must be finite and positive")
        if not self.duration * self.fps < 2**32 - 0.5:
            raise ConfigError("duration*fps exceeds FSEQ's u32 frame count")
        if self.n_frames < 2:
            raise ConfigError("duration*fps must cover at least 2 frames")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration * self.fps))

    def levels(self) -> tuple[float, float]:
        """Dark/bright radiance levels implied by the contrast setting."""
        return 0.5 - 0.45 * self.contrast, 0.5 + 0.45 * self.contrast


@dataclass(frozen=True)
class NoiseModel:
    spp: int = 64     # Monte Carlo samples per pixel being mimicked
    gain: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.spp < 2**63:
            raise ConfigError("spp must lie in [1, 2**63)")
        if self.gain < 0:
            raise ConfigError("gain must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")

    @property
    def sigma(self) -> float:
        return self.gain / np.sqrt(self.spp)


def _phase(spec: SceneSpec) -> np.ndarray:
    """Seed-derived scalars in [0,1) that randomize initial positions."""
    return np.random.Generator(np.random.PCG64(spec.seed)).random(3)


def bar_width(spec: SceneSpec) -> float:
    return spec.width / 4.0


def bar_edges(spec: SceneSpec, k) -> tuple[np.ndarray, np.ndarray]:
    """Leading/trailing x positions of the moving bar at frame k (closed form)."""
    u = _phase(spec)
    lead = (u[0] * spec.width + spec.velocity * np.asarray(k, np.float64) / spec.fps) % spec.width
    return lead, (lead - bar_width(spec)) % spec.width


def _interval_coverage(lo: np.ndarray, hi: np.ndarray, width: int) -> np.ndarray:
    """(len(lo), width) covered fraction of each pixel [i, i+1) by [lo, hi) mod width."""
    cols = np.arange(width, dtype=np.float64)

    def seg(a, b):
        return np.clip(b - cols, 0.0, 1.0) - np.clip(a - cols, 0.0, 1.0)

    span = (hi - lo)[:, None]
    lo = (lo % width)[:, None]
    # the part past width wraps to the start; it is exactly 0 when none does
    return seg(lo, lo + span) + seg(lo - width, lo + span - width)


def _gray_frames(spec: SceneSpec, ks: np.ndarray) -> np.ndarray:
    """The scene's gray frames ks (float64 frame indices), (len(ks), h, w)."""
    lo, hi = spec.levels()
    n, w, h = len(ks), spec.width, spec.height
    u = _phase(spec)
    out = np.empty((n, h, w), dtype=np.float64)

    if spec.kind == "moving_edge":
        lead, _ = bar_edges(spec, ks)
        cover = _interval_coverage(lead - bar_width(spec), lead, w)
        out[:] = (lo + (hi - lo) * cover)[:, None, :]
    elif spec.kind == "grating":
        x = np.arange(w, dtype=np.float64) + 0.5
        amp = 0.45 * spec.contrast
        shift = spec.velocity * ks / spec.fps
        arg = 2.0 * np.pi * (spec.spatial_freq * (x[None, :] - shift[:, None]) + u[1])
        out[:] = (0.5 + amp * np.sin(arg))[:, None, :]
    elif spec.kind == "flashing_light":
        t0 = u[2] * spec.flash_period
        on = ((ks / spec.fps + t0) % spec.flash_period) < 0.5 * spec.flash_period
        out[:] = lo
        y0, y1 = h // 4, h - h // 4
        x0, x1 = w // 4, w - w // 4
        out[on, y0:y1, x0:x1] = hi
    else:  # mixed: three horizontal strips, one per basic kind
        thirds = [0, h // 3, 2 * h // 3, h]
        for i, kind in enumerate(("moving_edge", "grating", "flashing_light")):
            strip_h = thirds[i + 1] - thirds[i]
            if strip_h == 0:
                continue
            sub = replace(spec, kind=kind, height=strip_h, seed=spec.seed + i + 1)
            out[:, thirds[i]:thirds[i + 1], :] = _gray_frames(sub, ks)
    return out


def render_blocks(spec: SceneSpec):
    """Render the scene analytically; deterministic in spec (incl. seed).
    Yields (a, frames a..b-1) as float32 RGB (b-a, H, W, 3) in the
    core.frame_blocks of three values per pixel, the rule of
    add_render_noise's blocks too, so each stage holds one block."""
    n, h, w = spec.n_frames, spec.height, spec.width
    for a, b in frame_blocks(n, 3 * h * w):
        with np.errstate(over="ignore", invalid="ignore"):
            gray = _gray_frames(spec, np.arange(a, b, dtype=np.float64))
        if not np.isfinite(gray).all():
            raise ConfigError("scene motion overflows; lower velocity or spatial_freq")
        frames = np.empty((b - a, h, w, 3), np.float32)
        frames[:] = gray[..., None]
        yield a, frames


def gen_scene(spec: SceneSpec) -> FrameSeq:
    """The scene's whole clip, from render_blocks."""
    frames = np.empty((spec.n_frames, spec.height, spec.width, 3), np.float32)
    for a, block in render_blocks(spec):
        frames[a:a + len(block)] = block
    return FrameSeq(spec.width, spec.height, spec.fps, frames)


def noise_block(frames: np.ndarray, a: int, m: NoiseModel) -> np.ndarray:
    """Frames a..a+len(frames)-1 of a clip, float32 (m, H, W, 3), with
    render noise: multiplicative Gaussian, std gain/sqrt(spp), clamped at
    zero.

    Each noise value is a pure function of (seed, frame, y, x, channel), so
    frame- or row-partitioned generation is schedule independent.
    """
    if m.gain == 0.0:
        return frames.copy()
    nb, h, w, _ = frames.shape
    z = rng.unit_normal(rng.hash_u64(m.seed, *np.ogrid[a:a + nb, :h, :w, :3], _SALT_NOISE))
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = np.maximum(frames.astype(np.float64) * (1.0 + m.sigma * z), 0.0)
    if not noisy.max() <= F32_MAX:
        raise ConfigError("render noise overflows float32 frames; lower the gain")
    return noisy.astype(np.float32)


def add_render_noise(f: FrameSeq, m: NoiseModel) -> FrameSeq:
    """noise_block over the clip in core.frame_blocks, at three values per
    pixel, so its temporaries stay one block's whatever the clip's length."""
    n, h, w, _ = f.frames.shape
    out = np.empty_like(f.frames)
    for a, b in frame_blocks(n, 3 * h * w):
        out[a:b] = noise_block(f.frames[a:b], a, m)
    return FrameSeq(f.width, f.height, f.fps, out)
