"""Procedural high-FPS test scenes plus a render-noise model.

Stands in for a path-traced renderer at desk scale: every scene has closed-form
motion, so ground-truth edge positions are known exactly, and the noise model
mimics Monte Carlo variance decay (std ~ gain/sqrt(spp)) without rendering
anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import FrameSeq
from .errors import ConfigError

KINDS = ("moving_edge", "grating", "flashing_light", "mixed")

_SALT_NOISE = 11


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    width: int
    height: int
    fps: float
    duration: float             # seconds
    velocity: float = 120.0     # px/s
    spatial_freq: float = 0.0625  # cycles/px
    flash_period: float = 0.1   # seconds
    contrast: float = 0.9       # in [0, 1]
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scene kind {self.kind!r}")
        if self.width <= 0 or self.height <= 0 or self.fps <= 0:
            raise ConfigError("dims and fps must be positive")
        if not 0 <= self.contrast <= 1:
            raise ConfigError("contrast must lie in [0, 1]")
        if not np.isfinite(self.velocity):
            raise ConfigError("velocity must be finite")
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
        if self.spp < 1:
            raise ConfigError("spp must be >= 1")
        if self.gain < 0:
            raise ConfigError("gain must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

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


def _interval_coverage(lo: float, hi: float, width: int) -> np.ndarray:
    """Covered fraction of each unit pixel [i, i+1) by [lo, hi) mod width."""
    cols = np.arange(width, dtype=np.float64)

    def seg(a, b):
        return np.clip(b - cols, 0.0, 1.0) - np.clip(a - cols, 0.0, 1.0)

    span = hi - lo
    lo %= width
    if lo + span <= width:
        return seg(lo, lo + span)
    return seg(lo, width) + seg(0.0, lo + span - width)


def _gray_frames(spec: SceneSpec) -> np.ndarray:
    lo, hi = spec.levels()
    n, w, h = spec.n_frames, spec.width, spec.height
    u = _phase(spec)
    ks = np.arange(n, dtype=np.float64)
    out = np.empty((n, h, w), dtype=np.float64)

    if spec.kind == "moving_edge":
        bw = bar_width(spec)
        for k in range(n):
            lead, _ = bar_edges(spec, k)
            row = lo + (hi - lo) * _interval_coverage(lead - bw, lead, w)
            out[k] = row
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
            sub = SceneSpec(kind, w, strip_h, spec.fps, spec.duration,
                            spec.velocity, spec.spatial_freq, spec.flash_period,
                            spec.contrast, spec.seed + i + 1)
            out[:, thirds[i]:thirds[i + 1], :] = _gray_frames(sub)
    return out


def gen_scene(spec: SceneSpec) -> FrameSeq:
    """Render the scene analytically; deterministic in spec (incl. seed)."""
    gray = _gray_frames(spec)
    frames = np.repeat(gray[..., None], 3, axis=-1).astype(np.float32)
    return FrameSeq(spec.width, spec.height, spec.fps, frames)


def add_render_noise(f: FrameSeq, m: NoiseModel) -> FrameSeq:
    """Multiplicative Gaussian noise, std gain/sqrt(spp), clamped at zero.

    Each noise value is a pure function of (seed, frame, y, x, channel), so
    frame- or row-partitioned generation is schedule independent.
    """
    if m.gain == 0.0:
        return FrameSeq(f.width, f.height, f.fps, f.frames.copy())
    n, h, w, _ = f.frames.shape
    z = rng.unit_normal(
        m.seed,
        np.arange(n, dtype=np.uint64)[:, None, None, None],
        np.arange(h, dtype=np.uint64)[None, :, None, None],
        np.arange(w, dtype=np.uint64)[None, None, :, None],
        np.arange(3, dtype=np.uint64)[None, None, None, :],
        _SALT_NOISE,
    )
    noisy = f.frames.astype(np.float64) * (1.0 + m.sigma * z)
    return FrameSeq(f.width, f.height, f.fps, np.maximum(noisy, 0.0).astype(np.float32))
