"""Physics-based reference event simulator: training-target generator and oracle.

Each pixel is a perfect integrator (no leak) over log-luminance differences
with a per-pixel contrast threshold, reset by subtraction, and at most one
spike per tick -- so a large instantaneous change drains out as a train of
consecutive spikes (the saturation effect).  Optional per-pixel threshold
mismatch, randomized initial state, and leak/shot noise events model the
remaining sensor non-idealities.

All randomness is counter-based on (seed, y, x[, tick]), so the output depends
on nothing but the config and the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import LogDiffSeq, SpikeTrain
from .errors import ConfigError

_SALT_THRESH = 21
_SALT_INIT = 22
_SALT_LEAK = 23
_SALT_SHOT = 24
_SALT_SHOT_SIGN = 25

INIT_MODES = ("zero", "uniform")


@dataclass(frozen=True)
class RefSimConfig:
    theta: float = 0.2        # contrast threshold, log-luminance units
    sigma_theta: float = 0.03  # relative per-pixel threshold mismatch std
    init_mode: str = "zero"   # "zero" or "uniform" initial internal state
    leak_rate: float = 0.1    # spurious positive events / s / pixel
    shot_rate: float = 1.0    # random-sign noise events / s / pixel
    seed: int = 0

    def __post_init__(self):
        if not self.theta > 0:
            raise ConfigError("theta must be positive")
        if self.sigma_theta < 0 or self.leak_rate < 0 or self.shot_rate < 0:
            raise ConfigError("sigma_theta and noise rates must be >= 0")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def pixel_thresholds(cfg: RefSimConfig, height: int, width: int) -> np.ndarray:
    """Per-pixel thresholds theta_p = max(theta + N(0, sigma*theta), theta/4)."""
    ys = np.arange(height, dtype=np.uint64)[:, None]
    xs = np.arange(width, dtype=np.uint64)[None, :]
    z = rng.unit_normal(cfg.seed, ys, xs, _SALT_THRESH)
    return np.maximum(cfg.theta + cfg.sigma_theta * cfg.theta * z, cfg.theta / 4.0)


def initial_state(cfg: RefSimConfig, theta_p: np.ndarray) -> np.ndarray:
    if cfg.init_mode == "zero":
        return np.zeros_like(theta_p)
    h, w = theta_p.shape
    ys = np.arange(h, dtype=np.uint64)[:, None]
    xs = np.arange(w, dtype=np.uint64)[None, :]
    u = rng.unit_uniform(cfg.seed, ys, xs, _SALT_INIT)
    return (2.0 * u - 1.0) * theta_p


def _simulate_rows(x: np.ndarray, fps: float, cfg: RefSimConfig,
                   theta_p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fold the sensor model over x (K, H, W); returns the (K, H, W) spikes
    and leaves the final membrane potentials in v."""
    k, h, w = x.shape
    ys = np.arange(h, dtype=np.uint64)[:, None]
    xs = np.arange(w, dtype=np.uint64)[None, :]
    p_leak = cfg.leak_rate / fps
    p_shot = cfg.shot_rate / fps
    out = np.empty((k, h, w), dtype=np.int8)
    for t in range(k):
        v += x[t]
        if p_leak > 0:
            hit = rng.unit_uniform(cfg.seed, ys, xs, t, _SALT_LEAK) < p_leak
            v += np.where(hit, theta_p, 0.0)
        if p_shot > 0:
            hit = rng.unit_uniform(cfg.seed, ys, xs, t, _SALT_SHOT) < p_shot
            sign = np.where(rng.unit_uniform(cfg.seed, ys, xs, t, _SALT_SHOT_SIGN) < 0.5,
                            1.0, -1.0)
            v += np.where(hit, sign * theta_p, 0.0)
        s = (v >= theta_p).astype(np.int8) - (v <= -theta_p).astype(np.int8)
        out[t] = s
        v -= s * theta_p
    return out


def simulate(x: LogDiffSeq, cfg: RefSimConfig, return_state: bool = False):
    """Run the sensor model over a LogDiffSeq; returns a SpikeTrain.

    With return_state=True also returns the final membrane potentials
    (H, W) -- handy for the conservation identity theta*sum(S) + v = sum(X).
    """
    theta_p = pixel_thresholds(cfg, x.height, x.width)
    v = initial_state(cfg, theta_p)
    out = _simulate_rows(x.data.astype(np.float64), x.fps, cfg, theta_p, v)
    train = SpikeTrain(x.width, x.height, x.fps, out)
    return (train, v) if return_state else train


def naive_baseline(x: LogDiffSeq, theta: float) -> SpikeTrain:
    """Stateless per-tick thresholding of frame differences (the strawman)."""
    d = x.data
    s = (d >= theta).astype(np.int8) - (d <= -theta).astype(np.int8)
    return SpikeTrain(x.width, x.height, x.fps, s)
