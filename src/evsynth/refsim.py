"""Physics-based reference event simulator: training-target generator and oracle.

Each pixel is a perfect integrator (no leak) over log-luminance differences
with a per-pixel contrast threshold, reset by subtraction, and at most one
spike per tick -- so a large instantaneous change drains out as a train of
consecutive spikes (the saturation effect).  Optional per-pixel threshold
mismatch, randomized initial state, and leak/shot noise events model the
remaining sensor non-idealities.

All randomness is counter-based: each pixel's (seed, y, x) key is hashed once
and every draw folds its tick and salt onto it, so the output depends on
nothing but the config and the input.
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


def pixel_thresholds(cfg: RefSimConfig, height: int, width: int) -> np.ndarray:
    """Per-pixel thresholds theta_p = max(theta + N(0, sigma*theta), theta/4)."""
    return _thresholds(cfg, rng.pixel_key(cfg.seed, height, width))


def _thresholds(cfg: RefSimConfig, key: np.ndarray) -> np.ndarray:
    z = rng.unit_normal(rng.fold(key, _SALT_THRESH))
    return np.maximum(cfg.theta + cfg.sigma_theta * cfg.theta * z, cfg.theta / 4.0)


def _simulate_rows(x: np.ndarray, fps: float, cfg: RefSimConfig, key: np.ndarray,
                   theta_p: np.ndarray, v: np.ndarray, t0: int) -> np.ndarray:
    """Fold the sensor model over x (K, H, W), ticks t0..t0+K-1 of a clip,
    given each pixel's hashed (seed, y, x) key; returns the (K, H, W) spikes
    and leaves the final membrane potentials in v, float64, which x's
    float32 rows widen into exactly."""
    p_leak = cfg.leak_rate / fps
    p_shot = cfg.shot_rate / fps
    out = np.empty(x.shape, dtype=np.int8)
    for t in range(x.shape[0]):
        v += x[t]
        if p_leak > 0 or p_shot > 0:
            h = rng.fold(key, t0 + t)  # shared by this tick's leak, shot and sign draws
        if p_leak > 0:
            hit = rng.unit_uniform(rng.fold(h, _SALT_LEAK)) < p_leak
            v += np.where(hit, theta_p, 0.0)
        if p_shot > 0:
            hit = np.nonzero(rng.unit_uniform(rng.fold(h, _SALT_SHOT)) < p_shot)
            sign = np.where(rng.unit_uniform(rng.fold(h[hit], _SALT_SHOT_SIGN)) < 0.5,
                            1.0, -1.0)
            v[hit] += sign * theta_p[hit]
        s = (v >= theta_p).astype(np.int8) - (v <= -theta_p).astype(np.int8)
        out[t] = s
        v -= s * theta_p
    return out


def simulate_blocks(xs, height: int, width: int, fps: float, cfg: RefSimConfig):
    """Run the sensor model over xs, the (m, H, W) blocks of a log-difference
    sequence in tick order, with the membrane carried from block to block;
    yields (spikes, v) per block: its int8 (m, H, W) spikes and the membrane
    potentials (H, W) after it, an array the next block updates.

    Every draw is keyed by its tick in the whole sequence, so the spikes do
    not depend on where the blocks split it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        key = rng.pixel_key(cfg.seed, height, width)
        theta_p = _thresholds(cfg, key)
        if cfg.init_mode == "zero":
            v = np.zeros_like(theta_p)
        else:
            v = (2.0 * rng.unit_uniform(rng.fold(key, _SALT_INIT)) - 1.0) * theta_p
    t0 = 0
    for x in xs:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _simulate_rows(x, fps, cfg, key, theta_p, v, t0)
        # a non-finite threshold or potential leaves inf or nan in v for good
        if not np.isfinite(v).all():
            raise ConfigError("thresholds or membrane potentials overflow; lower theta")
        t0 += len(x)
        yield out, v


def simulate(x: LogDiffSeq, cfg: RefSimConfig, return_state: bool = False):
    """Run the sensor model over a LogDiffSeq, as one block of
    simulate_blocks; returns a SpikeTrain.

    With return_state=True also returns the final membrane potentials
    (H, W) -- handy for the conservation identity theta*sum(S) + v = sum(X).
    """
    (out, v), = simulate_blocks([x.data], x.height, x.width, x.fps, cfg)
    train = SpikeTrain(x.width, x.height, x.fps, out)
    return (train, v) if return_state else train


def naive_baseline(x: LogDiffSeq, theta: float) -> SpikeTrain:
    """Stateless per-tick thresholding of frame differences (the strawman)."""
    d = x.data
    s = (d >= theta).astype(np.int8) - (d <= -theta).astype(np.int8)
    return SpikeTrain(x.width, x.height, x.fps, s)
