"""Training objectives for spike trains.

The 1D earth mover's distance between equal-length sequences is the mean
absolute difference of their prefix sums.  The bidirectional form averages the
forward and time-reversed distances (the forward-only form lets a train with
too few events hide the deficit at the end of the sequence); the polar form
splits positive and negative events into separate channels so opposite
polarities can never cancel.  A count term penalizes total-event mismatch.

Everything here operates on the last axis and accepts (K,) or (pixels, K)
arrays; predicted trains may hold relaxed real values during training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import frame_blocks
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class LossConfig:
    count_weight: float = 0.1  # weight of the count term in the total

    def __post_init__(self):
        if self.count_weight < 0:
            raise ConfigError("lambda, the count weight, must be >= 0")


@dataclass
class LossReport:
    emd: float
    count: float
    total: float
    per_pixel: np.ndarray  # per-pixel emd + weight*count


def _pair(e, s):
    e = np.asarray(e, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if e.shape[-1] != s.shape[-1]:
        raise ShapeError(f"lengths {e.shape[-1]} != {s.shape[-1]}")
    return e, s


def emd(e, s):
    """(1/K) * sum_i |prefix_s(i) - prefix_e(i)|."""
    e, s = _pair(e, s)
    diff = np.cumsum(s - e, axis=-1)
    return np.abs(diff).mean(axis=-1)


def emd_bidir(e, s):
    """Average of the forward and time-reversed distances."""
    e, s = _pair(e, s)
    return 0.5 * (emd(e, s) + emd(e[..., ::-1], s[..., ::-1]))


def _pos(x):
    return np.maximum(x, 0.0)


def emd_polar(e, s):
    """Per-polarity bidirectional distance; opposite signs never cancel."""
    e, s = _pair(e, s)
    return emd_bidir(_pos(e), _pos(s)) + emd_bidir(_pos(-e), _pos(-s))


def count_loss(e, s):
    """|total event mass of s - total event mass of e|."""
    e, s = _pair(e, s)
    return np.abs(np.abs(s).sum(axis=-1) - np.abs(e).sum(axis=-1))


def _as_pixels(e, s) -> tuple[np.ndarray, np.ndarray]:
    """Coerce two SpikeTrains or arrays to (pixels, K) arrays of one shape,
    in their own dtypes."""
    out = []
    for x in (e, s):
        if hasattr(x, "pixel_sequences"):
            x = x.pixel_sequences()
        x = np.asarray(x)
        out.append(x[None, :] if x.ndim == 1 else x.reshape(-1, x.shape[-1]))
    if out[0].shape != out[1].shape:
        raise ShapeError(f"shapes {out[0].shape} != {out[1].shape}")
    return out[0], out[1]


def total_loss(e, s, cfg: LossConfig = LossConfig()) -> LossReport:
    """Mean over pixels of emd_polar + weight * count_loss.

    The per-pixel terms are taken over blocks of rows (core.frame_blocks),
    so their float64 temporaries span one block, not every pixel; a row's
    terms do not depend on its block.  Each mean is taken once, over all
    pixels.
    """
    ep, sp = _as_pixels(e, s)
    emd_px, count_px = np.empty(len(ep)), np.empty(len(ep))
    for a, b in frame_blocks(len(ep), max(ep.shape[1], 1)):
        emd_px[a:b] = emd_polar(ep[a:b], sp[a:b])
        count_px[a:b] = count_loss(ep[a:b], sp[a:b])
    emd_mean, count_mean = float(emd_px.mean()), float(count_px.mean())
    return LossReport(emd_mean, count_mean,
                      emd_mean + cfg.count_weight * count_mean,
                      emd_px + cfg.count_weight * count_px)


def _emd_grad_forward(e, s):
    """d/ds_j of emd(e, s): (1/K) * sum_{i>=j} sign(prefix diff at i)."""
    k = e.shape[-1]
    sgn = np.sign(np.cumsum(s - e, axis=-1))
    # suffix sums of the sign sequence
    return np.cumsum(sgn[..., ::-1], axis=-1)[..., ::-1] / k


def _emd_bidir_grad(e, s):
    fwd = _emd_grad_forward(e, s)
    rev = _emd_grad_forward(e[..., ::-1], s[..., ::-1])[..., ::-1]
    return 0.5 * (fwd + rev)


def loss_grad(e, s, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Subgradient of total_loss(e, s).total w.r.t. each entry of s.

    Channel splits use the right derivative (positive channel owns s == 0)
    and sign(0) := 0, a valid subgradient at every kink.  Includes the
    1/n_pixels factor from the pixel mean, matching total_loss.
    """
    ep, sp = _pair(*_as_pixels(e, s))
    pos_mask = sp >= 0
    g = np.where(pos_mask, _emd_bidir_grad(_pos(ep), _pos(sp)), 0.0)
    g -= np.where(~pos_mask, _emd_bidir_grad(_pos(-ep), _pos(-sp)), 0.0)
    mass = np.abs(sp).sum(axis=-1, keepdims=True) - np.abs(ep).sum(axis=-1, keepdims=True)
    g += cfg.count_weight * np.sign(mass) * np.sign(sp)
    return g / ep.shape[0]
