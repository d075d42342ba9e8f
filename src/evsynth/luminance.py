"""RGB -> luminance -> lin-log mapping -> temporal differences.

The lin-log map is ln(L) above a knee rho and the chord line (ln(rho)/rho) * L
below it, so black pixels stay finite and the map is continuous at the knee.
It is strictly increasing on [rho, inf); below the knee the chord slope
carries the sign of ln(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameSeq, LogDiffSeq, frame_blocks
from .errors import ConfigError

LUMA_R, LUMA_G, LUMA_B = 0.2126, 0.7152, 0.0722
_COEFFS = np.array([LUMA_R, LUMA_G, LUMA_B], dtype=np.float64)


@dataclass(frozen=True)
class LuminanceConfig:
    rho_log: float = 0.02  # knee of the lin-log map, in luminance units

    def __post_init__(self):
        # float(): Python's division gives inf without numpy's overflow warning
        if not (0 < self.rho_log < 1 and np.isfinite(float(np.log(self.rho_log)) / self.rho_log)):
            raise ConfigError("rho_log must lie in (0, 1) with ln(rho)/rho finite")


def luma(rgb) -> np.ndarray:
    """Rec.709 luma of an (..., 3) array (or a bare RGB triple)."""
    return np.asarray(rgb, dtype=np.float64) @ _COEFFS


def lin_log(lum, cfg: LuminanceConfig = LuminanceConfig()):
    """Piecewise lin-log map; lin_log(0) == 0 via the linear branch."""
    lum = np.asarray(lum, dtype=np.float64)
    rho = cfg.rho_log
    slope = np.log(rho) / rho
    out = np.where(lum >= rho,
                   np.log(np.maximum(lum, rho)),  # maximum() only guards log(0) warnings
                   slope * lum)
    return out if out.ndim else float(out)


def log_diff_blocks(frames, n: int, height: int, width: int,
                    cfg: LuminanceConfig = LuminanceConfig()):
    """Yield X_1..X_{n-1} (below) of an n-frame clip in order, as float32
    (m, height, width) blocks, reading its frames a..b-1 by frames(a, b) in
    order.

    The lin-log frames are float64 and each difference is rounded to float32
    once.  They are made in core.frame_blocks (four float64 values per pixel:
    the RGB copy and its luma), one block plus the frame before it at a time.
    """
    prev = lin_log(luma(frames(0, 1)[0]), cfg)
    for a, b in frame_blocks(n - 1, 4 * height * width):
        cur = lin_log(luma(frames(a + 1, b + 1)), cfg)
        diffs = np.empty((b - a, height, width), np.float32)
        np.subtract(cur[0], prev, out=diffs[0])
        np.subtract(cur[1:], cur[:-1], out=diffs[1:])
        # a copy, so the block's lin-log frames are not held through the yield
        prev, cur = cur[-1].copy(), None
        yield diffs


def log_diff_sequence(f: FrameSeq, cfg: LuminanceConfig = LuminanceConfig()) -> LogDiffSeq:
    """Per pixel, X_k = linlog(luma(frame_k)) - linlog(luma(frame_{k-1})),
    from log_diff_blocks."""
    n, h, w, _ = f.frames.shape
    out = np.empty((n - 1, h, w), np.float32)
    k = 0
    for diffs in log_diff_blocks(lambda a, b: f.frames[a:b], n, h, w, cfg):
        out[k:k + len(diffs)] = diffs
        k += len(diffs)
    return LogDiffSeq(f.width, f.height, f.fps, out)
