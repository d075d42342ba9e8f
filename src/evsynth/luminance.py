"""RGB -> luminance -> lin-log mapping -> temporal differences.

The lin-log map is ln(L) above a knee rho and the chord line (ln(rho)/rho) * L
below it, so black pixels stay finite and the map is continuous at the knee.
It is strictly increasing on [rho, inf); below the knee the chord slope
carries the sign of ln(rho).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameSeq, LogDiffSeq
from .errors import ConfigError

LUMA_R, LUMA_G, LUMA_B = 0.2126, 0.7152, 0.0722
_COEFFS = np.array([LUMA_R, LUMA_G, LUMA_B], dtype=np.float64)
_BLOCK = 2**16  # pixels per log_diff_sequence block (at least one frame)


@dataclass
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


def log_diff_sequence(f: FrameSeq, cfg: LuminanceConfig = LuminanceConfig()) -> LogDiffSeq:
    """Per pixel, X_k = linlog(luma(frame_k)) - linlog(luma(frame_{k-1})).

    The lin-log frames are float64 and each difference is rounded to float32
    once.  They are made in blocks of whole frames, _BLOCK pixels or one
    frame, and only one block's are kept, plus the frame before it.
    """
    n, h, w, _ = f.frames.shape
    step = max(1, _BLOCK // (h * w))
    diffs = np.empty((n - 1, h, w), np.float32)
    llog = np.empty((step + 1, h, w))  # llog[0]: the frame before the block
    llog[0] = lin_log(luma(f.frames[0]), cfg)
    for a in range(1, n, step):
        m = min(step, n - a)
        llog[1:m + 1] = lin_log(luma(f.frames[a:a + m]), cfg)
        np.subtract(llog[1:m + 1], llog[:m], out=diffs[a - 1:a - 1 + m])
        llog[0] = llog[m]
    return LogDiffSeq(f.width, f.height, f.fps, diffs)
