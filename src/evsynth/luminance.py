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


@dataclass
class LuminanceConfig:
    rho_log: float = 0.02  # knee of the lin-log map, in luminance units

    def __post_init__(self):
        if not 0 < self.rho_log < 1:
            raise ConfigError("rho_log must lie in (0, 1)")


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
    """Per pixel, X_k = linlog(luma(frame_k)) - linlog(luma(frame_{k-1}))."""
    llog = lin_log(luma(f.frames), cfg)  # (n_frames, H, W) float64
    diffs = np.diff(llog, axis=0).astype(np.float32)
    return LogDiffSeq(f.width, f.height, f.fps, diffs)
