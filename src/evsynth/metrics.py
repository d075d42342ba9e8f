"""Quantitative comparison of event streams: distances, counts, histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventList, SpikeTrain, voxelize
from .errors import ConfigError, ShapeError
from .loss import emd_polar


@dataclass
class StreamDistanceReport:
    emd: float          # mean per-pixel bidirectional polar EMD
    count_ratio: float  # total |a| events / total |b| events
    pos_ratio: float
    neg_ratio: float
    pixels: int


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def stream_distance(a: SpikeTrain, b: SpikeTrain) -> StreamDistanceReport:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shapes {a.data.shape} != {b.data.shape}")
    ap = a.pixel_sequences().astype(np.float64)
    bp = b.pixel_sequences().astype(np.float64)
    per_pixel = emd_polar(ap, bp)
    return StreamDistanceReport(
        emd=float(per_pixel.mean()),
        count_ratio=_ratio(np.abs(ap).sum(), np.abs(bp).sum()),
        pos_ratio=_ratio(np.maximum(ap, 0).sum(), np.maximum(bp, 0).sum()),
        neg_ratio=_ratio(np.maximum(-ap, 0).sum(), np.maximum(-bp, 0).sum()),
        pixels=ap.shape[0],
    )


def intensity_histogram(e: EventList, bin_fps: float = 60.0, buckets: int = 32,
                        duration_us: int | None = None) -> np.ndarray:
    """Histogram of per-pixel-per-bin event counts after voxelizing at bin_fps.

    Bucket i counts pixel-bins holding exactly i events; the last bucket is an
    overflow for >= buckets-1, keeping the high-intensity tail visible.
    """
    if not 1 <= buckets <= 2**32:
        raise ConfigError("buckets must lie in [1, 2**32]: EVT1's u32 event "
                          "count bounds a pixel-bin's count")
    grid = voxelize(e, bin_fps, duration_us)
    counts = np.minimum(grid.unsigned.reshape(-1), buckets - 1)
    return np.bincount(counts, minlength=buckets).astype(np.int64)
