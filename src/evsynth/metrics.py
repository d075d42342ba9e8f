"""Quantitative comparison of event streams: distances, counts, histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventList, SpikeTrain, time_bins, us_to_tick
from .errors import ConfigError, RangeError, ShapeError
from .loss import emd_bidir


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


def _report(a: np.ndarray, b: np.ndarray) -> StreamDistanceReport:
    """Compare (2, pixels, K) counts of positive [0] and negative [1] events."""
    per_pixel = emd_bidir(a[0], b[0]) + emd_bidir(a[1], b[1])  # as loss.emd_polar
    return StreamDistanceReport(
        float(per_pixel.mean()), _ratio(a.sum(), b.sum()),
        _ratio(a[0].sum(), b[0].sum()), _ratio(a[1].sum(), b[1].sum()), a.shape[1])


def stream_distance(a: SpikeTrain, b: SpikeTrain) -> StreamDistanceReport:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shapes {a.data.shape} != {b.data.shape}")
    return _report(*(np.stack([s.pixel_sequences() == v for v in (1, -1)]).astype(np.float64)
                     for s in (a, b)))


def event_distance(a: EventList, b: EventList, fps: float) -> StreamDistanceReport:
    """stream_distance of event lists counted per polarity on the ticks of fps,
    over the larger sensor and up to the last tick either list reaches."""
    w, h = max(a.width, b.width), max(a.height, b.height)
    ticks = [us_to_tick(e.records["t"], fps) for e in (a, b)]
    k = max((int(t.max()) + 1 for t in ticks if t.size), default=1)
    counts = []
    for r, t in zip((a.records, b.records), ticks):
        cell = ((r["p"] < 0) * (h * w) + r["y"].astype(np.int64) * w + r["x"]) * k + t
        n = np.bincount(cell, np.ones(cell.size), minlength=2 * h * w * k)
        counts.append(n.reshape(2, h * w, k))
    return _report(*counts)


def intensity_histogram(e: EventList, bin_fps: float = 60.0,
                        buckets: int = 32) -> np.ndarray:
    """Histogram of per-pixel-per-bin event counts in core.time_bins's bins.

    Bucket i counts pixel-bins holding exactly i events; the last bucket is an
    overflow for >= buckets-1, keeping the high-intensity tail visible.  The
    empty pixel-bins go to bucket 0 uncounted, so memory follows the events.
    """
    if not 1 <= buckets <= 2**32:
        raise ConfigError("buckets must lie in [1, 2**32]: EVT1's u32 event "
                          "count bounds a pixel-bin's count")
    r = e.records
    b, n_bins = time_bins(r["t"], bin_fps)
    pixels = e.width * e.height
    # below 2**64: bin and pixel indices are each below 2**32
    cell = b.astype(np.uint64) * pixels + r["y"].astype(np.uint64) * e.width + r["x"]
    occupied = np.unique(cell, return_counts=True)[1]
    hist = np.bincount(np.minimum(occupied, buckets - 1), minlength=buckets)
    zero = int(hist[0]) + n_bins * pixels - occupied.size
    if zero > np.iinfo(np.int64).max:
        raise RangeError(f"{n_bins} bins x {pixels} pixels overflow int64; lower bin_fps")
    hist[0] = zero
    return hist
