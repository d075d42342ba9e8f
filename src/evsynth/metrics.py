"""Quantitative comparison of event streams: distances, counts, histograms.

The distance is loss.emd_polar's EMD summed exactly over the runs between
each pixel's event ticks, so its work and memory follow the event count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventList, SpikeTrain, dense_to_sparse, time_bins, us_to_tick
from .errors import ConfigError, RangeError, ShapeError


@dataclass
class StreamDistanceReport:
    emd: float          # mean per-pixel bidirectional polar EMD
    count_ratio: float  # total |a| events / total |b| events
    pos_ratio: float
    neg_ratio: float
    pixels: int


def _ratio(num: int, den: int) -> float:
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def _events(e: EventList, fps: float, width: int, height: int):
    """_report's (cell, tick) of e's events on width x height pixels at fps."""
    r = e.records
    cell = (r["p"] < 0) * (width * height) + r["y"].astype(np.int64) * width + r["x"]
    return cell, us_to_tick(r["t"], fps)


def _report(a, b, k: int, pixels: int) -> StreamDistanceReport:
    """Report on the (cell, tick) events a and b over k ticks, cell being
    the pixel plus, for a negative event, pixels.

    With F a cell's running sum of b - a counts and D its last value,
    2k * emd_bidir = sum_t |F_t| + |D - F_(t-1)|, F_(-1) = 0: |D| for each
    tick up to the first event's, then |F| + |D - F| from each event's tick
    to the cell's next one, or to k (0 ticks for all but a tick's last).
    """
    cell, tick = (np.concatenate(x) for x in zip(a, b))
    if 3 * cell.size * k >= 2**63:  # 3 * events * k bounds the total
        raise RangeError(f"{cell.size} events over {k} ticks overflow int64; lower fps")
    step = np.repeat(np.array([-1, 1]), [a[0].size, b[0].size])  # b - a
    order = np.lexsort((tick, cell))
    cell, tick, step = cell[order], tick[order], step[order]
    first, last = np.diff(cell, prepend=-1) != 0, np.diff(cell, append=-1) != 0
    of_cell = np.cumsum(first) - 1
    csum = np.cumsum(step)
    f = csum - (csum - step)[first][of_cell]
    d = f[last]
    span = np.where(last, k, np.roll(tick, -1)) - tick
    total = int((np.abs(f) + np.abs(d[of_cell] - f)) @ span + np.abs(d) @ (tick[first] + 1))
    (na, pa), (nb, pb) = ((c.size, int((c < pixels).sum())) for c, _ in (a, b))
    return StreamDistanceReport(total / (2 * k * pixels) if pixels else float("nan"),
                                _ratio(na, nb), _ratio(pa, pb), _ratio(na - pa, nb - pb),
                                pixels)


def stream_distance(a: SpikeTrain, b: SpikeTrain) -> StreamDistanceReport:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shapes {a.data.shape} != {b.data.shape}")
    return _report(*(_events(dense_to_sparse(s), s.fps, s.width, s.height) for s in (a, b)),
                   a.k, a.width * a.height)


def event_distance(a: EventList, b: EventList, fps: float) -> StreamDistanceReport:
    """stream_distance of event lists counted per polarity on the ticks of fps,
    over the larger sensor and up to the last tick either list reaches."""
    w, h = max(a.width, b.width), max(a.height, b.height)
    ev_a, ev_b = (_events(e, fps, w, h) for e in (a, b))
    k = max((int(t.max()) + 1 for _, t in (ev_a, ev_b) if t.size), default=1)
    return _report(ev_a, ev_b, k, w * h)


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
