"""Domain types for frame and event data, plus dense/sparse/voxel conversions.

Layout conventions used everywhere in the package:

* frame stacks are ``(n_frames, height, width, 3)`` float32, linear radiance
* per-pixel sequences are time-major ``(K, height, width)``
* sparse events are packed records ``(t_us, x, y, p)`` sorted by ``t`` with
  ties broken by ``(y, x)``

Timestamps are integer microseconds; tick ``k`` at rate ``fps`` maps to
``t = round(k * 1e6 / fps)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigError, RangeError

US_PER_S = 1_000_000

# matches the EVT1 record layout byte for byte (packed, little-endian)
EVENT_DTYPE = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])


def tick_to_us(k, fps: float) -> np.ndarray:
    """Map tick indices to integer microseconds (u32, as stored in EVT1)."""
    t = np.rint(np.asarray(k, dtype=np.float64) * US_PER_S / fps)
    if not np.all((t >= 0) & (t <= np.iinfo(np.uint32).max)):
        raise RangeError(f"tick timestamps at fps={fps} fall outside the u32 "
                         "microsecond range [0, 2**32)")
    return t.astype(np.uint32)


def us_to_tick(t, fps: float) -> np.ndarray:
    """Inverse of tick_to_us (exact for any fps <= 1e6)."""
    return np.rint(np.asarray(t, dtype=np.float64) * fps / US_PER_S).astype(np.int64)


@dataclass
class FrameSeq:
    """An RGB frame stack at a fixed frame rate. Values are linear radiance."""

    width: int
    height: int
    fps: float
    frames: np.ndarray  # (n_frames, height, width, 3) float32

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 4 or self.frames.shape[1:] != (self.height, self.width, 3):
            raise ValueError(f"frames shape {self.frames.shape} does not match "
                             f"(n, {self.height}, {self.width}, 3)")
        if self.frames.shape[0] < 2:
            raise ValueError("need at least 2 frames")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        if not np.all(np.isfinite(self.frames)) or self.frames.min() < 0:
            raise ValueError("frame values must be finite and non-negative")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def k(self) -> int:
        """Number of inter-frame steps (one fewer than frames)."""
        return self.n_frames - 1


@dataclass
class LogDiffSeq:
    """Per-pixel log-luminance differences, time-major ``(K, H, W)``."""

    width: int
    height: int
    fps: float
    data: np.ndarray  # (K, height, width) float32

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.height, self.width):
            raise ValueError(f"data shape {self.data.shape} does not match "
                             f"(K, {self.height}, {self.width})")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("entries must be finite")

    @property
    def k(self) -> int:
        return self.data.shape[0]

    def pixel_sequences(self) -> np.ndarray:
        """View as ``(H*W, K)`` with pixels in row-major (y, x) order."""
        return np.ascontiguousarray(self.data.transpose(1, 2, 0).reshape(-1, self.k))


@dataclass
class SpikeTrain:
    """Dense event stream: one {-1, 0, +1} entry per (tick, pixel)."""

    width: int
    height: int
    fps: float
    data: np.ndarray  # (K, height, width) int8

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int8)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.height, self.width):
            raise ValueError(f"data shape {self.data.shape} does not match "
                             f"(K, {self.height}, {self.width})")
        bad = np.setdiff1d(np.unique(self.data), [-1, 0, 1])
        if bad.size:
            raise ValueError(f"entries outside {{-1,0,1}}: {bad}")

    @property
    def k(self) -> int:
        return self.data.shape[0]

    def pixel_sequences(self) -> np.ndarray:
        return np.ascontiguousarray(self.data.transpose(1, 2, 0).reshape(-1, self.k))


@dataclass
class EventList:
    """Sparse event stream, sorted by timestamp with (y, x) tie order."""

    width: int
    height: int
    records: np.ndarray  # EVENT_DTYPE

    def __post_init__(self):
        self.records = np.asarray(self.records, dtype=EVENT_DTYPE)
        r = self.records
        if r.size:
            if r["x"].max() >= self.width or r["y"].max() >= self.height:
                raise ValueError("event coordinates exceed sensor dims")
            if not np.isin(r["p"], (-1, 1)).all():
                raise ValueError("polarities must be +1 or -1")
            order = np.lexsort((r["x"], r["y"], r["t"]))
            if not np.array_equal(order, np.arange(r.size)):
                raise ValueError("records not sorted by (t, y, x)")

    def __len__(self) -> int:
        return int(self.records.size)

    @classmethod
    def from_arrays(cls, width, height, t, x, y, p) -> "EventList":
        rec = np.empty(len(t), dtype=EVENT_DTYPE)
        rec["t"], rec["x"], rec["y"], rec["p"] = t, x, y, p
        return cls(width, height, rec)


@dataclass
class VoxelGrid:
    """Events integrated into fixed-rate temporal bins per pixel."""

    width: int
    height: int
    bin_fps: float
    signed: np.ndarray    # (n_bins, height, width) int64, sum of polarities
    unsigned: np.ndarray  # (n_bins, height, width) int64, event counts

    @property
    def n_bins(self) -> int:
        return self.signed.shape[0]


def dense_to_sparse(s: SpikeTrain) -> EventList:
    """One record per nonzero entry; tick k maps to t = round(k*1e6/fps)."""
    k, y, x = np.nonzero(s.data)  # C-order nonzero == sorted by (k, y, x)
    rec = np.empty(k.size, dtype=EVENT_DTYPE)
    rec["t"] = tick_to_us(k, s.fps)
    rec["x"] = x
    rec["y"] = y
    rec["p"] = s.data[k, y, x]
    return EventList(s.width, s.height, rec)


def sparse_to_dense(e: EventList, fps: float, k: int) -> SpikeTrain:
    """Exact inverse of dense_to_sparse under matching fps/K."""
    if not 0 < fps < np.inf:
        raise ConfigError("fps must be finite and positive")
    data = np.zeros((k, e.height, e.width), dtype=np.int8)
    r = e.records
    if r.size:
        ticks = us_to_tick(r["t"], fps)
        if ticks.min() < 0 or ticks.max() >= k:
            raise RangeError(f"timestamps map outside [0, {k}) at fps={fps}")
        flat = (ticks * e.height + r["y"].astype(np.int64)) * e.width + r["x"]
        if np.unique(flat).size != flat.size:
            raise CollisionError("two records map to the same (pixel, timestep)")
        data[ticks, r["y"], r["x"]] = r["p"]
    return SpikeTrain(e.width, e.height, fps, data)


def voxelize(e: EventList, bin_fps: float, duration_us: int | None = None) -> VoxelGrid:
    """Bin events at bin_fps; bin index = floor(t * bin_fps / 1e6).

    When duration_us is omitted it is taken as (last timestamp + 1), so the
    grid has ceil(duration * bin_fps) bins and every event lands inside.
    """
    if not 0 < bin_fps < np.inf:
        raise ConfigError("bin_fps must be finite and positive")
    r = e.records
    if duration_us is None:
        duration_us = int(r["t"].max()) + 1 if r.size else 1
    n_bins = int(np.ceil(duration_us * bin_fps / US_PER_S))
    signed = np.zeros((n_bins, e.height, e.width), dtype=np.int64)
    unsigned = np.zeros_like(signed)
    if r.size:
        b = (r["t"].astype(np.int64) * bin_fps // US_PER_S).astype(np.int64)
        if b.max() >= n_bins:
            raise RangeError("events fall outside the stated duration")
        np.add.at(signed, (b, r["y"], r["x"]), r["p"].astype(np.int64))
        np.add.at(unsigned, (b, r["y"], r["x"]), 1)
    return VoxelGrid(e.width, e.height, bin_fps, signed, unsigned)
