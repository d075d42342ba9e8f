"""Domain types for frame and event data, plus dense/sparse/voxel conversions.

Layout conventions used everywhere in the package:

* frame stacks are ``(n_frames, height, width, 3)`` float32, linear radiance
* per-pixel sequences are time-major ``(K, height, width)``
* sparse events are packed records ``(t_us, x, y, p)`` sorted by ``t`` with
  ties broken by ``(y, x)``

Timestamps are integer microseconds; tick ``k`` at rate ``fps`` maps to
``t = round(k * 1e6 / fps)``, and back to its nearest tick, a tie going to
the later one; bin ``b`` at ``bin_fps`` holds ``floor(t * bin_fps / 1e6) == b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigError, RangeError

US_PER_S = 1_000_000
F32_MAX = float(np.finfo(np.float32).max)
_BLOCK_VALUES = 2**18  # float64 values per frame block (at least one frame)

# matches the EVT1 record layout byte for byte (packed, little-endian)
EVENT_DTYPE = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])


def tick_to_us(k, fps: float) -> np.ndarray:
    """Map tick indices to integer microseconds (u32, as stored in EVT1)."""
    t = np.rint(np.asarray(k, dtype=np.float64) * US_PER_S / fps)
    if not np.all((t >= 0) & (t <= np.iinfo(np.uint32).max)):
        raise RangeError(f"tick timestamps at fps={fps} fall outside the u32 "
                         "microsecond range [0, 2**32)")
    return t.astype(np.uint32)


def check_fps(fps: float, name: str = "fps") -> None:
    """The one rate rule: 0 < fps <= 1e6, so each tick or bin gets its own
    microsecond timestamp and tick_to_us/us_to_tick are exact inverses."""
    if not 0 < fps <= US_PER_S:
        raise ConfigError(f"{name} must lie in (0, 1e6], "
                          "one tick per us timestamp at most")


def us_to_tick(t, fps: float) -> np.ndarray:
    """Nearest tick, a tie going to the later: floor(t*fps/1e6 + 1/2).  It
    inverts tick_to_us, which rounds by <= 0.5 us when ticks last >= 1 us."""
    check_fps(fps)
    return np.floor(np.asarray(t, dtype=np.float64) * fps / US_PER_S + 0.5).astype(np.int64)


def frame_blocks(n: int, frame_values: int):
    """Blocks (a, b) of whole frames that cover frames 0..n-1 once and in
    order, each of at most _BLOCK_VALUES values at frame_values per frame,
    or of one frame when a frame holds more: every clip-sized pass holds one
    such block of temporaries at a time."""
    step = max(1, _BLOCK_VALUES // frame_values)
    for a in range(0, n, step):
        yield a, min(a + step, n)


def time_bins(t, bin_fps: float) -> tuple[np.ndarray, int]:
    """Each timestamp's bin floor(t * bin_fps / 1e6), and the bin count
    ceil((last t + 1) * bin_fps / 1e6), which exceeds every bin; it is at
    least 1, as a subnormal bin_fps underflows it to 0 with every bin 0."""
    check_fps(bin_fps, "bin_fps")
    duration_us = int(t.max()) + 1 if t.size else 1
    n_bins = max(int(np.ceil(duration_us * bin_fps / US_PER_S)), 1)
    b = (t.astype(np.int64) * bin_fps // US_PER_S).astype(np.int64)
    return b, n_bins


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
        self.check_header(self.width, self.height, self.n_frames, self.fps)
        self.check_values(self.frames)

    @staticmethod
    def check_header(width: int, height: int, n_frames: int, fps: float) -> None:
        """The rules on a clip's size and rate, which a stream of its frame
        blocks checks before the first block."""
        if not (width >= 1 and height >= 1):
            raise ValueError(f"frame size {width}x{height} is empty; "
                             "width and height must be >= 1")
        if n_frames < 2:
            raise ValueError("need at least 2 frames")
        check_fps(fps)

    @staticmethod
    def check_values(frames: np.ndarray) -> None:
        """The rule on frame values, for a whole clip or one block of it."""
        # min and max, unlike an isfinite mask, allocate nothing; NaN fails both
        if not (frames.min() >= 0 and frames.max() <= F32_MAX):
            raise ValueError("frame values must be finite and non-negative")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class _PixelSeq:
    """Per-pixel sequences, time-major ``(K, H, W)``, in the dtype a subclass
    states as ``_DTYPE``; its ``_check_values`` states its value rule."""

    width: int
    height: int
    fps: float
    data: np.ndarray  # (K, height, width)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=self._DTYPE)
        if self.data.ndim != 3 or self.data.shape[1:] != (self.height, self.width):
            raise ValueError(f"data shape {self.data.shape} does not match "
                             f"(K, {self.height}, {self.width})")
        self._check_values()

    @property
    def k(self) -> int:
        return self.data.shape[0]

    def pixel_sequences(self) -> np.ndarray:
        """Contiguous ``(H*W, K)`` copy with pixels in row-major (y, x) order."""
        return np.ascontiguousarray(self.data.transpose(1, 2, 0).reshape(-1, self.k))


class LogDiffSeq(_PixelSeq):
    """Per-pixel log-luminance differences: finite float32."""

    _DTYPE = np.float32

    def _check_values(self):  # min and max allocate no mask; NaN fails both
        d = self.data
        if not (-F32_MAX <= d.min(initial=0) and d.max(initial=0) <= F32_MAX):
            raise ValueError("entries must be finite")


class SpikeTrain(_PixelSeq):
    """Dense event stream: one int8 {-1, 0, +1} entry per (tick, pixel)."""

    _DTYPE = np.int8

    def _check_values(self):
        d = self.data
        if not (-1 <= d.min(initial=0) and d.max(initial=0) <= 1):
            bad = np.setdiff1d(np.unique(d), [-1, 0, 1])
            raise ValueError(f"entries outside {{-1,0,1}}: {bad}")


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
            key = np.left_shift(r["t"], 32, dtype=np.uint64)  # t << 32 | y << 16 | x
            key |= np.left_shift(r["y"], 16, dtype=np.uint32)
            key |= r["x"]
            if (key[1:] < key[:-1]).any():
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


def spike_records(data: np.ndarray, fps: float, t0: int = 0) -> np.ndarray:
    """The EVENT_DTYPE records of spikes data (K, H, W) whose first row is
    tick t0: one per nonzero entry, tick k at t = round(k*1e6/fps), sorted
    by (k, y, x).  Records of consecutive blocks of a clip, appended in
    order, are the records of the whole clip."""
    k, y, x = np.nonzero(data)  # C-order nonzero == sorted by (k, y, x)
    rec = np.empty(k.size, dtype=EVENT_DTYPE)
    rec["t"] = tick_to_us(k + t0, fps)
    rec["x"] = x
    rec["y"] = y
    rec["p"] = data[k, y, x]
    return rec


def dense_to_sparse(s: SpikeTrain) -> EventList:
    """One record per nonzero entry (spike_records)."""
    return EventList(s.width, s.height, spike_records(s.data, s.fps))


def sparse_to_dense(e: EventList, fps: float, k: int) -> SpikeTrain:
    """Exact inverse of dense_to_sparse under matching fps/K."""
    r = e.records
    ticks = us_to_tick(r["t"], fps)  # checks fps even with no records
    data = np.zeros((k, e.height, e.width), dtype=np.int8)
    if r.size:
        if ticks.min() < 0 or ticks.max() >= k:
            raise RangeError(f"timestamps map outside [0, {k}) at fps={fps}")
        flat = (ticks * e.height + r["y"].astype(np.int64)) * e.width + r["x"]
        if np.unique(flat).size != flat.size:
            raise CollisionError("two records map to the same (pixel, timestep)")
        data[ticks, r["y"], r["x"]] = r["p"]
    return SpikeTrain(e.width, e.height, fps, data)


def voxelize(e: EventList, bin_fps: float) -> VoxelGrid:
    """Bin events at bin_fps under time_bins's rule and bin count."""
    r = e.records
    b, n_bins = time_bins(r["t"], bin_fps)
    signed = np.zeros((n_bins, e.height, e.width), dtype=np.int64)
    unsigned = np.zeros_like(signed)
    np.add.at(signed, (b, r["y"], r["x"]), r["p"].astype(np.int64))
    np.add.at(unsigned, (b, r["y"], r["x"]), 1)
    return VoxelGrid(e.width, e.height, bin_fps, signed, unsigned)
