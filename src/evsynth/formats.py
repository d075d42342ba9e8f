"""Bit-exact file I/O for event lists (EVT1, CSV) and frame stacks (FSEQ).

EVT1 (little-endian):
    magic "EVT1" | u16 version=1 | u16 width | u16 height | u32 count
    then count packed records of {u32 t_us, u16 x, u16 y, i8 p}, p in {+1,-1}

CSV:
    header line "t_us,x,y,p", then one decimal-integer record per line

FSEQ (little-endian):
    magic "FSEQ" | u16 version=1 | u16 width | u16 height | u32 frame_count
    | f32 fps | u8 channels=3, then frames as row-major channel-interleaved f32

EVT1, FSEQ and spikenet's EVSN share one container rule (_read_container): a
header of magic and u16 version=1, then a body whose length the header fixes.
FSEQ is read, and FSEQ, EVT1 and CSV are written, a block at a time, so a
clip's frames or events need not be held whole: each writer yields append.
Every file is written to a temporary file, which replaces the path only when
the last block is written (_staged): a failed write changes nothing.
"""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

from .core import EVENT_DTYPE, EventList, FrameSeq
from .errors import FormatError, RangeError

_EVT1_MAGIC = b"EVT1"
_EVT1_HEADER = struct.Struct("<4sHHHI")
_EVT1_MAX_COUNT = 2**32 - 1  # the header's u32 record count
_FSEQ_MAGIC = b"FSEQ"
_FSEQ_HEADER = struct.Struct("<4sHHHIfB")
_CSV_HEADER = "t_us,x,y,p"


@contextlib.contextmanager
def _staged(path):
    """Yield a new file, open for writing, which replaces path when the
    block ends without an error; on an error only the file is removed.  It
    is made in the deepest directory of path that exists (path's own when
    that exists), and path's missing directories are made only on success:
    a directory not made yet cannot be a mount point, so the file and path
    are on one file system and the rename is atomic.  Its name keeps at
    most 200 bytes of path's, whole characters, so it fits in 255."""
    path = Path(path)
    d = next(d for d in path.parents if d.exists())
    name = os.fsencode(path.name)[:200].decode(errors="ignore")
    tmp = d / f".{name}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with _staged(path) as fh:
        fh.write(text.encode())


@contextlib.contextmanager
def evt1_writer(path, width: int, height: int):
    """A staged EVT1 file at path: yields append(rec), which writes the
    EVENT_DTYPE records rec after those before it; their count goes into
    the header when the block ends."""
    with _staged(path) as fh:
        fh.write(_EVT1_HEADER.pack(_EVT1_MAGIC, 1, width, height, 0))
        count = 0

        def append(rec):
            nonlocal count
            if count + len(rec) > _EVT1_MAX_COUNT:
                raise RangeError(f"{path}: more than {_EVT1_MAX_COUNT} events "
                                 "do not fit the file's u32 count")
            fh.write(np.ascontiguousarray(rec, EVENT_DTYPE))
            count += len(rec)
        yield append
        fh.seek(0)
        fh.write(_EVT1_HEADER.pack(_EVT1_MAGIC, 1, width, height, count))


def write_evt1(e: EventList, path) -> None:
    with evt1_writer(path, e.width, e.height) as append:
        append(e.records)


@contextlib.contextmanager
def _read_container(path, header: struct.Struct, magic: bytes):
    """Open a container file and check its magic and version; yields
    (fields, size, read): the header fields after the version, the body's
    size in bytes from fstat, and read(arr), which fills arr with the next
    bytes of the body and returns it, so the file's bytes are held once.
    """
    with open(path, "rb") as fh:
        head = fh.read(header.size)
        if len(head) < header.size:
            raise FormatError(f"{path}: truncated header")
        found, version, *fields = header.unpack(head)
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}")
        if version != 1:
            raise FormatError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - header.size

        def read(arr):  # the next len(arr) bytes of the body
            if fh.readinto(arr) != memoryview(arr).nbytes:
                raise FormatError(f"{path}: file shrank while being read")
            return arr
        yield fields, size, read


def read_evt1(path) -> EventList:
    with _read_container(path, _EVT1_HEADER, _EVT1_MAGIC) as (
            (width, height, count), size, read):
        if size != count * EVENT_DTYPE.itemsize:
            raise FormatError(f"{path}: expected {count} records, "
                              f"got {size} payload bytes")
        rec = read(np.empty(count, EVENT_DTYPE))
    return _build_list(path, width, height, rec)


@contextlib.contextmanager
def csv_writer(path):
    """A staged CSV event file at path: yields append(rec), as evt1_writer does."""
    with _staged(path) as fh:
        fh.write(f"{_CSV_HEADER}\n".encode())

        def append(rec):
            fh.write("".join(f"{t},{x},{y},{p}\n" for t, x, y, p in zip(
                *(rec[f].tolist() for f in "txyp"))).encode())
        yield append


def write_csv(e: EventList, path) -> None:
    with csv_writer(path) as append:
        append(e.records)


def read_csv(path, width: int | None = None, height: int | None = None) -> EventList:
    """Read a CSV event file. Dims are inferred from the data unless given."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise FormatError(f"{path}: missing '{_CSV_HEADER}' header")
    rec = np.empty(len(lines) - 1, dtype=EVENT_DTYPE)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}:{i + 2}: expected 4 fields")
        try:
            rec[i] = tuple(int(v) for v in parts)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}:{i + 2}: {exc}") from None
    if width is None:
        width = int(rec["x"].max()) + 1 if rec.size else 1
    if height is None:
        height = int(rec["y"].max()) + 1 if rec.size else 1
    return _build_list(path, width, height, rec)


def _is_csv(path) -> bool:  # an event file is CSV for a .csv path, else EVT1
    return Path(path).suffix == ".csv"


def read_events(path) -> EventList:
    return read_csv(path) if _is_csv(path) else read_evt1(path)


def events_writer(path, width: int, height: int):
    """A staged event file at path: csv_writer's or evt1_writer's append."""
    return csv_writer(path) if _is_csv(path) else evt1_writer(path, width, height)


def _build_list(path, width, height, rec) -> EventList:
    if rec.size and (rec["x"].max() >= width or rec["y"].max() >= height):
        raise RangeError(f"{path}: coordinates exceed header dims {width}x{height}")
    try:
        return EventList(width, height, rec)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


@contextlib.contextmanager
def fseq_writer(path, width: int, height: int, n_frames: int, fps: float):
    """A staged FSEQ file at path: yields append(frames), which writes the
    clip's next (m, height, width, 3) frames; the block must append
    n_frames frames in all."""
    with _staged(path) as fh:
        fh.write(_FSEQ_HEADER.pack(_FSEQ_MAGIC, 1, width, height, n_frames, fps, 3))
        written = 0

        def append(frames):
            nonlocal written
            fh.write(np.ascontiguousarray(frames, "<f4"))
            written += len(frames)
        yield append
        if written != n_frames:
            raise ValueError(f"{written} frames written of the header's {n_frames}")


def write_fseq(f: FrameSeq, path) -> None:
    with fseq_writer(path, f.width, f.height, f.n_frames, f.fps) as append:
        append(f.frames)


@contextlib.contextmanager
def fseq_reader(path):
    """Open an FSEQ file and check its header as FrameSeq does; yields
    (width, height, n_frames, fps, frames), where frames(a, b) reads frames
    a..b-1, the next ones in the file, as (b-a, height, width, 3) float32
    and checks their values as FrameSeq does.  Either check raises
    FormatError naming path."""
    with _read_container(path, _FSEQ_HEADER, _FSEQ_MAGIC) as (
            (width, height, n_frames, fps, channels), size, read):
        if channels != 3:
            raise FormatError(f"{path}: expected 3 channels, got {channels}")
        expect = n_frames * height * width * 3 * 4
        if size != expect:
            raise FormatError(f"{path}: expected {expect} payload bytes, got {size}")
        try:
            FrameSeq.check_header(width, height, n_frames, fps)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        at = 0

        def frames(a, b):
            nonlocal at
            if a != at:
                raise ValueError(f"frames {a}..{b - 1} read out of order")
            arr = read(np.empty((b - a, height, width, 3), "<f4"))
            try:
                FrameSeq.check_values(arr)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
            at = b
            return arr
        yield width, height, n_frames, fps, frames


def read_fseq(path) -> FrameSeq:
    with fseq_reader(path) as (width, height, n_frames, fps, frames):
        return FrameSeq(width, height, fps, frames(0, n_frames))
