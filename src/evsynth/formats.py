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
_FSEQ_MAGIC = b"FSEQ"
_FSEQ_HEADER = struct.Struct("<4sHHHIfB")
_CSV_HEADER = "t_us,x,y,p"


def _write_container(path, header: bytes, *bodies: np.ndarray) -> None:
    """Write header, then each body's bytes in C order, with no joined copy."""
    with open(path, "wb") as fh:
        fh.write(header)
        for body in bodies:
            fh.write(np.ascontiguousarray(body))


def write_evt1(e: EventList, path) -> None:
    _write_container(path, _EVT1_HEADER.pack(_EVT1_MAGIC, 1, e.width, e.height, len(e)),
                     e.records)


@contextlib.contextmanager
def _read_container(path, header: struct.Struct, magic: bytes):
    """Open a container file and check its magic and version; yields
    (fields, size, read): the header fields after the version, the body's
    size in bytes from fstat, and read(arr), which fills arr, sized to the
    body, from the file and returns it, so the file's bytes are held once.
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

        def read(arr):
            if fh.readinto(arr) != size:
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


def write_csv(e: EventList, path) -> None:
    r = e.records
    lines = [_CSV_HEADER]
    lines.extend(f"{t},{x},{y},{p}" for t, x, y, p in
                 zip(r["t"].tolist(), r["x"].tolist(), r["y"].tolist(), r["p"].tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


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


def _build_list(path, width, height, rec) -> EventList:
    if rec.size and (rec["x"].max() >= width or rec["y"].max() >= height):
        raise RangeError(f"{path}: coordinates exceed header dims {width}x{height}")
    try:
        return EventList(width, height, rec)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_fseq(f: FrameSeq, path) -> None:
    header = _FSEQ_HEADER.pack(_FSEQ_MAGIC, 1, f.width, f.height,
                               f.n_frames, f.fps, 3)
    _write_container(path, header, f.frames.astype("<f4", copy=False))


def read_fseq(path) -> FrameSeq:
    with _read_container(path, _FSEQ_HEADER, _FSEQ_MAGIC) as (
            (width, height, n_frames, fps, channels), size, read):
        if channels != 3:
            raise FormatError(f"{path}: expected 3 channels, got {channels}")
        expect = n_frames * height * width * 3 * 4
        if size != expect:
            raise FormatError(f"{path}: expected {expect} payload bytes, got {size}")
        arr = read(np.empty((n_frames, height, width, 3), "<f4"))
    try:
        return FrameSeq(width, height, fps, arr)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
