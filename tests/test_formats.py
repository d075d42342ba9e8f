import struct

import numpy as np
import pytest

from evsynth import formats
from evsynth.core import EVENT_DTYPE, FrameSeq
from evsynth.errors import FormatError, RangeError
from evsynth.formats import (evt1_writer, fseq_writer, read_csv, read_evt1,
                             read_events, read_fseq, write_csv, write_evt1,
                             write_fseq)
from evsynth.spikenet import (SpikeNetConfig, init_params, load_checkpoint,
                              save_checkpoint)

from conftest import random_event_list


def test_evt1_round_trip_bit_exact(rng, tmp_path):
    ev = random_event_list(rng, n=10_000, width=640, height=360, t_max=5_000_000)
    path = tmp_path / "events.evt1"
    write_evt1(ev, path)
    back = read_evt1(path)
    assert back.width == ev.width and back.height == ev.height
    assert np.array_equal(back.records, ev.records)
    # file-level identity: re-writing what we read reproduces the bytes
    path2 = tmp_path / "copy.evt1"
    write_evt1(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_evt1_bad_magic(tmp_path):
    path = tmp_path / "bogus.evt1"
    path.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(FormatError):
        read_evt1(path)


def test_evt1_truncated(tmp_path, rng):
    ev = random_event_list(rng, n=50)
    path = tmp_path / "events.evt1"
    write_evt1(ev, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        read_evt1(path)


def test_evt1_coordinates_out_of_header_range(tmp_path):
    rec = np.zeros(1, EVENT_DTYPE)
    rec["x"], rec["p"] = 9, 1
    header = struct.pack("<4sHHHI", b"EVT1", 1, 4, 4, 1)  # width 4 but x=9
    path = tmp_path / "oob.evt1"
    path.write_bytes(header + rec.tobytes())
    with pytest.raises(RangeError):
        read_evt1(path)


def test_csv_round_trip(rng, tmp_path):
    ev = random_event_list(rng, n=300)
    path = tmp_path / "events.csv"
    write_csv(ev, path)
    back = read_csv(path, width=ev.width, height=ev.height)
    assert np.array_equal(back.records, ev.records)
    # byte-level: CSV does not encode dims, so write(read(file)) == file
    path2 = tmp_path / "copy.csv"
    write_csv(read_csv(path), path2)
    assert path.read_text() == path2.read_text()


def test_csv_single_line_example(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t_us,x,y,p\n2000,0,0,-1\n")
    ev = read_csv(path)
    assert ev.records.tolist() == [(2000, 0, 0, -1)]


def test_csv_missing_header(tmp_path):
    path = tmp_path / "no_header.csv"
    path.write_text("2000,0,0,-1\n")
    with pytest.raises(FormatError):
        read_csv(path)


def test_fseq_round_trip_bit_exact(rng, tmp_path):
    frames = rng.random((7, 9, 11, 3), dtype=np.float32)
    seq = FrameSeq(11, 9, 240.0, frames)
    path = tmp_path / "clip.fseq"
    write_fseq(seq, path)
    back = read_fseq(path)
    assert (back.width, back.height, back.fps) == (11, 9, 240.0)
    assert np.array_equal(back.frames, seq.frames)
    path2 = tmp_path / "copy.fseq"
    write_fseq(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_fseq_bad_version(tmp_path, rng):
    seq = FrameSeq(2, 2, 100.0, rng.random((2, 2, 2, 3), dtype=np.float32))
    path = tmp_path / "clip.fseq"
    write_fseq(seq, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9  # version field
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_fseq(path)


@pytest.mark.parametrize("fault,message", [
    (lambda raw: raw[:12], "truncated header"),
    (lambda raw: b"XXXX" + raw[4:], "bad magic b'XXXX'"),
    (lambda raw: raw[:4] + b"\x02\x00" + raw[6:], "unsupported version 2"),
    (lambda raw: raw + b"\x00", "expected"),
], ids=["truncated", "magic", "version", "appended"])
def test_one_container_rule_for_every_binary_format(tmp_path, rng, fault, message):
    cfg = SpikeNetConfig(channels=2, kernel=3, depth=1)
    writers = {
        read_evt1: lambda p: write_evt1(random_event_list(rng, n=5), p),
        read_fseq: lambda p: write_fseq(FrameSeq(2, 2, 100.0, rng.random(
            (2, 2, 2, 3), dtype=np.float32)), p),
        load_checkpoint: lambda p: save_checkpoint(p, init_params(cfg), cfg),
    }
    for read, write in writers.items():
        path = tmp_path / "file.bin"
        write(path)
        path.write_bytes(fault(path.read_bytes()))
        with pytest.raises(FormatError, match=message):
            read(path)


def test_evt1_count_past_u32_is_a_range_error_writing_nothing(tmp_path, monkeypatch):
    # the limit is lowered from EVT1's u32 2**32 - 1 rather than 4 G events
    # written; set after the first append, it leaves room for two more
    path = tmp_path / "ev.evt1"
    path.write_bytes(b"old")
    rec = random_event_list(np.random.default_rng(2), n=5).records
    with pytest.raises(RangeError, match="u32 count"):
        with evt1_writer(path, 16, 12) as append:
            append(rec[:2])
            monkeypatch.setattr(formats, "_EVT1_MAX_COUNT", 4)
            append(rec[2:4])  # fills the count exactly
            append(rec[4:])
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.evt1"]


def test_event_and_frame_files_appended_in_blocks_equal_whole_writes(tmp_path, rng):
    ev = random_event_list(rng, n=50)
    write_evt1(ev, tmp_path / "whole.evt1")
    with evt1_writer(tmp_path / "blocks.evt1", ev.width, ev.height) as append:
        for a in range(0, 50, 7):
            append(ev.records[a:a + 7])
    assert (tmp_path / "blocks.evt1").read_bytes() == (tmp_path / "whole.evt1").read_bytes()
    seq = FrameSeq(3, 2, 100.0, rng.random((7, 2, 3, 3), dtype=np.float32))
    write_fseq(seq, tmp_path / "whole.fseq")
    with fseq_writer(tmp_path / "blocks.fseq", 3, 2, 7, 100.0) as append:
        for a in range(0, 7, 3):
            append(seq.frames[a:a + 3])
    assert (tmp_path / "blocks.fseq").read_bytes() == (tmp_path / "whole.fseq").read_bytes()


def test_staging_makes_no_directory_before_it_succeeds(tmp_path, rng):
    # a/b is made only after the block: the temporary file goes in tmp_path,
    # the deepest directory of the path that exists
    ev = random_event_list(rng, n=20)
    path = tmp_path / "a" / "b" / "x.evt1"

    def write(fail):
        with evt1_writer(path, ev.width, ev.height) as append:
            append(ev.records)
            assert not (tmp_path / "a").exists()
            [tmp] = tmp_path.iterdir()
            assert tmp.is_file() and tmp.name.startswith(".x.evt1.")
            if fail:
                raise RuntimeError("late")
    with pytest.raises(RuntimeError, match="late"):
        write(fail=True)
    assert list(tmp_path.iterdir()) == []
    write(fail=False)
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    assert [p.name for p in path.parent.iterdir()] == ["x.evt1"]
    assert np.array_equal(read_evt1(path).records, ev.records)


@pytest.mark.parametrize("name", ["a" * 250 + ".evt1", "€" * 83 + ".evt1",
                                  "é" * 124 + ".csv"],
                         ids=["ascii-255", "3-byte-254", "2-byte-252"])
def test_an_output_name_of_up_to_255_bytes_is_written(tmp_path, rng, name):
    # the temporary file's name keeps at most 200 bytes of the output's,
    # cut at a character, so its own name fits in 255 bytes
    ev = random_event_list(rng, n=20)
    path = tmp_path / name
    with formats.events_writer(path, ev.width, ev.height) as append:
        append(ev.records)
        [tmp] = tmp_path.iterdir()
        assert len(tmp.name.encode()) <= 255  # strict UTF-8: whole characters
        assert name.startswith(tmp.name[1:-17])  # .<kept>.<12 hex>.tmp
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert np.array_equal(read_events(path).records, ev.records)


def test_the_event_format_follows_the_suffix(tmp_path, rng):
    ev = random_event_list(rng, n=30)
    write_csv(ev, tmp_path / "whole.csv")
    write_evt1(ev, tmp_path / "whole.evt1")
    for suffix in ("csv", "evt1", "events"):
        path = tmp_path / f"blocks.{suffix}"
        with formats.events_writer(path, ev.width, ev.height) as append:
            for a in range(0, 30, 8):
                append(ev.records[a:a + 8])
        whole = tmp_path / ("whole.csv" if suffix == "csv" else "whole.evt1")
        assert path.read_bytes() == whole.read_bytes()
        assert np.array_equal(read_events(path).records, ev.records)
