import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evsynth.core import (_BLOCK_VALUES, F32_MAX, EventList, LogDiffSeq,
                          SpikeTrain, dense_to_sparse, frame_blocks,
                          sparse_to_dense, tick_to_us, time_bins, us_to_tick,
                          voxelize)
from evsynth.errors import CollisionError, ConfigError, RangeError

from conftest import random_event_list


def test_all_zero_train_gives_empty_list():
    s = SpikeTrain(4, 3, 1000.0, np.zeros((5, 3, 4), np.int8))
    assert len(dense_to_sparse(s)) == 0


def test_dense_to_sparse_hand_example():
    data = np.zeros((3, 1, 1), np.int8)
    data[0, 0, 0] = 1
    data[2, 0, 0] = -1
    ev = dense_to_sparse(SpikeTrain(1, 1, 1000.0, data))
    assert ev.records.tolist() == [(0, 0, 0, 1), (2000, 0, 0, -1)]


def test_sparse_to_dense_inverts_hand_example():
    data = np.zeros((3, 1, 1), np.int8)
    data[0, 0, 0] = 1
    data[2, 0, 0] = -1
    s = SpikeTrain(1, 1, 1000.0, data)
    back = sparse_to_dense(dense_to_sparse(s), 1000.0, 3)
    assert np.array_equal(back.data, s.data)


@given(arrays(np.int8, (11, 5, 7), elements=st.integers(-1, 1)),
       st.sampled_from([30.0, 240.0, 1000.0, 12345.0]))
def test_round_trip_identity(data, fps):
    s = SpikeTrain(7, 5, fps, data)
    back = sparse_to_dense(dense_to_sparse(s), fps, s.k)
    assert np.array_equal(back.data, s.data)


def test_empty_list_gives_all_zero_train():
    from evsynth.core import EVENT_DTYPE
    ev = EventList(3, 2, np.empty(0, EVENT_DTYPE))
    s = sparse_to_dense(ev, 1000.0, 4)
    assert s.data.shape == (4, 2, 3) and not s.data.any()


def test_sparse_to_dense_collision():
    # at fps=100 both timestamps land on tick 0 of the same pixel
    ev = EventList.from_arrays(2, 2, t=[1000, 2000], x=[1, 1], y=[0, 0], p=[1, 1])
    with pytest.raises(CollisionError):
        sparse_to_dense(ev, 100.0, 10)


def test_sparse_to_dense_range_error():
    ev = EventList.from_arrays(2, 2, t=[999_999], x=[0], y=[0], p=[1])
    with pytest.raises(RangeError):
        sparse_to_dense(ev, 1000.0, 10)


def test_tick_to_us_refuses_to_wrap_past_u32():
    # 4,294,967,000 us still fits in u32; one tick later is past 2**32
    assert tick_to_us(4_294_967, 1000.0) == 4_294_967_000
    with pytest.raises(RangeError):
        tick_to_us(np.array([0, 4_294_968]), 1000.0)


def test_event_list_rejects_unsorted():
    with pytest.raises(ValueError):
        EventList.from_arrays(2, 2, t=[100, 50], x=[0, 0], y=[0, 0], p=[1, 1])


def test_event_list_tie_order_is_y_then_x():
    # same timestamp, must be ordered by (y, x)
    ev = EventList.from_arrays(3, 3, t=[10, 10, 10], x=[2, 0, 1],
                               y=[0, 1, 1], p=[1, 1, -1])
    assert ev.records["y"].tolist() == [0, 1, 1]
    with pytest.raises(ValueError):
        EventList.from_arrays(3, 3, t=[10, 10], x=[1, 0], y=[1, 1], p=[1, 1])


def _field(top):
    """Draws of one record field: few values, so keys tie and the key's bit
    fields meet at the range's ends, or any value."""
    return st.sampled_from([0, 1, top]) | st.integers(0, top)


@given(st.lists(st.tuples(_field(2**32 - 1), _field(2**16 - 1), _field(2**16 - 1)),
                max_size=12),
       st.sampled_from(["drawn", "sorted", "swapped"]), st.integers(0, 100))
# where y's field meets x's top and t's field meets y's and x's, each way round
@example([(0, 0, 2**16 - 1), (0, 1, 0)], "drawn", 0)
@example([(0, 1, 0), (0, 0, 2**16 - 1)], "drawn", 0)
@example([(0, 2**16 - 1, 2**16 - 1), (1, 0, 0)], "drawn", 0)
@example([(1, 0, 0), (0, 2**16 - 1, 2**16 - 1)], "drawn", 0)
def test_event_list_order_check_agrees_with_lexsort(tyx, arrange, j):
    from evsynth.core import EVENT_DTYPE
    rec = np.array([(t, x, y, 1) for t, y, x in tyx], EVENT_DTYPE)
    if arrange != "drawn":
        rec = rec[np.lexsort((rec["x"], rec["y"], rec["t"]))]
    if arrange == "swapped" and len(rec) > 1:  # one adjacent pair
        i = j % (len(rec) - 1)
        rec[[i, i + 1]] = rec[[i + 1, i]]
    in_order = np.array_equal(np.lexsort((rec["x"], rec["y"], rec["t"])),
                              np.arange(len(rec)))
    if in_order:
        EventList(2**16, 2**16, rec)
    else:
        with pytest.raises(ValueError, match=re.escape("records not sorted by (t, y, x)")):
            EventList(2**16, 2**16, rec)


def test_voxelize_empty():
    from evsynth.core import EVENT_DTYPE
    grid = voxelize(EventList(4, 4, np.empty(0, EVENT_DTYPE)), 1000.0)
    assert grid.unsigned.sum() == 0 and grid.signed.sum() == 0


def test_voxelize_hand_example():
    ev = EventList.from_arrays(1, 1, t=[0, 500], x=[0, 0], y=[0, 0], p=[1, -1])
    grid = voxelize(ev, 1000.0)
    assert grid.n_bins == 1
    assert grid.signed[0, 0, 0] == 0
    assert grid.unsigned[0, 0, 0] == 2


def test_voxelize_conserves_counts(rng):
    ev = random_event_list(rng, n=500)
    for bin_fps in (7.0, 60.0, 977.0):
        grid = voxelize(ev, bin_fps)
        assert grid.unsigned.sum() == len(ev)
        assert abs(grid.signed).max() <= grid.unsigned.max()


# (n, frame values): many frames per block with a short last one, a block
# of exactly one frame, a 720p RGB frame larger than a block, a lin-log
# pass's 250 differences, and nothing to cover
@pytest.mark.parametrize("n,frame_values", [
    (50, 3 * 64 * 64), (7, _BLOCK_VALUES), (3, 4 * 720 * 1280),
    (250, 4 * 64 * 64), (0, 1)])
def test_frame_blocks_cover_the_frames_once_in_order(n, frame_values):
    blocks = list(frame_blocks(n, frame_values))
    assert [f for a, b in blocks for f in range(a, b)] == list(range(n))
    for a, b in blocks:
        assert (b - a) * frame_values <= _BLOCK_VALUES or b - a == 1
    # every block but the last holds as many whole frames as fit
    step = max(1, _BLOCK_VALUES // frame_values)
    assert all(b - a == step for a, b in blocks[:-1])


@given(t=st.integers(0, 2**32 - 1),
       bin_fps=st.floats(5e-324, 1e6, allow_nan=False, allow_infinity=False))
@example(t=0, bin_fps=5e-324)  # the count's product underflows to 0
def test_time_bins_count_exceeds_every_bin(t, bin_fps):
    b, n_bins = time_bins(np.array([0, t], np.uint32), bin_fps)
    assert 0 <= b[0] <= b[1] < n_bins


def test_us_to_tick_rounds_ties_to_the_later_tick():
    # 500 fps ticks of a 1 kHz clip each take one on-grid stamp and one tie
    assert us_to_tick([1000, 3000, 5000], 500.0).tolist() == [1, 2, 3]
    assert us_to_tick([0, 999, 1000, 1001], 1000.0).tolist() == [0, 1, 1, 1]


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_rates_must_be_finite_and_positive(rate):
    ev = EventList.from_arrays(1, 1, t=[0], x=[0], y=[0], p=[1])
    with pytest.raises(ConfigError):
        voxelize(ev, rate)
    with pytest.raises(ConfigError):
        sparse_to_dense(ev, rate, 1)


def test_spike_train_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        SpikeTrain(1, 1, 1000.0, np.full((2, 1, 1), 2, np.int8))


@pytest.mark.parametrize("value,ok", [(np.nan, False), (np.inf, False),
                                      (-np.inf, False), (F32_MAX, True),
                                      (-F32_MAX, True)])
def test_log_diff_seq_accepts_exactly_the_finite_entries(value, ok):
    data = np.zeros((2, 1, 2), np.float32)
    data[1, 0, 1] = value
    if ok:
        LogDiffSeq(2, 1, 1000.0, data)
    else:
        with pytest.raises(ValueError, match="^entries must be finite$"):
            LogDiffSeq(2, 1, 1000.0, data)


@pytest.mark.parametrize("bad", [-2, 127])
def test_spike_train_names_its_out_of_range_entries(bad):
    data = np.array([[[-1, 0]], [[1, bad]]], np.int8)
    with pytest.raises(ValueError, match=re.escape(f"entries outside {{-1,0,1}}: [{bad}]")):
        SpikeTrain(2, 1, 1000.0, data)
