import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evsynth.core import (EventList, SpikeTrain, dense_to_sparse,
                          sparse_to_dense, tick_to_us, voxelize)
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


def test_voxelize_explicit_duration():
    ev = EventList.from_arrays(1, 1, t=[0], x=[0], y=[0], p=[1])
    grid = voxelize(ev, 60.0, duration_us=1_000_000)
    assert grid.n_bins == 60
    assert grid.unsigned.sum() == 1


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
