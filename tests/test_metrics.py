import tracemalloc

import numpy as np
import pytest

from evsynth import metrics
from evsynth.core import EventList, SpikeTrain, dense_to_sparse, us_to_tick
from evsynth.errors import RangeError, ShapeError
from evsynth.loss import emd_polar
from evsynth.metrics import event_distance, intensity_histogram, stream_distance

from conftest import random_event_list


def train_from(data, fps=1000.0):
    data = np.asarray(data, np.int8)
    return SpikeTrain(data.shape[2], data.shape[1], fps, data)


def test_identical_streams(rng):
    data = rng.integers(-1, 2, size=(30, 4, 4)).astype(np.int8)
    a = train_from(data)
    rep = stream_distance(a, train_from(data.copy()))
    assert rep.emd == 0.0
    assert rep.count_ratio == rep.pos_ratio == rep.neg_ratio == 1.0
    assert rep.pixels == 16


def test_emd_is_symmetric(rng):
    a = train_from(rng.integers(-1, 2, size=(25, 3, 5)).astype(np.int8))
    b = train_from(rng.integers(-1, 2, size=(25, 3, 5)).astype(np.int8))
    assert stream_distance(a, b).emd == pytest.approx(stream_distance(b, a).emd)


def test_time_shift_matches_loss_module_oracle():
    k = 16
    data = np.zeros((k, 1, 1), np.int8)
    data[4, 0, 0] = 1
    shifted = np.zeros_like(data)
    shifted[5, 0, 0] = 1
    rep = stream_distance(train_from(data), train_from(shifted))
    want = emd_polar(shifted[:, 0, 0].astype(float), data[:, 0, 0].astype(float))
    assert rep.emd == pytest.approx(float(want))
    assert rep.emd == pytest.approx(1.0 / k)  # one-tick shift of a single event


def test_polarity_flip_swaps_ratios(rng):
    data = rng.integers(-1, 2, size=(40, 6, 6)).astype(np.int8)
    ref = train_from(rng.integers(-1, 2, size=(40, 6, 6)).astype(np.int8))
    a = stream_distance(train_from(data), ref)
    b = stream_distance(train_from(-data), ref)
    assert a.count_ratio == pytest.approx(b.count_ratio)
    pos_events = np.maximum(data, 0).sum()
    neg_events = np.maximum(-data, 0).sum()
    ref_pos = np.maximum(ref.data, 0).sum()
    ref_neg = np.maximum(-ref.data, 0).sum()
    assert a.pos_ratio == pytest.approx(pos_events / ref_pos)
    assert b.pos_ratio == pytest.approx(neg_events / ref_pos)
    assert b.neg_ratio == pytest.approx(pos_events / ref_neg)


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        stream_distance(train_from(np.zeros((4, 2, 2), np.int8)),
                        train_from(np.zeros((5, 2, 2), np.int8)))


def test_histogram_empty_stream():
    from evsynth.core import EVENT_DTYPE
    hist = intensity_histogram(EventList(4, 3, np.empty(0, EVENT_DTYPE)))
    assert hist[0] == 12  # one bin, every pixel at zero count
    assert hist[1:].sum() == 0


def test_histogram_steady_1khz_stream():
    # one event per ms for one second into 60 FPS bins: 16 or 17 per bin
    t = np.arange(1000, dtype=np.uint32) * 1000
    ev = EventList.from_arrays(1, 1, t=t, x=np.zeros(1000), y=np.zeros(1000),
                               p=np.ones(1000))
    hist = intensity_histogram(ev, bin_fps=60.0, buckets=32)
    assert hist.sum() == 60  # 60 pixel-bins
    assert hist[16] + hist[17] == 60
    assert hist[:16].sum() == 0 and hist[18:].sum() == 0


def test_histogram_conservation(rng):
    ev = random_event_list(rng, n=700, width=8, height=8)
    hist = intensity_histogram(ev, bin_fps=60.0, buckets=16)
    from evsynth.core import voxelize
    grid = voxelize(ev, 60.0)
    assert hist.sum() == grid.n_bins * 64


def test_histogram_overflow_bucket():
    t = np.arange(40, dtype=np.uint32)  # 40 events inside one 60FPS bin
    ev = EventList.from_arrays(1, 1, t=t, x=np.zeros(40), y=np.zeros(40),
                               p=np.ones(40))
    hist = intensity_histogram(ev, bin_fps=60.0, buckets=32)
    assert hist[31] == 1  # all 40 land in the >=31 overflow bucket


def test_metric_agrees_with_loss_module(rng):
    a = train_from(rng.integers(-1, 2, size=(20, 5, 4)).astype(np.int8))
    b = train_from(rng.integers(-1, 2, size=(20, 5, 4)).astype(np.int8))
    rep = stream_distance(a, b)
    per_pixel = emd_polar(a.pixel_sequences().astype(float),
                          b.pixel_sequences().astype(float))
    assert rep.emd == pytest.approx(float(per_pixel.mean()), abs=1e-12)


def test_event_distance_at_the_tick_rate_equals_stream_distance(rng):
    data = rng.integers(-1, 2, size=(2, 30, 3, 5)).astype(np.int8)
    data[:, -1] = 1  # both streams reach the last tick
    a, b = train_from(data[0]), train_from(data[1])
    got = event_distance(dense_to_sparse(a), dense_to_sparse(b), 1000.0)
    assert got == stream_distance(a, b)


def test_event_distance_counts_several_events_per_tick():
    # two 1 kHz events of one pixel share a 500 fps tick without colliding
    a = EventList.from_arrays(2, 1, t=[1000, 1900], x=[1, 1], y=[0, 0], p=[1, 1])
    rep = event_distance(a, a, 500.0)
    assert (rep.emd, rep.count_ratio, rep.pixels) == (0.0, 1.0, 2)
    b = EventList.from_arrays(1, 1, t=[1000, 2000], x=[0, 0], y=[0, 0], p=[1, -1])
    rep = event_distance(a, b, 500.0)
    assert rep.pos_ratio == 2.0 and rep.neg_ratio == 0.0


@pytest.mark.parametrize("fps", [97.0, 500.0, 1000.0])
def test_event_distance_is_the_integer_sum_over_dense_counts(rng, fps):
    # S = sum over polarity, pixel and tick t of |F_t| + |D - F_(t-1)|, F the
    # running sum of b - a counts and D its last value; emd = S / (2 K pixels)
    for _ in range(20):
        a, b = (random_event_list(rng, width=4, height=3, n=80, t_max=30_000)
                for _ in range(2))
        ticks = [us_to_tick(e.records["t"], fps) for e in (a, b)]
        k = max(int(t.max()) + 1 for t in ticks)
        counts = []
        for e, t in zip((a, b), ticks):
            r = e.records
            n = np.zeros((2, 3, 4, k), np.int64)
            np.add.at(n, ((r["p"] < 0).astype(int), r["y"], r["x"], t), 1)
            counts.append(n)
        f = np.cumsum(counts[1] - counts[0], axis=-1)
        f_before = np.concatenate([np.zeros_like(f[..., :1]), f[..., :-1]], axis=-1)
        s = int(np.abs(f).sum() + np.abs(f[..., -1:] - f_before).sum())
        assert event_distance(a, b, fps).emd == s / (2 * k * 12)


def test_event_distance_memory_follows_the_events():
    # 2**26 us at 1 kHz is 67110 ticks, which counts over 2 x 64 pixels x
    # ticks would take 69 MB a stream to hold
    a = EventList.from_arrays(8, 8, t=[0], x=[3], y=[5], p=[1])
    b = EventList.from_arrays(8, 8, t=[2**26], x=[3], y=[5], p=[1])
    tracemalloc.start()
    try:
        rep = event_distance(a, b, 1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # F is -1 for the 67109 ticks before b's event, then 0
    assert rep.emd == 2 * 67109 / (2 * 67110 * 64)


def test_event_distance_over_no_pixels_is_nan():
    from evsynth.core import EVENT_DTYPE
    empty = EventList(0, 0, np.empty(0, EVENT_DTYPE))
    rep = event_distance(empty, empty, 1000.0)
    assert np.isnan(rep.emd) and (rep.count_ratio, rep.pixels) == (1.0, 0)


def test_distance_past_int64_is_range_error():
    one = (np.zeros(1, np.int64), np.zeros(1, np.int64))
    with pytest.raises(RangeError):
        metrics._report(one, one, 2**62, 1)


def test_histogram_bucket_0_past_int64_is_range_error():
    ev = EventList.from_arrays(65535, 65535, t=[2**32 - 1], x=[0], y=[0], p=[1])
    with pytest.raises(RangeError):
        intensity_histogram(ev, bin_fps=1e6)
