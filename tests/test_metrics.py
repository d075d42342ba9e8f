import numpy as np
import pytest

from evsynth.core import EventList, SpikeTrain
from evsynth.errors import ShapeError
from evsynth.loss import emd_polar
from evsynth.metrics import intensity_histogram, stream_distance

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
