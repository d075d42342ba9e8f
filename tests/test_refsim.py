import numpy as np
import pytest

from evsynth.core import LogDiffSeq
from evsynth.luminance import log_diff_sequence
from evsynth.refsim import (RefSimConfig, naive_baseline,
                            pixel_thresholds, simulate, simulate_blocks)
from evsynth.scenegen import SceneSpec, gen_scene
from evsynth.spiking import LifParams
from conftest import SPLITS, split_ticks, traced_peak
from lif_oracle import bilif_sequence


def seq(data, fps=1000.0):
    data = np.asarray(data, np.float32)
    if data.ndim == 1:
        data = data[:, None, None]
    return LogDiffSeq(data.shape[2], data.shape[1], fps, data)


NOISELESS = dict(sigma_theta=0.0, init_mode="zero", leak_rate=0.0, shot_rate=0.0)


def brute_force_integrator(x, theta):
    """Independent per-pixel oracle: explicit python fold."""
    v, out = 0.0, []
    for xi in x:
        v += float(xi)
        s = 1 if v >= theta else (-1 if v <= -theta else 0)
        out.append(s)
        v -= s * theta
    return out, v


def test_saturation_hand_example():
    cfg = RefSimConfig(theta=0.2, **NOISELESS)
    x = seq([0.65, 0, 0, 0, 0])
    train, v = simulate(x, cfg, return_state=True)
    assert train.data[:, 0, 0].tolist() == [1, 1, 1, 0, 0]
    assert v[0, 0] == pytest.approx(0.05, abs=1e-6)


def test_subthreshold_prefix_never_fires(rng):
    cfg = RefSimConfig(theta=0.5, **NOISELESS)
    x = rng.uniform(-0.04, 0.04, size=(50, 4, 4)).astype(np.float32)
    assert abs(np.cumsum(x, axis=0)).max() < 0.5
    assert not simulate(seq(x), cfg).data.any()


def test_matches_brute_force_oracle(rng):
    for _ in range(100):
        theta = float(rng.uniform(0.05, 0.5))
        x = rng.normal(0, 0.3, size=rng.integers(5, 40)).astype(np.float32)
        cfg = RefSimConfig(theta=theta, **NOISELESS)
        train, v = simulate(seq(x), cfg, return_state=True)
        want, v_want = brute_force_integrator(x.astype(np.float64), theta)
        assert train.data[:, 0, 0].tolist() == want
        assert v[0, 0] == pytest.approx(v_want, abs=1e-12)


def test_conservation_identity(rng):
    cfg = RefSimConfig(theta=0.2, **NOISELESS)
    x = rng.normal(0, 0.2, size=(100, 8, 8)).astype(np.float32)
    train, v = simulate(seq(x), cfg, return_state=True)
    lhs = cfg.theta * train.data.astype(np.float64).sum(axis=0) + v
    rhs = x.astype(np.float64).sum(axis=0)
    assert np.abs(lhs - rhs).max() < 1e-6


def test_spike_count_bound(rng):
    cfg = RefSimConfig(theta=0.25, **NOISELESS)
    x = rng.normal(0, 0.4, size=(80, 6, 6)).astype(np.float32)
    train = simulate(seq(x), cfg)
    total = np.abs(train.data.astype(np.int64)).sum(axis=0)
    bound = np.ceil(np.abs(x.astype(np.float64)).sum(axis=0) / cfg.theta)
    assert np.all(total <= bound)


def test_naive_baseline_contrasts_with_integrator():
    theta = 0.2
    x = seq([0.65, 0.0, 0.0])
    assert naive_baseline(x, theta).data[:, 0, 0].tolist() == [1, 0, 0]
    assert simulate(x, RefSimConfig(theta=theta, **NOISELESS)).data[:, 0, 0].tolist() == [1, 1, 1]


def test_naive_misses_slow_drift():
    theta = 0.2
    x = seq([0.1, 0.1, 0.1])
    assert not naive_baseline(x, theta).data.any()
    got = simulate(x, RefSimConfig(theta=theta, **NOISELESS)).data[:, 0, 0]
    assert got.tolist() == [0, 1, 0]  # cumsum reaches 0.2 at the second tick


def test_naive_all_below_threshold():
    x = seq([0.1, -0.15, 0.19])
    assert not naive_baseline(x, 0.2).data.any()


def test_uniform_init_spreads_first_fire(rng):
    cfg = RefSimConfig(theta=0.2, sigma_theta=0.0, init_mode="uniform",
                       leak_rate=0.0, shot_rate=0.0, seed=5)
    x = np.full((60, 100, 100), 0.01, np.float32)
    train = simulate(seq(x), cfg)
    fired = train.data != 0
    assert fired.any(axis=0).all()
    first = np.argmax(fired, axis=0)
    assert len(np.unique(first)) >= 10


@pytest.mark.parametrize("split", SPLITS)
def test_simulate_blocks_do_not_depend_on_the_split(rng, split):
    # every draw is keyed by the global tick and the membrane is carried,
    # so any split of xs gives simulate's spikes and final membrane
    cfg = RefSimConfig(theta=0.2, init_mode="uniform", leak_rate=40.0,
                       shot_rate=80.0, seed=7)
    x = seq(rng.normal(0, 0.1, size=(90, 6, 5)))
    want, v_want = simulate(x, cfg, return_state=True)
    spikes, v = zip(*simulate_blocks(split_ticks(x.data, split), 6, 5, x.fps, cfg))
    assert np.array_equal(np.concatenate(spikes), want.data)
    assert np.array_equal(v[-1], v_want)
    assert np.abs(want.data).sum() > 0


def test_threshold_mismatch_floor():
    cfg = RefSimConfig(theta=0.2, sigma_theta=10.0, seed=3)
    th = pixel_thresholds(cfg, 50, 50)
    assert th.min() >= cfg.theta / 4.0
    assert th.max() > cfg.theta  # mismatch is actually present


def test_matches_bilif_in_no_leak_limit(rng):
    # sigma=0, zero init, noise off: simulate == per-pixel no-leak BiLIF fold
    cfg = RefSimConfig(theta=0.3, **NOISELESS)
    x = rng.normal(0, 0.3, size=(64, 5, 7)).astype(np.float32)
    train = simulate(seq(x), cfg)
    p = LifParams(tau=np.inf, v_th=cfg.theta)
    for y in range(5):
        for xx in range(7):
            spikes, _ = bilif_sequence(x[:, y, xx].astype(np.float64), p)
            assert np.array_equal(spikes, train.data[:, y, xx])


def test_noise_rates_produce_extra_events(rng):
    quiet = seq(np.zeros((2000, 16, 16), np.float32))
    cfg = RefSimConfig(theta=0.2, sigma_theta=0.0, init_mode="zero",
                       leak_rate=5.0, shot_rate=20.0, seed=2)
    train = simulate(quiet, cfg)
    count = np.abs(train.data.astype(np.int64)).sum()
    # expected (5 + 20) / 1000 per tick per pixel = 12800 total
    assert 0.7 * 12800 < count < 1.3 * 12800
    assert not simulate(quiet, RefSimConfig(theta=0.2, **NOISELESS)).data.any()


@pytest.mark.parametrize("init_mode", ["zero", "uniform"])
def test_simulate_peak_is_below_its_input(init_mode):
    # each float32 tick widens into the float64 membrane as it is added, so
    # simulate holds no float64 copy of the clip: only its int8 output and
    # one tick's temporaries
    x = log_diff_sequence(gen_scene(SceneSpec("mixed", 64, 64, 1000.0, 0.251, seed=2)))
    _, peak = traced_peak(simulate, x, RefSimConfig(init_mode=init_mode))
    assert peak < x.data.nbytes
