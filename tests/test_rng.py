"""The counter-RNG key scheme, pinned.

Golden values were recorded before any caller hashed a key prefix once and
extended it, so a change that moves a key, a salt or a key's order shows up
here as well as in the byte-identical pipeline outputs.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from evsynth import refsim, rng, scenegen, spikenet
from evsynth.core import FrameSeq, LogDiffSeq
from evsynth.spiking import LifParams

_U64 = st.integers(0, 2**64 - 1)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _input() -> LogDiffSeq:
    g = np.random.default_rng(7)
    return LogDiffSeq(7, 5, 1000.0, g.normal(0, 0.15, size=(60, 5, 7)).astype(np.float32))


def test_hash_u64_golden_values():
    assert int(rng.hash_u64(0)) == 16294208416658607535
    assert int(rng.hash_u64(1, 2, 3)) == 15020427595393229491
    assert int(rng.hash_u64(2**64 - 1, 0, 7, 21)) == 3284733232449551291
    assert int(rng.hash_u64(12345, 3, 4, 100, 25)) == 2264286688473278519


def test_hash_u64_broadcasts_array_keys():
    ys, xs = np.arange(3)[:, None], np.arange(4)[None, :]
    h = rng.hash_u64(9, ys, xs, 5)
    assert h.shape == (3, 4) and h.dtype == np.uint64
    assert h[2, 1] == rng.hash_u64(9, 2, 1, 5)


@settings(max_examples=30)
@given(_U64, st.lists(_U64, max_size=3), st.lists(_U64, max_size=3))
def test_fold_extends_a_hashed_prefix(seed, a, b):
    assert rng.fold(rng.hash_u64(seed, *a), *b) == rng.hash_u64(seed, *a, *b)


def test_pixel_key_is_the_hashed_seed_y_x_prefix():
    key = rng.pixel_key(3, 4, 6)
    assert key.shape == (4, 6)
    assert key[3, 5] == rng.hash_u64(3, 3, 5)


def test_refsim_spikes_golden():
    cfg = refsim.RefSimConfig(theta=0.2, sigma_theta=0.1, init_mode="uniform",
                              leak_rate=50.0, shot_rate=100.0, seed=2**63 + 5)
    train = refsim.simulate(_input(), cfg)
    assert np.abs(train.data).sum() == 704
    assert _sha(train.data) == (
        "bf6e5ac994ed870ef375029559c359db9bbfae63b0fe0ad5225fd47a15d8fd5a")


def test_infer_stream_uniform_v0_spikes_golden():
    cfg = spikenet.SpikeNetConfig(channels=4, kernel=3, depth=1,
                                  lif=LifParams(2.0, 0.05))
    p = spikenet.init_params(cfg, seed=3)
    x = _input()
    s = spikenet.infer_stream(x, p, cfg, v0_mode="uniform", seed=11)
    # the random initial state changes some spikes, so the hash pins it
    assert (s.data != spikenet.infer_stream(x, p, cfg).data).any()
    assert _sha(s.data) == (
        "ffdcd44664fd4baf7af1442bd57020ce5bc2acf9b22111dbe6f2ef98a2ac2fe4")


def test_render_noise_golden():
    frames = np.linspace(0.1, 1.0, 72, dtype=np.float32).reshape(4, 2, 3, 3)
    noisy = scenegen.add_render_noise(FrameSeq(3, 2, 100.0, frames),
                                      scenegen.NoiseModel(16, 0.5, 9))
    assert _sha(noisy.frames) == (
        "b2aad9058acc62e3974139ae988ff5f4214187d4a4e895c458465ae9a6bf6148")
