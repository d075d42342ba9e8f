import struct
import time

import numpy as np
import pytest

from evsynth.core import LogDiffSeq
from evsynth.errors import FormatError, ShapeError
from evsynth.spikenet import (BlockParams, SpikeNetConfig, SpikeNetParams,
                              backward, conv1d, forward, infer_stream,
                              init_params, load_checkpoint, receptive_field,
                              save_checkpoint)


def small_cfg(**kw):
    base = dict(channels=4, kernel=3, depth=2)
    base.update(kw)
    return SpikeNetConfig(**base)


def noisy_params(cfg, seed=0, bias_scale=0.2, dtype=np.float64):
    """Init params with nonzero biases so every gradient path is live."""
    gen = np.random.default_rng(seed)
    p = init_params(cfg, seed, dtype=dtype)
    tensors = [t if t.ndim == 3 else gen.normal(0, bias_scale, t.shape)
               for t in p.tensors()]
    return SpikeNetParams.from_tensors([np.asarray(t, dtype) for t in tensors])


def test_conv_hand_example():
    # k=3 kernel (1,2,3) against x=(0,1,0) under the cross-correlation
    # convention: y[t] = sum_w w[w] * x[t + w - 1]
    y = conv1d(np.array([[[0.0, 1.0, 0.0]]]), np.array([[[1.0, 2.0, 3.0]]]),
               np.zeros(1))
    assert y[0, 0].tolist() == [3.0, 2.0, 1.0]


def test_receptive_field_formula():
    assert receptive_field(SpikeNetConfig(kernel=7, depth=3)) == 43
    assert receptive_field(SpikeNetConfig(kernel=1, depth=5)) == 1
    assert receptive_field(SpikeNetConfig(kernel=3, depth=1)) == 7


@pytest.mark.parametrize("kernel,depth", [(7, 3), (3, 1), (5, 2)])
def test_impulse_response_confined_to_receptive_field(kernel, depth):
    cfg = SpikeNetConfig(channels=8, kernel=kernel, depth=depth)
    params = init_params(cfg, 4)
    k, k0 = 129, 64
    base = np.zeros(k, np.float64)
    bumped = base.copy()
    bumped[k0] = 1.0
    _, c0 = forward(base, params, cfg)
    _, c1 = forward(bumped, params, cfg)
    diff = np.abs(c1.logits[0] - c0.logits[0])
    half = (receptive_field(cfg) - 1) // 2
    outside = np.ones(k, bool)
    outside[max(0, k0 - half):k0 + half + 1] = False
    assert np.all(diff[outside] == 0.0)
    assert diff[k0] > 0.0


def test_init_deterministic_and_he_scaled():
    cfg = SpikeNetConfig(channels=64, kernel=7, depth=1)
    a, b = init_params(cfg, 12), init_params(cfg, 12)
    assert all(np.array_equal(x, y) for x, y in zip(a.tensors(), b.tensors()))
    w = a.blocks[0].w1  # 64*64*7 > 1e4 weights
    assert w.size >= 10_000
    fan_in = w.shape[1] * w.shape[2]
    assert w.var() == pytest.approx(2.0 / fan_in, rel=0.20)
    assert not a.b_in.any() and not a.b_head.any()


def test_zero_params_give_zero_spikes():
    cfg = small_cfg()
    zeros = SpikeNetParams.from_tensors(
        [np.zeros_like(t) for t in init_params(cfg, 0).tensors()])
    spikes, cache = forward(np.random.default_rng(0).normal(size=33), zeros, cfg)
    assert not spikes.any()
    assert not cache.logits.any()


def test_forward_rejects_bad_shapes():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    with pytest.raises(ShapeError):
        forward(np.zeros((2, 3, 4)), params, cfg)
    with pytest.raises(ShapeError):
        forward(np.zeros((2, 0)), params, cfg)


def test_backward_rejects_mismatched_cache():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    _, cache = forward(np.zeros((2, 16)), params, cfg)
    with pytest.raises(ShapeError):
        backward(np.zeros((2, 8)), cache, params, cfg)
    other = init_params(small_cfg(channels=6), 0)
    with pytest.raises(ShapeError):
        backward(np.zeros((2, 16)), cache, other, cfg)


def test_zero_upstream_grad_gives_zero_grads():
    cfg = small_cfg()
    params = noisy_params(cfg)
    x = np.random.default_rng(3).normal(size=(4, 24))
    _, cache = forward(x, params, cfg)
    grads, dx = backward(np.zeros((4, 24)), cache, params, cfg)
    assert all(not g.any() for g in grads.tensors())
    assert not dx.any()


def _fd_grad(loss_fn, params, eps=1e-6):
    out = []
    for ti, t in enumerate(params.tensors()):
        fd = np.zeros_like(t)
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            tp = [a.copy() for a in params.tensors()]
            tp[ti][idx] += eps
            lp = loss_fn(SpikeNetParams.from_tensors(tp))
            tp[ti][idx] -= 2 * eps
            lm = loss_fn(SpikeNetParams.from_tensors(tp))
            fd[idx] = (lp - lm) / (2 * eps)
        out.append(fd)
    return out


def test_conv_stack_gradients_match_finite_differences():
    # loss directly on the logits (spiking head bypassed), 64-bit
    cfg = small_cfg()
    gen = np.random.default_rng(5)
    params = noisy_params(cfg, 5)
    x = gen.normal(size=(3, 32))
    r = gen.normal(size=(3, 32))

    def loss_fn(p):
        _, cache = forward(x, p, cfg)
        return float((cache.logits * r).sum())

    _, cache = forward(x, params, cfg)
    fd = _fd_grad(loss_fn, params)

    # analytic: the same chain backward() uses, seeded at dlogits = r
    from evsynth.spikenet import conv1d_backward
    dw_head, db_head, dh = conv1d_backward(r[:, None, :], cache.hs[-1], params.w_head)
    blocks = []
    for i in range(len(params.blocks) - 1, -1, -1):
        blk = params.blocks[i]
        ds = dh * (cache.s_pres[i] > 0)
        dw2, db2, dr = conv1d_backward(ds, cache.rs[i], blk.w2)
        dz1 = dr * (cache.z1s[i] > 0)
        dw1, db1, dh_conv = conv1d_backward(dz1, cache.hs[i], blk.w1)
        dh = ds + dh_conv
        blocks.append(BlockParams(dw1, db1, dw2, db2))
    blocks.reverse()
    dz0 = dh * (cache.z0 > 0)
    dw_in, db_in, _ = conv1d_backward(dz0, cache.x[:, None, :], params.w_in)
    analytic = SpikeNetParams(dw_in, db_in, blocks, dw_head, db_head).tensors()

    for g, f in zip(analytic, fd):
        assert np.abs(g - f).max() <= 1e-5 * (np.abs(f).max() + 1e-12)


def test_full_path_gradients_match_relaxed_forward():
    cfg = small_cfg()
    gen = np.random.default_rng(11)
    params = noisy_params(cfg, 11)
    params = SpikeNetParams.from_tensors(
        [t * 2.0 if t.ndim == 3 else t for t in params.tensors()])
    x = gen.normal(size=(3, 32))
    r = gen.normal(size=(3, 32))

    _, cache = forward(x, params, cfg, mode="soft")
    margin = np.abs(np.abs(cache.vprime) - cfg.lif.v_th).min()
    assert margin > 1e-3  # finite differences stay clear of reset flips

    def loss_fn(p):
        soft, _ = forward(x, p, cfg, mode="soft")
        return float((soft * r).sum())

    grads, _ = backward(r, cache, params, cfg)
    fd = _fd_grad(loss_fn, params)
    for g, f in zip(grads.tensors(), fd):
        assert np.abs(g - f).max() <= 1e-3 * (np.abs(f).max() + 1e-12)


def test_input_gradient_matches_finite_differences():
    cfg = small_cfg()
    gen = np.random.default_rng(21)
    params = noisy_params(cfg, 21)
    x = gen.normal(size=(2, 20))
    r = gen.normal(size=(2, 20))
    soft, cache = forward(x, params, cfg, mode="soft")
    _, dx = backward(r, cache, params, cfg)
    eps, fd = 1e-6, np.zeros_like(x)
    for i in range(2):
        for j in range(20):
            xp = x.copy(); xp[i, j] += eps
            xm = x.copy(); xm[i, j] -= eps
            fd[i, j] = ((forward(xp, params, cfg, mode="soft")[0] * r).sum()
                        - (forward(xm, params, cfg, mode="soft")[0] * r).sum()) / (2 * eps)
    assert np.abs(dx - fd).max() <= 1e-5 * np.abs(fd).max()


@pytest.mark.parametrize("kernel,depth,k,chunk", [
    (5, 2, 200, 37),   # ragged last chunk
    (1, 2, 50, 7),     # kernel 1: no halo
    (7, 3, 15, 4),     # K shorter than the halo of 21
    (5, 1, 30, 1),     # one tick per chunk
    (5, 2, 40, 64),    # one chunk holds all of K
    (3, 2, 96, 32),    # K an exact multiple of chunk
], ids=["ragged", "kernel1", "K_under_halo", "chunk1", "chunk_over_K",
        "K_multiple_of_chunk"])
def test_streaming_matches_batch_forward(rng, kernel, depth, k, chunk):
    cfg = SpikeNetConfig(channels=8, kernel=kernel, depth=depth)
    params = noisy_params(cfg, 9, dtype=np.float32)
    data = rng.normal(0, 0.8, size=(k, 8, 8)).astype(np.float32)
    seq = LogDiffSeq(8, 8, 1000.0, data)
    stream = infer_stream(seq, params, cfg, chunk=chunk)
    full, _ = forward(seq.pixel_sequences(), params, cfg, mode="hard")
    want = full.reshape(8, 8, k).transpose(2, 0, 1)
    assert np.array_equal(stream.data, want)
    assert np.abs(stream.data).sum() > 0  # the comparison is not vacuous


def test_streaming_worker_invariance(rng):
    cfg = SpikeNetConfig(channels=4, kernel=7, depth=1)
    params = noisy_params(cfg, 2, dtype=np.float32)
    data = rng.normal(0, 0.8, size=(64, 24, 8)).astype(np.float32)
    seq = LogDiffSeq(8, 24, 1000.0, data)
    base = infer_stream(seq, params, cfg, chunk=50)
    for w in (2, 4, 8):
        assert np.array_equal(infer_stream(seq, params, cfg, chunk=50,
                                           workers=w).data, base.data)


def test_streaming_uniform_init_mode(rng):
    cfg = SpikeNetConfig(channels=4, kernel=3, depth=1)
    params = noisy_params(cfg, 2, dtype=np.float32)
    data = rng.normal(0, 0.5, size=(32, 6, 6)).astype(np.float32)
    seq = LogDiffSeq(6, 6, 1000.0, data)
    a = infer_stream(seq, params, cfg, v0_mode="uniform", seed=1)
    b = infer_stream(seq, params, cfg, v0_mode="uniform", seed=1)
    assert np.array_equal(a.data, b.data)
    z = infer_stream(seq, params, cfg, v0_mode="zero")
    assert not np.array_equal(a.data, z.data)


def test_all_zero_input_zero_bias_is_silent():
    cfg = small_cfg()
    params = init_params(cfg, 7, dtype=np.float32)
    seq = LogDiffSeq(4, 4, 1000.0, np.zeros((50, 4, 4), np.float32))
    assert not infer_stream(seq, params, cfg).data.any()


def test_checkpoint_round_trip(tmp_path):
    cfg = SpikeNetConfig(channels=6, kernel=5, depth=2,)
    params = noisy_params(cfg, 3, dtype=np.float32)
    path = tmp_path / "model.evsn"
    save_checkpoint(path, params, cfg)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert all(np.array_equal(a, b) for a, b in zip(params.tensors(),
                                                    loaded.tensors()))
    # bit-exact file identity
    path2 = tmp_path / "copy.evsn"
    save_checkpoint(path2, loaded, cfg2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.evsn"
    path.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, 0)
    path = tmp_path / "model.evsn"
    save_checkpoint(path, params, cfg)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [(1, 4.0), (0, np.nan), (2, np.inf),
                                         (3, 0.5)])
def test_checkpoint_bad_config_block_is_format_error(tmp_path, field, value):
    cfg = small_cfg()
    path = tmp_path / "model.evsn"
    save_checkpoint(path, init_params(cfg, 0), cfg)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<f", buf, 6 + 4 * field, value)  # after magic + version
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_weights(tmp_path):
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for bad in (np.nan, np.inf):
        params.blocks[0].w1[0, 0, 0] = bad
        path = tmp_path / "model.evsn"
        save_checkpoint(path, params, cfg)
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_throughput_scales_with_pixel_count(rng):
    # 4x the pixels should cost ~4x the time
    cfg = SpikeNetConfig(channels=8, kernel=5, depth=2)
    params = init_params(cfg, 1, dtype=np.float32)

    def run(n):
        data = rng.normal(0, 0.5, size=(128, n, n)).astype(np.float32)
        seq = LogDiffSeq(n, n, 1000.0, data)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            infer_stream(seq, params, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    run(32)  # warm-up
    ratio = run(64) / run(32)
    assert 3.2 <= ratio <= 4.8
