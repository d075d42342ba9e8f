import struct
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

from evsynth import cli, spikenet
from evsynth.core import LogDiffSeq
from evsynth.errors import ConfigError, FormatError, RangeError, ShapeError
from evsynth.formats import read_evt1
from evsynth.luminance import log_diff_sequence
from evsynth.scenegen import SceneSpec, gen_scene
from evsynth.spiking import surrogate_grad
from evsynth.spikenet import (_BLOCK, _TILE, BlockParams, SpikeNetConfig,
                              SpikeNetParams, _conv_stack, backward, conv1d,
                              conv1d_backward, forward, infer_stream, init_params,
                              load_checkpoint, receptive_field, save_checkpoint)

from conftest import (SPLITS, FakeBlas, fake_blas, run_cli, split_ticks,
                      traced_peak)


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


def _conv_reference(x, w):
    """Direct nested sum of y[b, o, t] = sum_{i,j} w[o, i, j] x[b, i, t+j-pad]."""
    n_b, _, t_len = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    y = np.zeros((n_b, w.shape[0], t_len))
    for t in range(t_len):
        for j in range(k):
            s = t + j - pad
            if 0 <= s < t_len:
                y[:, :, t] += x[:, :, s] @ w[:, :, j].T
    return y


# A small odd tile width makes conv tiles split sequences and taps.
_SMALL_TILE = 5


def _set_tile(monkeypatch, tile):
    if tile is not None:
        monkeypatch.setattr("evsynth.spikenet._TILE", tile)


@pytest.mark.parametrize("k,t_len,tile", [
    pytest.param(k, t_len, tile, id=f"{k}-{t_len}" + (f"-tile{tile}" if tile else ""))
    for tile in (None, _SMALL_TILE) for k in (1, 3, 7) for t_len in (1, 2, 3, 5, 8)
])
def test_conv_pair_matches_oracle_on_short_sequences(monkeypatch, k, t_len, tile):
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(100 * k + t_len)
    x = gen.normal(size=(3, 4, t_len))
    w = gen.normal(size=(5, 4, k))
    b = gen.normal(size=5)
    gy = gen.normal(size=(3, 5, t_len))
    y = conv1d(x, w, b)
    assert np.allclose(y, _conv_reference(x, w) + b[None, :, None],
                       rtol=0, atol=1e-12)
    dw, db, dx = conv1d_backward(gy, x, w)
    assert np.array_equal(db, gy.sum((0, 2)))
    # adjoint identities: <conv(x, w), gy> = <x, dx> = <w, dw>
    inner = float((conv1d(x, w, np.zeros(5)) * gy).sum())
    assert float((x * dx).sum()) == pytest.approx(inner, rel=0, abs=1e-9)
    assert float((w * dw).sum()) == pytest.approx(inner, rel=0, abs=1e-9)


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
@pytest.mark.parametrize("ci,co,k", [(1, 32, 7), (32, 32, 7), (32, 1, 1)])
def test_conv1d_on_a_batch_equals_conv1d_on_its_halves(monkeypatch, ci, co, k,
                                                        tile):
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(ci + co + k)
    x = gen.normal(size=(48, ci, 150)).astype(np.float32)
    w = gen.normal(size=(co, ci, k)).astype(np.float32)
    b = gen.normal(size=co).astype(np.float32)
    halves = np.concatenate([conv1d(x[:17], w, b), conv1d(x[17:], w, b)])
    assert np.array_equal(conv1d(x, w, b), halves)


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
@pytest.mark.parametrize("ci,k", [(1, 7), (4, 1), (4, 3)])
def test_conv_backward_without_dx_gives_the_same_dw(monkeypatch, ci, k, tile):
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(20 + k)
    x = gen.normal(size=(3, ci, 13))
    w = gen.normal(size=(5, ci, k))
    gy = gen.normal(size=(3, 5, 13))
    dw, db, _ = conv1d_backward(gy, x, w)
    dw_only, db_only, dx = conv1d_backward(gy, x, w, input_grad=False)
    assert dx is None
    assert np.array_equal(dw_only, dw)
    assert np.array_equal(db_only, db)


@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no-dx"])
def test_conv_backward_folds_the_tile_dws_in_tile_order(monkeypatch, input_grad):
    # a 1x1x1 kernel over 10 tiles of 5 columns; each tile's dw product is
    # its first column's gy. In tile order each 1 that meets 2**53 rounds
    # away, and the fold gives 2; numpy's pairwise sum over the tiles gives 4.
    monkeypatch.setattr(spikenet, "_TILE", 5)
    big = 2.0**53
    products = [big, 1, -big, 1, big, 1, 1, -big, 1, 1]
    x, gy = np.zeros((1, 1, 50)), np.zeros((1, 1, 50))
    x[0, 0, ::5], gy[0, 0, ::5] = 1.0, products
    dw, _, _ = conv1d_backward(gy, x, np.ones((1, 1, 1)), input_grad=input_grad)
    assert dw.tolist() == [[[2.0]]]


@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no-dx"])
def test_conv_backward_sums_a_tiles_residue_products_in_residue_order(input_grad):
    # k=3 over 5 columns: x is 1 at columns 0, 1 and 2, one per residue of
    # the window starts, so each residue's GEMM is exact. The middle tap
    # sums gy's big, 1, -big: in residue order 1 meets 2**53 and rounds away.
    big = 2.0**53
    x, gy = np.zeros((1, 1, 5)), np.zeros((1, 1, 5))
    x[0, 0, :3], gy[0, 0, :3] = 1.0, [big, 1, -big]
    dw, _, _ = conv1d_backward(gy, x, np.ones((1, 1, 3)), input_grad=input_grad)
    assert dw.tolist() == [[[1 - big, 0.0, big]]]


def _bptt_loop(g, sg, decay, dtype):
    """backward()'s membrane recursion as it ran on (B, K) columns."""
    dlogits = np.empty(g.shape, dtype)
    carry = np.zeros(g.shape[0], dtype=dtype)
    for t in range(g.shape[1] - 1, -1, -1):
        gvp = g[:, t] * sg[:, t] + carry
        dlogits[:, t] = gvp
        carry = decay * gvp
    return dlogits


@pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
def test_bptt_on_time_major_rows_matches_the_column_loop(g_dtype):
    gen = np.random.default_rng(12)
    g = gen.normal(size=(9, 70)).astype(g_dtype)
    sg = gen.random((9, 70)).astype(np.float32)
    decay = SpikeNetConfig().lif.decay
    want = _bptt_loop(g, sg, decay, np.float32)
    got = spikenet._bptt(g * sg, decay, np.float32)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
@pytest.mark.parametrize("fill", ["zeros", "noise"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_conv_on_a_caller_made_padded_buffer(monkeypatch, k, fill, tile):
    # a (B, T + 2P, C) array with P = 4 wider than every pad here: its
    # interior view is read in place only when the pad rows are zero
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(k)
    buf = gen.normal(size=(3, 9 + 8, 4))
    if fill == "zeros":
        buf[:, :4] = buf[:, -4:] = 0
    x = buf[:, 4:-4].transpose(0, 2, 1)
    assert np.shares_memory(spikenet._padded(x, 3)[0], buf) == (fill == "zeros")
    w = gen.normal(size=(5, 4, k))
    b = gen.normal(size=5)
    gy = gen.normal(size=(3, 5, 9))
    assert np.allclose(conv1d(x, w, b), _conv_reference(x, w) + b[None, :, None],
                       rtol=0, atol=1e-12)
    for got, want in zip(conv1d_backward(gy, x, w),
                         conv1d_backward(gy, np.ascontiguousarray(x), w)):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_conv_reads_a_conv_output_in_place():
    # each activation is the interior view of its padded buffer, which the
    # next conv, forward or backward, reads with no padded copy: a k=7 conv
    # at its own pad, and the k=1 head, whose pad of 0 the wider one serves
    gen = np.random.default_rng(13)
    x = gen.normal(size=(3, 4, 20)).astype(np.float32)
    w = gen.normal(size=(4, 4, 7)).astype(np.float32)
    h = conv1d(x, w, np.zeros(4, np.float32), relu=True)
    for pad in (3, 0):
        buf, p = spikenet._padded(h, pad)
        assert p == 3 and buf.shape == (3 * 26, 4)
        assert np.shares_memory(buf, h) and np.shares_memory(buf[p::26], h[:, :, 0])
    head = conv1d(h, gen.normal(size=(1, 4, 1)).astype(np.float32), np.zeros(1, np.float32))
    assert np.shares_memory(spikenet._padded(head, 0)[0], head)
    assert np.shares_memory(spikenet._padded(h, 3, exact=True)[0], h)


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_fused_residual_relu_equals_separate_passes(monkeypatch, k, tile):
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(10 + k)
    x = gen.normal(size=(3, 4, 11)).astype(np.float32)
    w = gen.normal(size=(4, 4, k)).astype(np.float32)
    b = gen.normal(size=4).astype(np.float32)
    # a fresh array, and a conv output read from its own padded buffer, which
    # inplace overwrites
    for inplace in (False, True):
        for r in (gen.normal(size=(3, 4, 11)).astype(np.float32), conv1d(x, w, -b)):
            want = np.maximum(conv1d(x, w, b) + r, 0)
            got = conv1d(x, w, b, residual=r, relu=True, inplace=inplace)
            assert np.array_equal(got, want)
            if inplace and r.base is not None:  # r is a padded buffer's view
                assert got.base is r.base


def test_conv_inplace_needs_a_residual_apart_from_x():
    # writing into x's own buffer would overwrite columns that later tiles
    # still unfold; with no residual there is no buffer to write into
    gen = np.random.default_rng(11)
    x = gen.normal(size=(3, 4, 9000)).astype(np.float32)
    w = gen.normal(size=(4, 4, 7)).astype(np.float32)
    b = gen.normal(size=4).astype(np.float32)
    h = conv1d(x, w, b, relu=True)
    with pytest.raises(ValueError, match="inplace"):
        conv1d(x, w, b, inplace=True)
    with pytest.raises(ValueError, match="inplace"):
        conv1d(h, w, b, residual=h, relu=True, inplace=True)
    # a residual that only holds x's values in a fresh array is fine
    want = conv1d(h, w, b, residual=h, relu=True)
    assert np.array_equal(conv1d(h, w, b, residual=h.copy(), relu=True, inplace=True), want)


@pytest.mark.parametrize("shape", [(3, 5, 10), (2, 5, 12), (3, 4, 12)])
def test_conv_backward_rejects_a_gy_unlike_the_output(shape):
    gen = np.random.default_rng(12)
    x, w = gen.normal(size=(3, 4, 12)), gen.normal(size=(5, 4, 3))
    for input_grad in (True, False):
        with pytest.raises(ShapeError):
            conv1d_backward(gen.normal(size=shape), x, w, input_grad=input_grad)


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


def test_backward_consumes_its_cache_once():
    # each dx overwrites the activation that masked it; x, logits and
    # vprime keep their values, and a second call on the cache raises
    cfg = small_cfg()
    params = noisy_params(cfg, 7, dtype=np.float32)
    gen = np.random.default_rng(7)
    x, g = (gen.normal(size=(3, 20)).astype(np.float32) for _ in range(2))
    _, cache = forward(x, params, cfg, mode="soft")
    acts = [a.copy() for a in (*cache.hs, *cache.rs)]
    kept = [a.copy() for a in (cache.x, cache.logits, cache.vprime)]
    # a call rejected before the first write leaves the cache as it was
    with pytest.raises(ShapeError):
        backward(g[:, :10], cache, params, cfg)
    with pytest.raises(ShapeError):
        backward(g, cache, init_params(small_cfg(channels=6), 0), cfg)
    with pytest.raises(ValueError, match="dtype"):
        backward(g, cache, SpikeNetParams.from_tensors(
            [t.astype(np.float64) for t in params.tensors()]), cfg)
    assert not cache.consumed
    for got, want in zip((*cache.hs, *cache.rs), acts, strict=True):
        assert got.tobytes() == want.tobytes()

    grads, _ = backward(g, cache, params, cfg)
    _, fresh = forward(x, params, cfg, mode="soft")
    for got, want in zip(grads.tensors(), backward(g, fresh, params, cfg)[0].tensors()):
        assert got.tobytes() == want.tobytes()
    assert cache.consumed
    for got, want in zip((cache.x, cache.logits, cache.vprime), kept, strict=True):
        assert got.tobytes() == want.tobytes()
    assert all(not np.array_equal(got, want)
               for got, want in zip((*cache.hs, *cache.rs), acts, strict=True))
    assert cache.z0 is cache.hs[0] and cache.z1s is cache.rs
    assert all(a is b for a, b in zip(cache.s_pres, cache.hs[1:], strict=True))
    with pytest.raises(ValueError, match="earlier backward") as info:
        backward(g, cache, params, cfg)
    assert "\n" not in str(info.value)


def test_zero_upstream_grad_gives_zero_grads():
    cfg = small_cfg()
    params = noisy_params(cfg)
    x = np.random.default_rng(3).normal(size=(4, 24))
    _, cache = forward(x, params, cfg)
    grads, dx = backward(np.zeros((4, 24)), cache, params, cfg, input_grad=True)
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
    _, dx = backward(r, cache, params, cfg, input_grad=True)
    eps, fd = 1e-6, np.zeros_like(x)
    for i in range(2):
        for j in range(20):
            xp = x.copy(); xp[i, j] += eps
            xm = x.copy(); xm[i, j] -= eps
            fd[i, j] = ((forward(xp, params, cfg, mode="soft")[0] * r).sum()
                        - (forward(xm, params, cfg, mode="soft")[0] * r).sum()) / (2 * eps)
    assert np.abs(dx - fd).max() <= 1e-5 * np.abs(fd).max()


_STREAM_CASES = {  # kernel, depth, K, chunk, sensor height and width
    "ragged": (5, 2, 200, 37, 8, 8),            # ragged last chunk
    "kernel1": (1, 2, 50, 7, 8, 8),             # kernel 1: no halo
    "K_under_halo": (7, 3, 15, 4, 8, 8),        # K shorter than the halo of 21
    "chunk1": (5, 1, 30, 1, 8, 8),              # one tick per chunk
    "chunk_over_K": (5, 2, 40, 64, 8, 8),       # one chunk holds all of K
    "K_multiple_of_chunk": (3, 2, 96, 32, 8, 8),  # K an exact multiple of chunk
    "block_splits_rows": (3, 1, 20, 8, 2, 600),  # _BLOCK-pixel blocks split a row
}


@pytest.mark.parametrize("kernel,depth,k,chunk,h,w,tile,split", [
    pytest.param(*case, tile, split, id=name + (f"-tile{tile}" if tile else "")
                 + ("" if split == "whole" else f"-{split}"))
    for split in SPLITS for tile in (None, _SMALL_TILE)
    for name, case in _STREAM_CASES.items()
])
def test_streaming_matches_batch_forward(monkeypatch, rng, kernel, depth, k,
                                         chunk, h, w, tile, split):
    # however xs is split into blocks, the chunks are the full forward's
    _set_tile(monkeypatch, tile)
    cfg = SpikeNetConfig(channels=8, kernel=kernel, depth=depth)
    params = noisy_params(cfg, 9, dtype=np.float32)
    data = rng.normal(0, 0.8, size=(k, h, w)).astype(np.float32)
    seq = LogDiffSeq(w, h, 1000.0, data)
    stream = np.concatenate([c.copy() for c in spikenet.infer_blocks(
        split_ticks(data, split), k, h, w, params, cfg, chunk=chunk)])
    full, _ = forward(seq.pixel_sequences(), params, cfg, mode="hard")
    want = full.reshape(h, w, k).transpose(2, 0, 1)
    assert np.array_equal(stream, want)
    assert np.abs(stream).sum() > 0  # the comparison is not vacuous


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
@pytest.mark.parametrize("t_len", [1, 2, 40])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_conv_stack_without_record_equals_the_recorded_logits(monkeypatch, k,
                                                              t_len, tile):
    # the no-record path sums each residual into h's own buffer
    _set_tile(monkeypatch, tile)
    cfg = SpikeNetConfig(channels=8, kernel=k, depth=2)
    params = noisy_params(cfg, 4, dtype=np.float32)
    x = np.random.default_rng(k).normal(0, 0.8, (6, t_len)).astype(np.float32)
    _, cache = forward(x, params, cfg)
    assert np.array_equal(_conv_stack(x, params), cache.logits)


def test_infer_peak_is_two_padded_buffers_per_block(monkeypatch):
    # per thread, h and r of one _BLOCK-pixel block and two channels x _TILE
    # tiles (the conv scratch and the head's transposed tile), with no
    # unfold: the convs read their windows from the buffers; besides, the
    # chunk's window of the input (all 250 ticks here, the input's size)
    # and two int8 arrays a quarter of it, the chunk's spikes and the output
    fake_blas(monkeypatch, 2)
    cfg = SpikeNetConfig()
    x = log_diff_sequence(gen_scene(SceneSpec("mixed", 64, 64, 1000.0, 0.251, seed=2)))
    pad = (cfg.kernel - 1) // 2
    buf = cfg.channels * _BLOCK * (x.k + 2 * pad) * 4
    tile = cfg.channels * _TILE * 4
    _, peak = traced_peak(infer_stream, x, init_params(cfg, 0), cfg)
    assert peak < 2 * (2 * buf + 2 * tile) + 1.5 * x.data.nbytes


def _block_threads(monkeypatch, threads, n_blocks):
    """Run infer_stream's blocks checking that each of threads threads takes
    a block of every time chunk: each waits at its first block of a chunk
    until all have one.  A chunk's n_blocks blocks all run before the next
    chunk's, so the j-th block run is of chunk j // n_blocks.  Returns the
    list of the (chunk, thread) that ran each block."""
    barrier = threading.Barrier(threads, timeout=30)
    ran_on, lock = [], threading.Lock()
    rows = spikenet._infer_rows

    def first_waits(*args):
        with lock:
            run = (len(ran_on) // n_blocks, threading.get_ident())
            first = run not in ran_on
            ran_on.append(run)
        if first:
            barrier.wait()
        rows(*args)
    monkeypatch.setattr(spikenet, "_infer_rows", first_waits)
    return ran_on


@pytest.mark.parametrize("threads", [None, 1, 2, 3], ids=["no_blas", "1", "2", "3"])
def test_infer_blocks_match_forward_on_any_thread_count(monkeypatch, rng, threads):
    # 7x9 pixels in 5-pixel blocks: 13 blocks, a multiple of neither 2 nor 3,
    # most of them splitting a row
    real = spikenet._openblas()
    real_before = real and real[0]()
    blas = fake_blas(monkeypatch, threads)
    monkeypatch.setattr(spikenet, "_BLOCK", 5)
    ran_on = _block_threads(monkeypatch, threads or 1, 13)
    cfg = SpikeNetConfig(channels=8, kernel=3, depth=1)
    params = noisy_params(cfg, 9, dtype=np.float32)
    seq = LogDiffSeq(9, 7, 1000.0, rng.normal(0, 0.8, (40, 7, 9)).astype(np.float32))
    active = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so the threads interleave as often as they can
    try:
        stream = infer_stream(seq, params, cfg, chunk=16)
    finally:
        sys.setswitchinterval(interval)
    full, _ = forward(seq.pixel_sequences(), params, cfg, mode="hard")
    assert np.array_equal(stream.data, full.reshape(7, 9, 40).transpose(2, 0, 1))
    assert np.abs(stream.data).sum() > 0
    # 3 chunks of 16 ticks, each of 13 blocks on every thread
    assert len(ran_on) == 3 * 13
    assert [len({t for c, t in ran_on if c == chunk}) for chunk in range(3)] == \
        [threads or 1] * 3
    assert threading.active_count() == active
    if threads:
        assert blas.n == threads
        assert blas.calls == ([1, threads] * 3 if threads > 1 else [])
    assert (real and real[0]()) == real_before


def test_infer_uses_at_most_half_the_block_count_in_threads(monkeypatch, rng):
    # 3 blocks: a second thread would have one block, so the caller runs all
    monkeypatch.setattr(spikenet, "_BLOCK", 5)
    blas = fake_blas(monkeypatch, 4)
    ran_on = _block_threads(monkeypatch, 1, 3)
    cfg = SpikeNetConfig(channels=4, kernel=3, depth=1)
    seq = LogDiffSeq(5, 3, 1000.0, rng.normal(0, 0.8, (12, 3, 5)).astype(np.float32))
    infer_stream(seq, init_params(cfg, 0), cfg)
    assert len(ran_on) == 3 and len(set(ran_on)) == 1 and blas.calls == []


@pytest.mark.parametrize("which", ["fake", "openblas"])
def test_infer_error_in_a_helper_thread_reaches_the_caller(monkeypatch, rng, which):
    if which == "openblas":
        get, set_ = spikenet._openblas() or pytest.skip("numpy's BLAS is not OpenBLAS")
        old = get()
        set_(2)
    else:
        blas = FakeBlas(2)
        get, set_ = blas.get, blas.set
    monkeypatch.setattr(spikenet, "_openblas", lambda: (get, set_))
    rows = spikenet._infer_rows
    helper_began = threading.Event()
    taken = []

    def helper_fails(*args):
        taken.append(args)
        if threading.current_thread() is threading.main_thread():
            helper_began.wait(30)  # so the helper takes a block ...
            time.sleep(0.2)  # ... and has failed before this one ends
            return rows(*args)
        helper_began.set()
        raise KeyError("helper block")
    monkeypatch.setattr(spikenet, "_infer_rows", helper_fails)
    monkeypatch.setattr(spikenet, "_BLOCK", 5)
    cfg = SpikeNetConfig(channels=4, kernel=3, depth=1)
    seq = LogDiffSeq(9, 7, 1000.0, rng.normal(0, 0.8, (12, 7, 9)).astype(np.float32))
    active = threading.active_count()
    try:
        with pytest.raises(KeyError, match="helper block"):
            infer_stream(seq, init_params(cfg, 0), cfg)
        assert len(taken) <= 2  # of 13: no block is taken after the failure
        assert threading.active_count() == active
        assert get() == 2
    finally:
        if which == "openblas":
            set_(old)


def test_infer_overflow_is_a_range_error_on_every_thread(monkeypatch, rng):
    # finite weights large enough that the convs overflow float32: 13
    # blocks on two threads end in one RangeError, with no warning
    fake_blas(monkeypatch, 2)
    monkeypatch.setattr(spikenet, "_BLOCK", 5)
    cfg = SpikeNetConfig(channels=2, kernel=3, depth=1)
    params = init_params(cfg, 1, dtype=np.float32)
    params.blocks[0].w2[:] = 1.5e38
    seq = LogDiffSeq(9, 7, 1000.0, rng.normal(0, 0.8, (12, 7, 9)).astype(np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="overflow"):
            infer_stream(seq, params, cfg)


def test_run_threads_helpers_keep_the_callers_error_state(monkeypatch):
    # items 0 and 1 each wait until the other is taken, so each thread runs one
    fake_blas(monkeypatch, 2)
    barrier = threading.Barrier(2, timeout=30)
    seen = []

    def work(slot, i):
        if i < 2:
            barrier.wait()
        seen.append((slot, np.geterr()["over"]))
    with np.errstate(over="raise"):
        spikenet._run_threads(2, 4, work)
    assert {slot for slot, _ in seen} == {0, 1}
    assert [over for _, over in seen] == ["raise"] * 4


def test_run_threads_interrupt_in_the_callers_item_leaves_no_helper(monkeypatch):
    # the caller's item raises once the helper is in its first item, which
    # ends 0.2 s later; the helper takes no other of the 50 items
    fake_blas(monkeypatch, 2)
    helper_began = threading.Event()
    helper_items = []

    def work(slot, i):
        if slot == 0:
            helper_began.wait(30)
            raise KeyboardInterrupt
        helper_began.set()
        time.sleep(0.2)
        helper_items.append(i)
    active = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        spikenet._run_threads(2, 50, work)
    assert threading.active_count() == active
    assert len(helper_items) == 1


def test_run_threads_interrupt_in_join_leaves_no_helper(monkeypatch):
    # a signal's exception can reach the caller while it waits in join: here
    # the first join raises, with the helper still in its item for 0.2 s
    fake_blas(monkeypatch, 2)
    helper_began, interrupted = threading.Event(), threading.Event()
    helper_items = []

    class Thread(threading.Thread):
        def join(self, timeout=None):
            if not interrupted.is_set():
                interrupted.set()
                raise KeyboardInterrupt
            super().join(timeout)
    monkeypatch.setattr(spikenet, "threading",
                        types.SimpleNamespace(Thread=Thread, Lock=threading.Lock))

    def work(slot, i):
        if slot == 0:
            helper_began.wait(30)
            return
        helper_began.set()
        interrupted.wait(30)
        time.sleep(0.2)
        helper_items.append(i)
    active = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        spikenet._run_threads(2, 3, work)
    assert threading.active_count() == active
    assert len(helper_items) == 1


def test_infer_output_independent_of_blas_threads(tmp_path):
    # default-size net, so each tile's GEMM is big enough for BLAS to split
    clip, ckpt = tmp_path / "clip.fseq", tmp_path / "model.evsn"
    assert cli.main(["gen", "--out", str(clip), "--set", "scene.kind=mixed",
                     "--set", "scene.width=32", "--set", "scene.height=32",
                     "--set", "scene.duration=0.1"]) == 0
    cfg = SpikeNetConfig()
    save_checkpoint(ckpt, init_params(cfg, 0), cfg)
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.evt1"
        run_cli(threads, "infer", clip, ckpt, "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(read_evt1(tmp_path / "t1.evt1")) > 0


# _TILE for the tile-thread tests: 15 sequences of 50 ticks, padded by 3 on
# each side, make 840 columns, 13 full tiles and a ragged 14th
_THREAD_TILE = 64


@pytest.fixture
def real_blas_at_2():
    """The real OpenBLAS's (get, set), at 2 threads for the test."""
    get, set_ = spikenet._openblas() or pytest.skip("numpy's BLAS is not OpenBLAS")
    old = get()
    set_(2)
    yield get, set_
    set_(old)


def _every_thread_works(monkeypatch):
    """Make every thread of each _run_threads call take an item: each waits
    at its first until all have one.  Returns one (n_threads, slots that took
    an item) per call."""
    run = spikenet._run_threads
    calls = []

    def first_waits(n_threads, n_items, work):
        barrier = threading.Barrier(n_threads, timeout=30)
        slots = set()

        def item(slot, i):
            if slot not in slots:
                slots.add(slot)
                barrier.wait()
            work(slot, i)
        calls.append((n_threads, slots))
        run(n_threads, n_items, item)
    monkeypatch.setattr(spikenet, "_run_threads", first_waits)
    return calls


def _net_step(x, g, params, cfg, input_grad):
    """Soft forward and backward: every array either returns."""
    spikes, cache = forward(x, params, cfg, mode="soft")
    grads, dx = backward(g, cache, params, cfg, input_grad=input_grad)
    return [spikes, cache.logits, *grads.tensors()] + ([dx] if input_grad else [])


@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no_dx"])
@pytest.mark.parametrize("threads", [1, 2, 3, "openblas"])
def test_conv_tiles_on_threads_match_the_serial_run(monkeypatch, request,
                                                    threads, input_grad):
    # the k=7 input conv, k=7 residual convs and the k=1 head, forward and
    # backward, over 14 tiles with a ragged last one: above the floor for 3
    # threads
    monkeypatch.setattr(spikenet, "_TILE", _THREAD_TILE)
    cfg = SpikeNetConfig(channels=8, kernel=7, depth=2)
    params = noisy_params(cfg, 3, dtype=np.float32)
    gen = np.random.default_rng(8)
    x = gen.normal(0, 0.8, (15, 50)).astype(np.float32)
    g = gen.normal(0, 1, (15, 50)).astype(np.float32)
    assert 14 // spikenet._TILES_PER_THREAD >= 3
    fake_blas(monkeypatch, 1)
    serial = _net_step(x, g, params, cfg, input_grad)

    if threads == "openblas":
        get, set_ = request.getfixturevalue("real_blas_at_2")
        monkeypatch.setattr(spikenet, "_openblas", lambda: (get, set_))
        n = 2
    else:
        get = fake_blas(monkeypatch, threads).get
        n = threads
    calls = _every_thread_works(monkeypatch)
    active = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so the threads interleave as often as they can
    try:
        threaded = _net_step(x, g, params, cfg, input_grad)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial, strict=True):
        assert got.tobytes() == want.tobytes()
    # every conv's forward, dx and dw pass, but the input conv's dx without
    # input_grad
    convs = 2 + 2 * cfg.depth
    assert len(calls) == 3 * convs - (0 if input_grad else 1)
    assert all(n_threads == n and len(slots) == n for n_threads, slots in calls)
    assert threading.active_count() == active
    assert get() == n


@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no_dx"])
def test_net_step_under_the_tile_floor_same_bits_at_1_and_2_blas_threads(
        real_blas_at_2, input_grad):
    # 16 sequences of 500 ticks, padded by 3: 8096 rows, one full tile and
    # a short one, under the floor, so each conv runs its tiles on the
    # caller and OpenBLAS may thread every GEMM; with dx, the input conv's
    # dx is a one-output-channel k=7 conv
    _, set_ = real_blas_at_2
    cfg = SpikeNetConfig()
    params = noisy_params(cfg, 5, dtype=np.float32)
    gen = np.random.default_rng(11)
    x = gen.normal(0, 0.8, (16, 500)).astype(np.float32)
    g = gen.normal(0, 1, (16, 500)).astype(np.float32)
    assert -(-16 * 506 // _TILE) < 2 * spikenet._TILES_PER_THREAD
    steps = []
    for threads in (1, 2):
        set_(threads)
        steps.append(_net_step(x, g, params, cfg, input_grad))
    for at_2, at_1 in zip(steps[1], steps[0], strict=True):
        assert at_2.tobytes() == at_1.tobytes()


def _wrap_tiles(monkeypatch, wrap):
    """Run each work item of spikenet._run_threads as wrap(work, slot, i)."""
    run = spikenet._run_threads
    monkeypatch.setattr(spikenet, "_run_threads", lambda n_threads, n_items, work:
                        run(n_threads, n_items, lambda slot, i: wrap(work, slot, i)))


def test_conv_error_in_a_helper_tile_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(spikenet, "_TILE", _THREAD_TILE)
    blas = fake_blas(monkeypatch, 2)
    helper_began = threading.Event()
    taken = []

    def helper_fails(work, slot, i):
        taken.append(i)
        if threading.current_thread() is threading.main_thread():
            helper_began.wait(30)  # so the helper takes a tile ...
            time.sleep(0.2)  # ... and has failed before this one ends
            return work(slot, i)
        helper_began.set()
        raise KeyError("helper tile")
    _wrap_tiles(monkeypatch, helper_fails)
    x = np.random.default_rng(2).normal(size=(15, 4, 50)).astype(np.float32)
    w = np.ones((4, 4, 3), np.float32)
    active = threading.active_count()
    with pytest.raises(KeyError, match="helper tile"):
        conv1d(x, w, np.zeros(4, np.float32))
    assert len(taken) <= 2  # of 14: no tile is taken after the failure
    assert threading.active_count() == active
    assert blas.n == 2 and blas.calls == [1, 2]


def test_conv_under_the_tile_floor_runs_on_the_caller(monkeypatch):
    # 7 sequences of 50 ticks, padded by 1: 364 rows, 6 tiles, fewer than
    # two threads' floor
    monkeypatch.setattr(spikenet, "_TILE", _THREAD_TILE)
    blas = fake_blas(monkeypatch, 2)
    ran_on = []

    def record(work, slot, i):
        ran_on.append(threading.get_ident())
        return work(slot, i)
    _wrap_tiles(monkeypatch, record)
    gen = np.random.default_rng(5)
    x = gen.normal(size=(7, 4, 50)).astype(np.float32)
    w = gen.normal(size=(4, 4, 3)).astype(np.float32)
    assert -(-7 * 52 // _THREAD_TILE) < 2 * spikenet._TILES_PER_THREAD
    y = conv1d(x, w, np.zeros(4, np.float32), relu=True)
    conv1d_backward(y, x, w, relu_input=True)
    conv1d_backward(y, x, w, input_grad=False)
    # the forward, the dx pass and two dw passes
    assert len(ran_on) == 4 * 6 and set(ran_on) == {threading.get_ident()}
    # the forward and dx keep OpenBLAS's threads; each dw pass runs its
    # GEMMs at one BLAS thread and restores the count
    assert blas.calls == [1, 2] * 2 and blas.n == 2


def test_conv_backward_folds_residual_and_relu_mask_into_dx(monkeypatch):
    # (dx + residual) * (x > 0), as backward applied them in whole-buffer
    # passes after each dx
    monkeypatch.setattr(spikenet, "_TILE", 5)
    gen = np.random.default_rng(6)
    x = conv1d(gen.normal(size=(3, 4, 11)).astype(np.float32),
               gen.normal(size=(4, 4, 3)).astype(np.float32),
               np.zeros(4, np.float32), relu=True)
    w = gen.normal(size=(5, 4, 3)).astype(np.float32)
    gy = gen.normal(size=(3, 5, 11)).astype(np.float32)
    res = gen.normal(size=(3, 4, 11)).astype(np.float32)
    dw, db, dx = conv1d_backward(gy, x, w)
    got = conv1d_backward(gy, x, w, residual=res, relu_input=True)
    assert np.array_equal(got[0], dw) and np.array_equal(got[1], db)
    assert got[2].tobytes() == ((dx + res) * (x > 0)).tobytes()
    assert (x == 0).any() and (x > 0).any()


@pytest.mark.parametrize("tile", [None, _SMALL_TILE], ids=["default", "small"])
def test_conv_backward_inplace_writes_dx_into_xs_buffer(monkeypatch, tile):
    _set_tile(monkeypatch, tile)
    gen = np.random.default_rng(16)
    x = conv1d(gen.normal(size=(3, 4, 11)).astype(np.float32),
               gen.normal(size=(4, 4, 3)).astype(np.float32),
               np.zeros(4, np.float32), relu=True)
    w = gen.normal(size=(5, 4, 3)).astype(np.float32)
    gy = gen.normal(size=(3, 5, 11)).astype(np.float32)
    res = gen.normal(size=(3, 4, 11)).astype(np.float32)
    want = conv1d_backward(gy, x, w, residual=res, relu_input=True)
    got = conv1d_backward(gy, x, w, residual=res, relu_input=True, inplace=True)
    assert np.shares_memory(got[2], x) and got[2].base is x.base
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
    assert x.tobytes() == want[2].tobytes()
    # dx's pad rows are zero, so the next conv reads it in place
    assert np.shares_memory(spikenet._padded(got[2], 1, exact=True)[0], x)


def test_conv_backward_inplace_rejects_another_dtype_or_a_shared_buffer():
    # checked before the dw pass, so a rejected call writes nothing
    gen = np.random.default_rng(17)
    x = conv1d(gen.normal(size=(3, 4, 11)).astype(np.float32),
               gen.normal(size=(4, 4, 3)).astype(np.float32),
               np.zeros(4, np.float32), relu=True)
    w = gen.normal(size=(4, 4, 3)).astype(np.float32)
    gy = gen.normal(size=(3, 4, 11)).astype(np.float32)
    keep = x.copy()
    for args, kw in [((gy, x, w.astype(np.float64)), {}),  # dx in float64
                     ((gy.astype(np.float64), x, w), {}),
                     ((x, x, w), {}),  # gy in x's buffer
                     ((gy, x, w), {"residual": x})]:
        with pytest.raises(ValueError, match="inplace"):
            conv1d_backward(*args, **kw, relu_input=True, inplace=True)
        assert x.tobytes() == keep.tobytes()
    # no dx, nothing written: inplace is moot
    conv1d_backward(x, x, w, input_grad=False, inplace=True)
    assert x.tobytes() == keep.tobytes()


def _out_of_place_backward(g, cache, p, cfg, input_grad):
    """backward()'s chain with each dx a new array: (param grads, input
    grad, each dx in the order of the activations it replaces, hs + rs)."""
    sg = surrogate_grad(cache.vprime, cfg.lif, cfg.surrogate)
    dlogits = spikenet._bptt(g * sg, cfg.lif.decay, cache.logits.dtype)
    dw_head, db_head, ds = conv1d_backward(dlogits[:, None, :], cache.hs[-1],
                                           p.w_head, relu_input=True)
    dhs, drs, blocks = [ds], [], []
    for i in range(len(p.blocks) - 1, -1, -1):
        blk = p.blocks[i]
        dw2, db2, dr = conv1d_backward(ds, cache.rs[i], blk.w2, relu_input=True)
        dw1, db1, ds = conv1d_backward(dr, cache.hs[i], blk.w1, residual=ds,
                                       relu_input=True)
        blocks.insert(0, BlockParams(dw1, db1, dw2, db2))
        dhs.insert(0, ds)
        drs.insert(0, dr)
    dw_in, db_in, dx = conv1d_backward(ds, cache.x[:, None, :], p.w_in,
                                       input_grad=input_grad)
    grads = SpikeNetParams(dw_in, db_in, blocks, dw_head, db_head)
    return grads, None if dx is None else dx[:, 0], dhs + drs


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no_dx"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_in_place_equals_the_out_of_place_chain(monkeypatch, dtype,
                                                          input_grad, threads):
    # 14 tiles of _THREAD_TILE rows, the last ragged, split on 2 threads
    monkeypatch.setattr(spikenet, "_TILE", _THREAD_TILE)
    fake_blas(monkeypatch, threads)
    cfg = SpikeNetConfig(channels=8, kernel=7, depth=2)
    params = noisy_params(cfg, 4, dtype=dtype)
    gen = np.random.default_rng(19)
    x = gen.normal(0, 0.8, (15, 50)).astype(dtype)
    g = gen.normal(0, 1, (15, 50)).astype(dtype)
    rows = 15 * (50 + 6)
    assert rows % _THREAD_TILE and rows // _THREAD_TILE >= 2 * spikenet._TILES_PER_THREAD
    _, ref = forward(x, params, cfg, mode="soft")
    want, want_dx, want_acts = _out_of_place_backward(g, ref, params, cfg, input_grad)
    _, cache = forward(x, params, cfg, mode="soft")
    grads, dx = backward(g, cache, params, cfg, input_grad=input_grad)
    for got, w in zip(grads.tensors(), want.tensors(), strict=True):
        assert got.dtype == dtype and got.tobytes() == w.tobytes()
    assert (dx is None) == (want_dx is None)
    if input_grad:
        assert dx.tobytes() == want_dx.tobytes()
    # each dx sits in the buffer of the activation that masked it
    for got, w in zip((*cache.hs, *cache.rs), want_acts, strict=True):
        assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("chunk", [0, -1, -256])
def test_infer_stream_rejects_a_chunk_under_1(monkeypatch, chunk):
    # checked before v0 and the output are made (spikenet.rng draws v0): a
    # negative chunk ran no chunk and handed out the uninitialised output
    cfg = small_cfg()
    params = init_params(cfg, 0)
    seq = LogDiffSeq(4, 4, 1000.0, np.zeros((20, 4, 4), np.float32))
    monkeypatch.setattr(spikenet, "rng", None)
    with pytest.raises(ConfigError, match="chunk"):
        infer_stream(seq, params, cfg, v0_mode="uniform", chunk=chunk)


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
                                         (3, 0.5), (0, 4.5), (1, 3.5), (2, 2.5)])
def test_checkpoint_bad_config_block_is_format_error(tmp_path, field, value):
    cfg = small_cfg()
    path = tmp_path / "model.evsn"
    save_checkpoint(path, init_params(cfg, 0), cfg)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<f", buf, 6 + 4 * field, value)  # after magic + version
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_sized_before_its_tensor_table_is_built(tmp_path):
    # a 30-byte header claiming 2**24 residual blocks: param_shapes would
    # list 2**26 shapes, but the body length is refused first
    path = tmp_path / "deep.evsn"
    path.write_bytes(struct.pack("<4sH6f", b"EVSN", 1, 32, 7, 2**24, 2.0, 1.0, 2.0))
    with pytest.raises(FormatError, match="tensor-table bytes"):
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

    seqs = {n: LogDiffSeq(n, n, 1000.0, rng.normal(0, 0.5, size=(128, n, n))
                          .astype(np.float32)) for n in (32, 64)}
    infer_stream(seqs[32], params, cfg)  # warm-up
    best = {n: np.inf for n in seqs}
    # interleaved, so a slow spell of a shared machine hits both sizes
    for _ in range(5):
        for n, seq in seqs.items():
            t0 = time.perf_counter()
            infer_stream(seq, params, cfg)
            best[n] = min(best[n], time.perf_counter() - t0)
    ratio = best[64] / best[32]
    assert 3.2 <= ratio <= 4.8
