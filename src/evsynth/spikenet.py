"""Per-pixel temporal convolutional denoiser with a bipolar spiking head.

Architecture, all along the time axis with zero padding (kernel-1)/2:

    h0 = relu(conv(x))                        1 -> C channels
    hi = relu(h_{i-1} + conv(relu(conv(h_{i-1}))))   i = 1..M residual blocks
    logits = conv_1x1(hM)                     C -> 1
    spikes = bipolar LIF fold over logits

Convolutions use the cross-correlation orientation: y[t] = sum_w W[w] *
x[t + w - pad].  The backward pass is hand-rolled reverse mode; the spike
nonlinearity differentiates through the arctangent surrogate and the membrane
recursion is unrolled with the reset treated as constant (straight-through).
"""

from __future__ import annotations

import functools
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import formats, rng
from .core import F32_MAX, LogDiffSeq, SpikeTrain
from .errors import ConfigError, FormatError, ShapeError
from .spiking import (LifParams, SurrogateConfig, bilif_fold, soft_bilif,
                      surrogate_grad)

_SALT_V0 = 31
_TILE = 4096  # output columns per conv GEMM
_BLOCK = 128  # pixels per infer_stream block
# OpenBLAS's thread-count functions, by the names its builds export
_OPENBLAS_NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


@dataclass(frozen=True)
class SpikeNetConfig:
    channels: int = 32
    kernel: int = 7
    depth: int = 3
    lif: LifParams = field(default_factory=LifParams)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("kernel must be odd and >= 1")
        if not (1 <= self.depth <= 2**24 and 1 <= self.channels <= 2**24
                and self.kernel <= 2**24):
            raise ConfigError("channels, kernel and depth must lie in "
                              "[1, 2**24] (EVSN stores them as float32)")
        if not max(self.lif.tau, self.lif.v_th, self.surrogate.alpha) <= F32_MAX:
            raise ConfigError("tau, v_th and alpha must fit EVSN's float32")


def receptive_field(cfg: SpikeNetConfig) -> int:
    """Width of the input window influencing one output tick."""
    return 1 + (cfg.kernel - 1) * (2 * cfg.depth + 1)


@dataclass
class BlockParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class SpikeNetParams:
    w_in: np.ndarray   # (C, 1, k)
    b_in: np.ndarray   # (C,)
    blocks: list[BlockParams]
    w_head: np.ndarray  # (1, C, 1)
    b_head: np.ndarray  # (1,)

    def tensors(self) -> list[np.ndarray]:
        out = [self.w_in, self.b_in]
        for blk in self.blocks:
            out += [blk.w1, blk.b1, blk.w2, blk.b2]
        out += [self.w_head, self.b_head]
        return out

    @classmethod
    def from_tensors(cls, tensors: list[np.ndarray]) -> "SpikeNetParams":
        blocks = [BlockParams(*tensors[2 + 4 * i: 6 + 4 * i])
                  for i in range((len(tensors) - 4) // 4)]
        return cls(tensors[0], tensors[1], blocks, tensors[-2], tensors[-1])


def param_shapes(cfg: SpikeNetConfig) -> list[tuple[int, ...]]:
    c, k = cfg.channels, cfg.kernel
    shapes: list[tuple[int, ...]] = [(c, 1, k), (c,)]
    for _ in range(cfg.depth):
        shapes += [(c, c, k), (c,), (c, c, k), (c,)]
    shapes += [(1, c, 1), (1,)]
    return shapes


def init_params(cfg: SpikeNetConfig, seed: int = 0,
                dtype=np.float32) -> SpikeNetParams:
    """He-uniform weights (variance 2/fan_in), zero biases; deterministic."""
    gen = np.random.Generator(np.random.PCG64(seed))
    tensors = []
    for shape in param_shapes(cfg):
        if len(shape) == 3:
            fan_in = shape[1] * shape[2]
            bound = np.sqrt(6.0 / fan_in)
            tensors.append(gen.uniform(-bound, bound, shape).astype(dtype))
        else:
            tensors.append(np.zeros(shape, dtype=dtype))
    return SpikeNetParams.from_tensors(tensors)


def _interior(buf: np.ndarray, p: int) -> np.ndarray:
    """The (B, C, T) view of a (C, B, T + 2p) padded buffer."""
    return buf[:, :, p:buf.shape[2] - p].transpose(1, 0, 2)


def _padded(x: np.ndarray, pad: int, exact: bool = False):
    """(C, B*(T + 2P)) zero-padded channel-major buffer of x (B, C, T), and P.

    x's own buffer when x is the interior view of a C-contiguous
    (C, B, T + 2P) array with P >= pad (P == pad if exact) whose pad columns
    are all zero, else a copy with P = pad.  Checking the pad columns reads
    2P/(T + 2P) of the buffer; an array of that shape with anything but
    zeros there is not a padded buffer.
    """
    n_b, c, t = x.shape
    base = x.base
    if (isinstance(base, np.ndarray) and base.ndim == 3
            and base.flags.c_contiguous and base.dtype == x.dtype
            and base.shape[:2] == (c, n_b) and (base.shape[2] - t) % 2 == 0):
        p = (base.shape[2] - t) // 2
        inner = _interior(base, p)
        if ((p == pad if exact else p >= pad)
                and inner.ctypes.data == x.ctypes.data
                and all(n == 1 or s == r for n, s, r
                        in zip(x.shape, x.strides, inner.strides))
                and not base[:, :, :p].any() and not base[:, :, p + t:].any()):
            return base.reshape(c, -1), p
    buf = np.zeros((c, n_b, t + 2 * pad), x.dtype)
    _interior(buf, pad)[:] = x
    return buf.reshape(c, -1), pad


def _unfold_tiles(xf: np.ndarray, off: int, k: int, cols: int):
    """Iterator of (a, n, u) per tile of _TILE window starts a..a+n-1 over xf.

    Row block j of u (k*Ci, _TILE) holds xf[:, off+a+j : off+a+j+n], and its
    columns past n are zero.  A full tile of a k=1 conv is xf's own columns,
    with no copy; every other tile is copied into one buffer, allocated by
    this call.
    """
    u = np.empty((k, xf.shape[0], _TILE), xf.dtype)
    u2 = u.reshape(-1, _TILE)

    def tiles():
        for a in range(0, cols, _TILE):
            n = min(_TILE, cols - a)
            if k == 1 and n == _TILE:
                yield a, n, xf[:, off + a:off + a + n]
                continue
            for j in range(k):
                u[j, :, :n] = xf[:, off + a + j:off + a + j + n]
            u[:, :, n:] = 0
            yield a, n, u2
    return tiles()


def _correlate(xf: np.ndarray, p: int, w: np.ndarray, n_b: int, b=None,
               rf=None, relu: bool = False, on_tile=None,
               into_rf: bool = False) -> np.ndarray:
    """'Same' correlation of a _padded buffer (Ci, B*(T+2p)) with (Co, Ci, k).

    Returns the (B, Co, T) interior view of a new buffer padded like xf, or
    with into_rf of rf's own buffer, which the result overwrites tile by
    tile.  Each tile's outputs get, in this order, the bias b, the residual
    rf (a buffer laid out like the output) and the ReLU while they are in
    cache.

    Every GEMM has the one shape (Co, k*Ci) @ (k*Ci, _TILE), so BLAS picks
    the same kernel for every column and a column's value does not depend on
    the batch or the window around it.  Window start p - pad + s gives the
    output at buffer column p + s; columns whose window runs into the next
    sequence land on pad columns and are zeroed after the last tile.
    on_tile(u), when given, sees each tile's full-width unfold.
    """
    co, ci, k = w.shape
    width = xf.shape[1]
    cols = width - 2 * p
    w2 = w.transpose(0, 2, 1).reshape(co, k * ci)  # tap-major, like u's rows
    # The unfold buffer comes first: freed below y, its pages serve the next
    # conv's unfold instead of being faulted in again, as glibc returns a
    # free top of the heap to the OS.  That halved a training step's faults.
    tiles = _unfold_tiles(xf, p - (k - 1) // 2, k, cols)
    if into_rf:
        y = rf.reshape(co, n_b, -1)
    else:  # 3-D, as _padded recognises a buffer by its base's shape
        y = np.empty((co, n_b, width // n_b), np.result_type(xf, w))
    yf = y.reshape(co, width)
    scratch = None
    for a, n, u in tiles:
        # A tile that is short, or whose outputs overwrite its residual, runs
        # its GEMM into scratch, so every GEMM keeps its shape and y keeps
        # the input's width: rounded up to whole tiles, its row stride could
        # be a power of two, and cache-set conflicts then slowed the passes
        # over it about 2x.
        out = yf[:, p + a:p + a + n]
        direct = n == _TILE and not into_rf
        if not direct and scratch is None:
            scratch = np.empty((co, _TILE), y.dtype)
        y_tile = out if direct else scratch
        np.matmul(w2, u, out=y_tile)
        y_tile = y_tile[:, :n]
        if b is not None:
            y_tile += b[:, None]
        if rf is not None:
            np.add(y_tile, rf[:, p + a:p + a + n], out=out)
        elif not direct:
            out[:] = y_tile
        if relu:
            np.maximum(out, 0, out=out)
        if on_tile is not None:
            on_tile(u)
    y[:, :, :p] = 0
    y[:, :, y.shape[2] - p:] = 0
    return _interior(y, p)


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, *, residual=None,
           relu: bool = False, inplace: bool = False) -> np.ndarray:
    """Cross-correlate (B, Ci, T) with (Co, Ci, k) under 'same' zero padding,
    add b, then residual (B, Co, T) if given, then take the ReLU if relu.

    The result is the interior view of a zero-padded channel-major buffer,
    which a following conv1d or conv1d_backward reads without a copy.  With
    inplace that buffer is residual's (or its padded copy's), whose values
    the result replaces.
    """
    xf, p = _padded(x, (w.shape[2] - 1) // 2)
    rf = None if residual is None else _padded(residual, p, exact=True)[0]
    return _correlate(xf, p, w, len(x), b, rf, relu, into_rf=inplace)


def conv1d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, *,
                    input_grad: bool = True):
    """Gradients (dw, db, dx) of conv1d for upstream grad gy (B, Co, T);
    dx is None unless input_grad.

    dx correlates gy with the kernel transposed and flipped in time (for odd
    k again 'same').  That unfolds gy: row (k-1-j, o) of a tile holds
    gy[o, s + pad - j] at column s, so the same unfold times x's columns
    gives dw[o, :, j] = sum_s gy[o, s + pad - j] x[:, s], tile by tile.
    Without dx, dw instead comes from gy's columns times an unfold of x,
    which has k*Ci rows rather than k*Co.  Those columns of x or gy are
    _unfold_tiles' k=1 tiles, at full _TILE width, so every dw GEMM has one
    shape, as every _correlate GEMM does, and its bits do not depend on the
    BLAS threads.
    """
    co, ci, k = w.shape
    pad = (k - 1) // 2
    xf, p = _padded(x, pad)
    gf, _ = _padded(gy, p, exact=True)  # laid out like xf, column for column
    cols = xf.shape[1] - 2 * p
    dtype = np.result_type(gy, x)
    if input_grad:
        x_tiles = _unfold_tiles(xf, p, 1, cols)  # x at each dx column
        dw_rows = np.zeros((k * co, ci), dtype)  # row (k-1-j, o)

        def add_dw(u):
            dw_rows[:] += u @ next(x_tiles)[2].T

        dx = _correlate(gf, p, w.transpose(1, 0, 2)[:, :, ::-1], len(gy),
                        on_tile=add_dw)
        dw = dw_rows.reshape(k, co, ci)[::-1].transpose(1, 2, 0)
    else:
        dw_rows = np.zeros((co, k * ci), dtype)  # column (j, i)
        for (_, _, g), (_, _, u) in zip(_unfold_tiles(gf, p, 1, cols),
                                        _unfold_tiles(xf, p - pad, k, cols)):
            dw_rows += g @ u.T
        dw, dx = dw_rows.reshape(co, k, ci).transpose(0, 2, 1), None
    return np.ascontiguousarray(dw), gy.sum(axis=(0, 2)), dx


@dataclass
class ForwardCache:
    # Activations are interior views of zero-padded channel-major buffers.
    # z0, z1s and s_pres are the ReLU outputs backward() takes its masks from
    # (z > 0 equals relu(z) > 0), so they share hs and rs rather than copy.
    x: np.ndarray          # (B, K)
    z0: np.ndarray         # mask source of the input conv: hs[0]
    hs: list[np.ndarray]   # h0..hM
    z1s: list[np.ndarray]  # per block, mask source of the inner conv: rs
    rs: list[np.ndarray]   # per block, relu(inner conv)
    s_pres: list[np.ndarray]  # per block, mask source of the residual sum: hs[1:]
    logits: np.ndarray     # (B, K)
    vprime: np.ndarray     # post-charge potentials (B, K)


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ShapeError(f"expected (K,) or (B, K) input, got shape {x.shape}")
    return x, False


def _conv_stack(x2d: np.ndarray, p: SpikeNetParams,
                acts: dict[str, list[np.ndarray]] | None = None) -> np.ndarray:
    """Logits (B, T) of the conv stack on input (B, T), 'same' padding.

    With acts, a dict with lists "hs" and "rs", the activations backward()
    needs are appended to it.  Without it each residual sum overwrites h's
    buffer, so only h and r are alive, and r is gone before the next block
    makes its own.
    """
    h = conv1d(x2d[:, None, :], p.w_in, p.b_in, relu=True)
    if acts is not None:
        acts["hs"].append(h)
    for blk in p.blocks:
        r = conv1d(h, blk.w1, blk.b1, relu=True)
        h = conv1d(r, blk.w2, blk.b2, residual=h, relu=True, inplace=acts is None)
        if acts is not None:
            acts["rs"].append(r)
            acts["hs"].append(h)
        del r
    return conv1d(h, p.w_head, p.b_head)[:, 0, :]


def forward(x, p: SpikeNetParams, cfg: SpikeNetConfig, mode: str = "hard"):
    """Run the network from a membrane at 0; returns (spikes, cache).

    mode="hard" emits {-1,0,+1} spikes, mode="soft" emits the smooth
    relaxation used for the training loss.  Membrane dynamics (including
    resets) are identical in both modes.
    """
    if mode not in ("hard", "soft"):
        raise ConfigError("mode must be 'hard' or 'soft'")
    x2d, squeeze = _as_batch(x)
    if x2d.shape[1] < 1:
        raise ShapeError("input must have at least one timestep")

    acts = {"hs": [], "rs": []}
    logits = _conv_stack(x2d, p, acts)

    spikes, vprime, _ = bilif_fold(logits, cfg.lif, 0.0)
    out = spikes if mode == "hard" else soft_bilif(vprime, cfg.lif, cfg.surrogate)
    hs, rs = acts["hs"], acts["rs"]
    cache = ForwardCache(x2d, hs[0], hs, rs, rs, hs[1:], logits, vprime)
    return (out[0] if squeeze else out), cache


def _masked(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """g * (a > 0) in place, on the padded buffers behind two interior views
    of one layout; g's pad columns stay zero."""
    np.multiply(g.base, a.base > 0, out=g.base)
    return g


def backward(grad_spikes, cache: ForwardCache, p: SpikeNetParams,
             cfg: SpikeNetConfig, *, input_grad: bool = False):
    """Reverse-mode gradients; returns (param grads, input grad), the input
    grad None unless input_grad.

    d(spike)/d(logit) at each tick uses the surrogate at the cached
    post-charge potential; the recurrent state path backpropagates the decay
    while the reset's spike is held constant.  Every gradient below the head
    lives in a padded buffer laid out like the activations.
    """
    g, squeeze = _as_batch(grad_spikes)
    if g.shape != cache.logits.shape:
        raise ShapeError(f"grad shape {g.shape} != cached {cache.logits.shape}")
    if len(p.blocks) != len(cache.z1s) or p.w_in.shape[0] != cache.z0.shape[1]:
        raise ShapeError("params do not match the cached forward pass")

    # spike head: backprop through time over the membrane recursion
    sg = surrogate_grad(cache.vprime, cfg.lif, cfg.surrogate)
    decay = cfg.lif.decay
    dlogits = np.empty_like(cache.logits)
    carry = np.zeros(g.shape[0], dtype=cache.logits.dtype)
    for t in range(g.shape[1] - 1, -1, -1):
        gvp = g[:, t] * sg[:, t] + carry
        dlogits[:, t] = gvp
        carry = decay * gvp

    dw_head, db_head, dh = conv1d_backward(dlogits[:, None, :], cache.hs[-1], p.w_head)

    grad_blocks = []
    for i in range(len(p.blocks) - 1, -1, -1):
        blk = p.blocks[i]
        ds = _masked(dh, cache.s_pres[i])
        dw2, db2, dr = conv1d_backward(ds, cache.rs[i], blk.w2)
        dw1, db1, dh = conv1d_backward(_masked(dr, cache.z1s[i]), cache.hs[i],
                                       blk.w1)
        np.add(dh.base, ds.base, out=dh.base)  # residual skip + conv path
        grad_blocks.append(BlockParams(dw1, db1, dw2, db2))
    grad_blocks.reverse()

    dw_in, db_in, dx = conv1d_backward(_masked(dh, cache.z0), cache.x[:, None, :],
                                       p.w_in, input_grad=input_grad)
    grads = SpikeNetParams(dw_in, db_in, grad_blocks, dw_head, db_head)
    if dx is not None:
        dx = dx[0, 0] if squeeze else dx[:, 0]
    return grads, dx


def _infer_rows(xpix: np.ndarray, p: SpikeNetParams, cfg: SpikeNetConfig,
                v0: np.ndarray, chunk: int, out: np.ndarray) -> None:
    """Stream pixel block xpix (B, K) through the network in time chunks.

    Each chunk [a, b) runs the full-forward stack on the window
    [a - halo, b + halo) clipped to [0, K).  'same' padding is exact at the
    sequence ends, and at an inner window edge its zeros reach only pad ticks
    further inward per conv, halo ticks in all, so the chunk's own logits
    equal the full forward's bit for bit.  The membrane carries across chunks.
    """
    k_total = xpix.shape[1]
    halo = receptive_field(cfg) // 2
    v = v0.astype(xpix.dtype)
    for a in range(0, k_total, chunk):
        b = min(a + chunk, k_total)
        lo = max(a - halo, 0)
        logits = _conv_stack(xpix[:, lo:min(b + halo, k_total)], p)
        spikes, _, v = bilif_fold(logits[:, a - lo:b - lo], cfg.lif, v)
        out[:, a:b] = spikes


@functools.cache
def _openblas():
    """(get, set) of OpenBLAS's thread count, found once in numpy's own
    extension module (dlsym also searches its dependencies), or None."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in _OPENBLAS_NAMES:
        try:
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def infer_stream(x: LogDiffSeq, p: SpikeNetParams, cfg: SpikeNetConfig,
                 v0_mode: str = "zero", seed: int = 0,
                 chunk: int = 256) -> SpikeTrain:
    """Windowed streaming inference over a LogDiffSeq.

    Output is bit-identical to running forward() on each pixel's full
    sequence, whichever y-major block of _BLOCK pixels it runs in (a block
    may split a row) and whichever thread runs it; memory per pixel stays
    O(chunk + receptive field).  The membrane carries across chunks.

    The blocks run on T threads, the caller and T - 1 helpers, each taking
    the next block until none is left.  T is OpenBLAS's thread count, capped
    so that each thread gets at least two blocks: on smaller clips a helper
    measured slower and larger than the caller alone.  While the blocks
    run, BLAS is set to one thread, one per block, and its count is
    restored afterwards.
    """
    from concurrent.futures import ThreadPoolExecutor

    if v0_mode not in ("zero", "uniform"):
        raise ConfigError("v0_mode must be 'zero' or 'uniform'")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")
    k, h, w = x.data.shape
    pix = x.data.reshape(k, h * w).T  # (H*W, K), a view: _padded copies each block
    if v0_mode == "zero":
        v0 = np.zeros(h * w)
    else:
        u = rng.unit_uniform(rng.fold(rng.pixel_key(seed, h, w), _SALT_V0)).reshape(-1)
        v0 = (2.0 * u - 1.0) * cfg.lif.v_th

    out = np.empty((h * w, k), dtype=np.int8)
    starts = range(0, h * w, _BLOCK)
    blocks = iter(starts)  # shared by the threads, each block taken once
    taking, failed = threading.Lock(), threading.Event()

    def run_blocks():
        try:
            while not failed.is_set():
                with taking:
                    a = next(blocks, None)
                if a is None:
                    return
                b = a + _BLOCK
                _infer_rows(pix[a:b], p, cfg, v0[a:b], chunk, out[a:b])
        except BaseException:
            failed.set()
            raise

    blas = _openblas()
    blas_threads = blas[0]() if blas else 1
    n_threads = max(1, min(blas_threads, len(starts) // 2))
    try:
        if n_threads > 1:
            blas[1](1)
        with ThreadPoolExecutor(max(1, n_threads - 1)) as pool:
            helpers = [pool.submit(run_blocks) for _ in range(n_threads - 1)]
            run_blocks()
        for f in helpers:
            f.result()
    finally:
        if n_threads > 1:
            blas[1](blas_threads)
    return SpikeTrain(x.width, x.height, x.fps, out.reshape(h, w, k).transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# checkpoint format "EVSN"

_EVSN_MAGIC = b"EVSN"
_EVSN_HEADER = struct.Struct("<4sH6f")


def save_checkpoint(path, p: SpikeNetParams, cfg: SpikeNetConfig) -> None:
    """Write magic, version, config block, then tensors (f32, dims-prefixed)."""
    header = _EVSN_HEADER.pack(_EVSN_MAGIC, 1, cfg.channels, cfg.kernel, cfg.depth,
                               cfg.lif.tau, cfg.lif.v_th, cfg.surrogate.alpha)
    bodies = []  # each tensor's u32 rank and dims, then its f32 data
    for t in p.tensors():
        bodies += [np.array([t.ndim, *t.shape], "<u4"), np.asarray(t, "<f4")]
    formats._write_container(path, header, *bodies)


def load_checkpoint(path) -> tuple[SpikeNetParams, SpikeNetConfig]:
    with formats._read_container(path, _EVSN_HEADER, _EVSN_MAGIC) as (
            (c, k, m, tau, v_th, alpha), size, read):
        try:
            if not all(v.is_integer() for v in (c, k, m)):  # false for nan and inf
                raise ValueError("channels, kernel and depth must be whole numbers")
            c, k, m = int(c), int(k), int(m)
            cfg = SpikeNetConfig(c, k, m, LifParams(tau, v_th), SurrogateConfig(alpha))
        except ValueError as exc:  # ConfigError too
            raise FormatError(f"{path}: bad config block: {exc}") from None
        # each tensor is u32 rank, u32 dims, f32 data: the table's size in
        # closed form, checked before param_shapes and before any body byte
        # is read, so a false header or an over-long body allocates nothing
        expect = 52 + 4 * c * k + 8 * c + m * (48 + 8 * c * c * k + 8 * c)
        if size != expect:
            raise FormatError(f"{path}: expected {expect} tensor-table bytes, got {size}")
        body = read(bytearray(size))
    off, tensors = 0, []
    for i, shape in enumerate(param_shapes(cfg)):
        prefix = struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)
        if body[off:off + len(prefix)] != prefix:
            raise FormatError(f"{path}: tensor {i} rank or dims differ from {shape}")
        t = np.frombuffer(body, "<f4", int(np.prod(shape)), off + len(prefix))
        if not np.isfinite(t).all():
            raise FormatError(f"{path}: non-finite weights in tensor {i}")
        tensors.append(t.reshape(shape).copy())
        off += len(prefix) + t.nbytes
    return SpikeNetParams.from_tensors(tensors), cfg
