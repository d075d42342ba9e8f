"""Per-pixel temporal convolutional denoiser with a bipolar spiking head.

Architecture, all along the time axis with zero padding (kernel-1)/2:

    h0 = relu(conv(x))                        1 -> C channels
    hi = relu(h_{i-1} + conv(relu(conv(h_{i-1}))))   i = 1..M residual blocks
    logits = conv_1x1(hM)                     C -> 1
    spikes = bipolar LIF fold over logits

Convolutions use the cross-correlation orientation: y[t] = sum_w W[w] *
x[t + w - pad].  Every activation and gradient of the stack lives in a
time-major buffer (B, T + 2p, C), each sequence zero-padded by p rows, so
the k taps of one output tick are k*C contiguous values.  The backward pass
is hand-rolled reverse mode; the spike nonlinearity differentiates through
the arctangent surrogate and the membrane recursion is unrolled with the
reset treated as constant (straight-through).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import formats, rng
from .core import F32_MAX, LogDiffSeq, SpikeTrain
from .errors import ConfigError, FormatError, RangeError, ShapeError
from .spiking import (LifParams, SurrogateConfig, bilif_fold, soft_bilif,
                      surrogate_grad)

_SALT_V0 = 31
_TILE = 4096  # output rows per conv tile
_TILES_PER_THREAD = 4  # a conv's tiles per thread, at least (_blas_threads)
_BLOCK = 128  # pixels per infer_blocks block
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
    """The (B, C, T) view of a (B, T + 2p, C) padded buffer."""
    return buf[:, p:buf.shape[1] - p].transpose(0, 2, 1)


def _padded(x: np.ndarray, pad: int, exact: bool = False):
    """(B*(T + 2P), C) zero-padded time-major buffer of x (B, C, T), and P.

    x's own buffer when x is the interior view of a C-contiguous
    (B, T + 2P, C) array with P >= pad (P == pad if exact) whose pad rows
    are all zero, else a copy with P = pad.  Checking the pad rows reads
    2P/(T + 2P) of the buffer; an array of that shape with anything but
    zeros there is not a padded buffer.
    """
    n_b, c, t = x.shape
    base = x.base
    if (isinstance(base, np.ndarray) and base.ndim == 3
            and base.flags.c_contiguous and base.dtype == x.dtype
            and base.shape[::2] == (n_b, c) and (base.shape[1] - t) % 2 == 0):
        p = (base.shape[1] - t) // 2
        inner = _interior(base, p)
        if ((p == pad if exact else p >= pad)
                and inner.ctypes.data == x.ctypes.data
                and all(n == 1 or s == r for n, s, r
                        in zip(x.shape, x.strides, inner.strides))
                and not base[:, :p].any() and not base[:, p + t:].any()):
            return base.reshape(-1, c), p
    buf = np.zeros((n_b, t + 2 * pad, c), x.dtype)
    _interior(buf, pad)[:] = x
    return buf.reshape(-1, c), pad


def _residues(xf: np.ndarray, off: int, k: int, rows: int, i: int):
    """(m, windows) for each residue m of tile i of the window starts
    0..rows-1 over xf: the tile's starts are a = i*_TILE .. a+n-1, with
    n = min(_TILE, rows - a).

    The window of start s is the k*Ci values of xf's flat buffer from row
    off + s on, tap-major.  Windows k rows apart lie end to end, so the
    windows of starts a+m, a+m+k, a+m+2k, ... (before a+n) are one
    (ceil((n-m)/k), k*Ci) matrix view of xf, with no copy.
    """
    a = i * _TILE
    n = min(_TILE, rows - a)
    ci = xf.shape[1]
    flat = xf.reshape(-1)
    for m in range(min(k, n)):
        start, n_m = (off + a + m) * ci, -(-(n - m) // k)
        yield m, flat[start:start + n_m * k * ci].reshape(n_m, k * ci)


def _correlate(xf: np.ndarray, p: int, w: np.ndarray, n_b: int, b=None, rf=None,
               relu: bool = False, mask=None, into=None) -> np.ndarray:
    """'Same' correlation of a _padded buffer (B*(T+2p), Ci) with (Co, Ci, k).

    Returns the (B, Co, T) interior view of a new buffer padded like xf, or
    of into, a buffer laid out like the output, which the result overwrites
    tile by tile.  Each tile of _TILE output rows is computed into its
    thread's (_TILE, Co) scratch, which gets the bias b and the residual rf
    (a buffer laid out like the output); the last step writes the output's
    row block: the ReLU, or the product with (mask > 0) for a buffer mask
    laid out like the output (never both), or a copy.  A tile reads only its
    own rows of rf and mask, so either may be into.

    The output at buffer row p + s is the window of start p - pad + s (see
    _residues) times the kernel as a (k*Ci, Co) matrix, so each of a tile's
    k residues is one GEMM (n_m, k*Ci) @ (k*Ci, Co) of a view of xf itself
    into the residue's rows of the scratch.  Each output is one dot product
    over its window in tap order, so its value does not depend on the batch,
    the window around it, its GEMM or the thread that computes it.  The k=1
    head's (n, Ci) @ (Ci, 1) would be a gemv summing a row's products in an
    order set by the row's place in the operand, so a logit would change with
    the batch and the tile split.  It runs as (1, Ci) @ (Ci, _TILE), where it
    does not, on the tile's one (n, Ci) _residues view transposed into its
    thread's (Ci, _TILE) columns, zero past n.  Rows whose window runs into the
    next sequence land on pad rows and are zeroed after the last tile.  The
    tiles run through _run_threads, each with its epilogue.
    """
    co, ci, k = w.shape
    rows = xf.shape[0] - 2 * p
    off = p - (k - 1) // 2
    wt = w.transpose(2, 1, 0).reshape(k * ci, co)  # tap-major, like a window
    n_tiles = -(-rows // _TILE)
    n_threads = _blas_threads(n_tiles, _TILES_PER_THREAD)
    if into is not None:
        y = into.reshape(n_b, -1, co)
    else:  # 3-D, as _padded recognises a buffer by its base's shape
        y = np.empty((n_b, xf.shape[0] // n_b, co), np.result_type(xf, w))
    yf = y.reshape(-1, co)
    # made on each thread's first tile: made up front, they slowed training
    scratch = [None] * n_threads
    cols = [None] * n_threads  # the head's transposed tiles, made alike

    def tile(slot, i):
        a = i * _TILE
        n = min(_TILE, rows - a)
        if scratch[slot] is None:
            scratch[slot] = np.empty((_TILE, co), y.dtype)
        s = scratch[slot]
        if co == 1 and k == 1:
            if cols[slot] is None:
                cols[slot] = np.empty((ci, _TILE), xf.dtype)
            c = cols[slot]
            (_, view), = _residues(xf, off, k, rows, i)
            c[:, :n] = view.T
            c[:, n:] = 0
            np.matmul(wt.T, c, out=s.reshape(1, _TILE))
        else:
            for m, windows in _residues(xf, off, k, rows, i):
                np.matmul(windows, wt, out=s[m:n:k])
        s = s[:n]
        if b is not None:
            s += b
        if rf is not None:
            s += rf[p + a:p + a + n]
        out = yf[p + a:p + a + n]
        if relu:
            np.maximum(s, 0, out=out)
        elif mask is not None:
            np.multiply(s, mask[p + a:p + a + n] > 0, out=out)
        else:
            out[:] = s

    _run_threads(n_threads, n_tiles, tile)
    y[:, :p] = 0
    y[:, y.shape[1] - p:] = 0
    return _interior(y, p)


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, *, residual=None,
           relu: bool = False, inplace: bool = False) -> np.ndarray:
    """Cross-correlate (B, Ci, T) with (Co, Ci, k) under 'same' zero padding,
    add b, then residual (B, Co, T) if given, then take the ReLU if relu.

    The result is the interior view of a zero-padded time-major buffer,
    which a following conv1d or conv1d_backward reads without a copy.  With
    inplace that buffer is residual's (or its padded copy's), whose values
    the result replaces; it must not share memory with x's buffer, whose
    rows later tiles still read.
    """
    xf, p = _padded(x, (w.shape[2] - 1) // 2)
    rf = None if residual is None else _padded(residual, p, exact=True)[0]
    if inplace and (rf is None or np.may_share_memory(rf, xf)):
        raise ValueError("inplace needs a residual whose buffer is not x's")
    return _correlate(xf, p, w, len(x), b, rf, relu, into=rf if inplace else None)


def conv1d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, *,
                    input_grad: bool = True, residual=None,
                    relu_input: bool = False, inplace: bool = False):
    """Gradients (dw, db, dx) of conv1d for upstream grad gy (B, Co, T);
    dx is None unless input_grad.  dx gets residual (B, Ci, T) added, and
    with relu_input, where x is a ReLU's output, is taken on through that
    ReLU: (dx + residual) * (x > 0), each tile while it is in cache.

    dx correlates gy with the kernel transposed and flipped in time (for odd
    k again 'same').  dw reads the windows dx reads: gy's window of start s
    (_residues over gy's buffer, k*Co values from row s - pad on) times x's
    row s gives every tap's product at once, and the window's tap j holds
    dw's tap k-1-j, as dw[o, :, k-1-j] = sum_s gy[o, s + pad - j] x[:, s].
    So each residue m of a tile is one GEMM (k*Co, n_m) @ (n_m, Ci) of a
    transposed view of gy's buffer and x's rows m, m+k, ... of the tile, a
    strided view of x's buffer; a short last tile has shorter residues and
    needs no copy.  The dw tiles run in a pass of their own, before db and
    dx, with BLAS at one thread (_one_blas_thread), also under the tile
    floor: OpenBLAS's threads split a GEMM's (n_m-deep) sums, which gave
    other bits on two threads than on one, and ran these GEMMs slower than
    one thread did.  Each tile's residue products are summed in residue
    order into its own slot, and the slots are folded left in tile order,
    whichever thread ran each tile (a sum over the slots' axis would pair
    them in an order numpy picks).

    With inplace, dx overwrites x's padded buffer (or its padded copy),
    which dw has read by then: a dx tile reads gy's windows, the residual's
    rows and the mask rows it overwrites, no other row of x.  It raises
    ValueError unless dx has x's dtype and gy and residual lie apart from
    x's buffer.
    """
    co, ci, k = w.shape
    if gy.shape != (len(x), co, x.shape[2]):
        raise ShapeError(f"gy shape {gy.shape} != {(len(x), co, x.shape[2])}")
    pad = (k - 1) // 2
    xf, p = _padded(x, pad)
    gf, _ = _padded(gy, p, exact=True)  # laid out like xf, row for row
    rf = (_padded(residual, p, exact=True)[0]
          if input_grad and residual is not None else None)
    if input_grad and inplace and (
            np.result_type(gf, w) != xf.dtype or np.may_share_memory(gf, xf)
            or (rf is not None and np.may_share_memory(rf, xf))):
        raise ValueError("inplace needs dx in x's dtype, and gy and residual "
                         "apart from x's buffer")
    rows = xf.shape[0] - 2 * p
    n_tiles = -(-rows // _TILE)
    dtype = np.result_type(gy, x)
    dw_tiles = np.empty((n_tiles, k * co, ci), dtype)  # [i, j*Co + o]: dw's tap k-1-j

    def dw_tile(_, i):  # gy's windows at each residue, x at their starts
        a = p + i * _TILE
        dw_tiles[i] = functools.reduce(np.add, (
            windows.T @ xf[a + m::k][:len(windows)]
            for m, windows in _residues(gf, p - pad, k, rows, i)))

    n_threads = _blas_threads(n_tiles, _TILES_PER_THREAD)  # before the pin reads 1
    with _one_blas_thread():
        _run_threads(n_threads, n_tiles, dw_tile)
    dw = functools.reduce(np.add, dw_tiles).reshape(k, co, ci)[::-1].transpose(1, 2, 0)
    db = gy.sum(axis=(0, 2))

    dx = None
    if input_grad:
        dx = _correlate(gf, p, w.transpose(1, 0, 2)[:, :, ::-1], len(gy), rf=rf,
                        mask=xf if relu_input else None,
                        into=xf if inplace else None)
    return np.ascontiguousarray(dw), db, dx


@dataclass
class ForwardCache:
    # Activations are interior views of zero-padded time-major buffers.
    # z0, z1s and s_pres are the ReLU outputs whose masks backward() applies
    # (z > 0 equals relu(z) > 0).  Each is the input of the conv whose dx it
    # masks, so they share hs and rs rather than copy, and backward() reads
    # them there.  backward() consumes the cache: each dx overwrites the
    # buffer of the activation that masked it, so after it hs, rs, z0, z1s
    # and s_pres hold gradients, while x, logits and vprime keep their values.
    x: np.ndarray          # (B, K)
    z0: np.ndarray         # mask source of the input conv: hs[0]
    hs: list[np.ndarray]   # h0..hM
    z1s: list[np.ndarray]  # per block, mask source of the inner conv: rs
    rs: list[np.ndarray]   # per block, relu(inner conv)
    s_pres: list[np.ndarray]  # per block, mask source of the residual sum: hs[1:]
    logits: np.ndarray     # (B, K)
    vprime: np.ndarray     # post-charge potentials (B, K)
    consumed: bool = False  # set by backward() before it writes the first dx


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


def _bptt(gs: np.ndarray, decay: float, dtype) -> np.ndarray:
    """The (B, K) logit gradients of the membrane recursion, C-contiguous in
    dtype, for gs (B, K), the spike grads times the surrogate: from the last
    tick back, d[:, t] = gs[:, t] + decay * d[:, t+1].  The loop runs on
    gs's time-major copy, one contiguous row per tick."""
    rows = np.ascontiguousarray(gs.T)
    d = np.empty(rows.shape, dtype)
    carry = np.zeros(rows.shape[1], dtype)
    for t in range(len(rows) - 1, -1, -1):
        gvp = rows[t] + carry
        d[t] = gvp
        carry = decay * gvp
    return np.ascontiguousarray(d.T)


def backward(grad_spikes, cache: ForwardCache, p: SpikeNetParams,
             cfg: SpikeNetConfig, *, input_grad: bool = False):
    """Reverse-mode gradients; returns (param grads, input grad), the input
    grad None unless input_grad.

    d(spike)/d(logit) at each tick uses the surrogate at the cached
    post-charge potential; the recurrent state path backpropagates the decay
    while the reset's spike is held constant.  Every gradient below the head
    lives in the cache: each dx overwrites the activation that masks it,
    once its conv's dw and db have read it, so a step allocates no gradient
    buffer of its own.  The cache is consumed (see ForwardCache), and a
    second call on it raises ValueError; a call rejected by the checks
    before the first write leaves the cache as it was.
    """
    g, squeeze = _as_batch(grad_spikes)
    if cache.consumed:
        raise ValueError("this cache's activations already hold an earlier "
                         "backward's gradients; run forward again")
    if g.shape != cache.logits.shape:
        raise ShapeError(f"grad shape {g.shape} != cached {cache.logits.shape}")
    if len(p.blocks) != len(cache.z1s) or p.w_in.shape[0] != cache.z0.shape[1]:
        raise ShapeError("params do not match the cached forward pass")
    dtype = cache.logits.dtype  # each dx's, as conv1d_backward(inplace) needs
    if (np.result_type(dtype, *p.tensors()) != dtype
            or any(a.dtype != dtype for a in (*cache.hs, *cache.rs))):
        raise ValueError("params or activations differ in dtype from the cached logits")

    # spike head: backprop through time over the membrane recursion
    sg = surrogate_grad(cache.vprime, cfg.lif, cfg.surrogate)
    dlogits = _bptt(g * sg, cfg.lif.decay, dtype)

    # each dx leaves its conv through the ReLU that made the conv's input,
    # so it is masked by that input, and written into its buffer; the inner
    # conv's dx also adds the residual skip's gradient ds first
    cache.consumed = True
    dw_head, db_head, ds = conv1d_backward(dlogits[:, None, :], cache.hs[-1],
                                           p.w_head, relu_input=True, inplace=True)

    grad_blocks = []
    for i in range(len(p.blocks) - 1, -1, -1):
        blk = p.blocks[i]
        dw2, db2, dr = conv1d_backward(ds, cache.rs[i], blk.w2, relu_input=True,
                                       inplace=True)
        dw1, db1, ds = conv1d_backward(dr, cache.hs[i], blk.w1, residual=ds,
                                       relu_input=True, inplace=True)
        grad_blocks.append(BlockParams(dw1, db1, dw2, db2))
    grad_blocks.reverse()

    dw_in, db_in, dx = conv1d_backward(ds, cache.x[:, None, :], p.w_in,
                                       input_grad=input_grad)
    grads = SpikeNetParams(dw_in, db_in, grad_blocks, dw_head, db_head)
    if dx is not None:
        dx = dx[0, 0] if squeeze else dx[:, 0]
    return grads, dx


def _infer_rows(xwin: np.ndarray, p: SpikeNetParams, cfg: SpikeNetConfig,
                skip: int, v: np.ndarray, out: np.ndarray) -> None:
    """One pixel block's time chunk: the conv stack on its window xwin
    (B, T), then the fold from membrane v (B,) of the logits at window ticks
    skip..skip+c-1, c = out.shape[1], whose spikes go into out (B, c) and
    whose final membrane into v."""
    logits = _conv_stack(xwin, p)
    out[:], _, v[:] = bilif_fold(logits[:, skip:skip + out.shape[1]], cfg.lif, v)


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


def _blas_threads(n_items: int, floor: int) -> int:
    """The thread count for n_items work items in _run_threads: OpenBLAS's
    thread count (1 without OpenBLAS), capped so that each thread gets at
    least floor items.

    Below its floor a helper thread measured slower or larger than the
    caller alone.  infer_blocks' pixel blocks take floor 2: on smaller clips a
    helper ran slower and its allocations raised the process's peak.  A
    conv's tiles take _TILES_PER_THREAD = 4, so on 2 threads a conv splits
    from 8 tiles.  On 2 vCPUs a one-step training run at 5 tiles per conv
    ran 20% slower and 5 MB larger split, and at 6 to 11 tiles no faster
    and 5-10 MB larger; in a training loop a 32->32 conv's forward and
    backward ran 10-25% faster split from 8 tiles up, and the desk training
    epoch (17 tiles per conv) 15% faster.
    """
    blas = _openblas()
    return max(1, min(blas[0]() if blas else 1, n_items // floor))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, and restore its count
    after; no set call when it already reads 1, or without OpenBLAS."""
    blas = _openblas()
    n = blas[0]() if blas else 1
    if n > 1:
        blas[1](1)
    try:
        yield
    finally:
        if n > 1:
            blas[1](n)


def _run_threads(n_threads: int, n_items: int, work) -> None:
    """Run work(slot, i) for each i in range(n_items) on n_threads threads:
    the caller as slot 0 and n_threads - 1 helpers, each taking the next
    item until none is left or one has failed.

    With helpers, BLAS runs at one thread while they run
    (_one_blas_thread), one per item; on the caller alone it keeps its own
    threads.  Each helper runs in a copy of the caller's context, so
    numpy's error state holds in it as in the caller.  The first error is
    raised in the caller with its own type, and no helper outlives the
    call, even when a signal's exception reaches the caller while it waits
    for them.  slot lets an item use its thread's own buffers.
    """
    if n_threads == 1:
        for i in range(n_items):
            work(0, i)
        return
    items = iter(range(n_items))  # shared by the threads, each item taken once
    taking, errors = threading.Lock(), []

    def run(slot):
        try:
            while not errors:
                with taking:
                    i = next(items, None)
                if i is None:
                    return
                work(slot, i)
        except BaseException as exc:
            errors.append(exc)

    helpers = []
    with _one_blas_thread():
        try:
            for slot in range(1, n_threads):
                helper = threading.Thread(target=contextvars.copy_context().run,
                                          args=(run, slot))
                helper.start()
                helpers.append(helper)
            run(0)
            for helper in helpers:
                helper.join()
        except BaseException as exc:  # a signal in the caller, even in join
            errors.append(exc)  # the helpers take no further item
            for helper in helpers:
                helper.join()
            raise
    if errors:
        raise errors[0]


def check_v0(v0_mode: str, seed: int) -> None:
    """Raise ConfigError unless infer_blocks takes v0_mode and seed."""
    if v0_mode not in ("zero", "uniform"):
        raise ConfigError("v0_mode must be 'zero' or 'uniform'")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")


def infer_blocks(xs, k: int, height: int, width: int, p: SpikeNetParams,
                 cfg: SpikeNetConfig, v0_mode: str = "zero", seed: int = 0,
                 chunk: int = 256):
    """Windowed streaming inference over xs, the float32 (m, H, W) blocks of
    a k-tick log-difference sequence in tick order; yields the int8
    (b - a, H, W) spikes of each time chunk [a, b), a view that the next
    chunk overwrites.

    Each chunk runs the full-forward stack on the window [a - halo,
    b + halo) clipped to [0, k), halo = receptive_field // 2.  'same'
    padding is exact at the sequence ends, and at an inner window edge its
    zeros reach only pad ticks further inward per conv, halo ticks in all,
    so the chunk's own logits equal the full forward's bit for bit.  Only
    the window's ticks of xs are held, H*W*(chunk + 2*halo) float32.

    A chunk's y-major blocks of _BLOCK pixels (a block may split a row) run
    through _run_threads, on OpenBLAS's thread count capped at two blocks
    per thread (_blas_threads), each pixel's membrane carried from chunk to
    chunk.  Inside them BLAS reads one thread, so each block's convs run
    their tiles on its own thread.  A pixel's spikes do not depend on its
    block or thread.  A network whose values overflow float32 on xs (finite
    weights can be that large) raises RangeError.
    """
    check_v0(v0_mode, seed)
    if not chunk >= 1:
        raise ConfigError("chunk must be >= 1")
    n_pix = height * width
    if v0_mode == "zero":
        v0 = np.zeros(n_pix)
    else:
        u = rng.unit_uniform(rng.fold(rng.pixel_key(seed, height, width), _SALT_V0))
        v0 = (2.0 * u.reshape(-1) - 1.0) * cfg.lif.v_th
    # the membrane starts as the window's float32 and folds in the logits'
    # dtype, which every chunk's logits share
    v = v0.astype(np.float32).astype(np.result_type(np.float32, *p.tensors()))
    n_blocks = -(-n_pix // _BLOCK)
    halo = receptive_field(cfg) // 2
    win = np.empty((min(k, chunk + 2 * halo), n_pix), np.float32)
    spikes = np.empty((n_pix, min(k, chunk)), np.int8)
    ticks = itertools.chain.from_iterable(xs)  # each tick an (H, W) view
    lo = hi = 0  # win[:hi - lo] holds ticks lo..hi-1
    for a in range(0, k, chunk):
        b = min(a + chunk, k)
        prev, lo = lo, max(a - halo, 0)
        win[:hi - lo] = win[lo - prev:hi - prev]
        for t in range(hi, min(b + halo, k)):
            win[t - lo] = next(ticks).reshape(-1)
        hi = min(b + halo, k)

        def block(_, i):
            rows = slice(i * _BLOCK, (i + 1) * _BLOCK)
            _infer_rows(win[:hi - lo, rows].T, p, cfg, a - lo, v[rows],
                        spikes[rows, :b - a])

        try:
            with np.errstate(over="raise", invalid="raise"):
                _run_threads(_blas_threads(n_blocks, 2), n_blocks, block)
        except FloatingPointError:
            raise RangeError("the network's values overflow float32 on this input") from None
        yield spikes[:, :b - a].T.reshape(b - a, height, width)


def infer_stream(x: LogDiffSeq, p: SpikeNetParams, cfg: SpikeNetConfig,
                 v0_mode: str = "zero", seed: int = 0,
                 chunk: int = 256) -> SpikeTrain:
    """infer_blocks over a whole LogDiffSeq, as one block.

    Output is bit-identical to running forward() on each pixel's full
    sequence; the membrane carries across chunks.
    """
    k, h, w = x.data.shape
    out = np.empty((k, h, w), np.int8)
    a = 0
    for spikes in infer_blocks([x.data], k, h, w, p, cfg, v0_mode, seed, chunk):
        out[a:a + len(spikes)] = spikes
        a += len(spikes)
    return SpikeTrain(x.width, x.height, x.fps, out)


# ---------------------------------------------------------------------------
# checkpoint format "EVSN"

_EVSN_MAGIC = b"EVSN"
_EVSN_HEADER = struct.Struct("<4sH6f")


def save_checkpoint(path, p: SpikeNetParams, cfg: SpikeNetConfig) -> None:
    """Write magic, version, config block, then tensors (f32, dims-prefixed)."""
    with formats._staged(path) as fh:
        fh.write(_EVSN_HEADER.pack(_EVSN_MAGIC, 1, cfg.channels, cfg.kernel, cfg.depth,
                                   cfg.lif.tau, cfg.lif.v_th, cfg.surrogate.alpha))
        for t in p.tensors():
            fh.write(np.array([t.ndim, *t.shape], "<u4"))
            fh.write(np.ascontiguousarray(t, "<f4"))


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
