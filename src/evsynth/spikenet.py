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

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .core import LogDiffSeq, SpikeTrain
from .errors import ConfigError, FormatError, ShapeError
from .spiking import (LifParams, SurrogateConfig, bilif_fold, soft_bilif,
                      surrogate_grad)

_SALT_V0 = 31


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
        if self.depth < 1 or self.channels < 1:
            raise ConfigError("depth and channels must be >= 1")


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

    def astype(self, dtype) -> "SpikeNetParams":
        return SpikeNetParams.from_tensors([t.astype(dtype) for t in self.tensors()])


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


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(B, C, T) zero-padded by pad per side -> (B*T_out, C*k) patch matrix,
    T_out = T + 2*pad - k + 1.  The padded copy dies inside, so a caller that
    consumes the patches at once never holds both."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    win = sliding_window_view(x, k, axis=2)             # (B, C, T_out, k)
    b, c, t_out, _ = win.shape
    return win.transpose(0, 2, 1, 3).reshape(b * t_out, c * k)


def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlate (B, Ci, T) with (Co, Ci, k) under 'same' zero padding."""
    k = w.shape[2]
    y = _im2col(x, k, (k - 1) // 2) @ w.reshape(w.shape[0], -1).T  # (B*T, Co)
    return y.reshape(x.shape[0], x.shape[2], -1).transpose(0, 2, 1) + b[None, :, None]


def conv1d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients (dw, db, dx) of conv1d for upstream grad gy (B, Co, T)."""
    k = w.shape[2]
    pad = (k - 1) // 2
    n_b, c_out, t = gy.shape
    gmat = gy.transpose(1, 0, 2).reshape(c_out, n_b * t)
    dw = (gmat @ _im2col(x, k, pad)).reshape(w.shape)
    db = gy.sum(axis=(0, 2))
    # dx is the 'full' correlation of gy with the kernel flipped in time
    wf = w[:, :, ::-1].transpose(0, 2, 1).reshape(c_out * k, -1)  # (Co*k, Ci)
    dxp = (_im2col(gy, k, k - 1) @ wf).reshape(n_b, t + 2 * pad, -1).transpose(0, 2, 1)
    return dw, db, dxp[:, :, pad:pad + t]


@dataclass
class ForwardCache:
    x: np.ndarray          # (B, K)
    z0: np.ndarray         # pre-relu of the input conv
    hs: list[np.ndarray]   # h0..hM
    z1s: list[np.ndarray]  # per block, pre-relu of the inner conv
    rs: list[np.ndarray]   # per block, relu(z1)
    s_pres: list[np.ndarray]  # per block, pre-relu of the residual sum
    logits: np.ndarray     # (B, K)
    vprime: np.ndarray     # post-charge potentials (B, K)
    spikes: np.ndarray     # hard spikes (B, K) int8
    v0: np.ndarray


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim != 2:
        raise ShapeError(f"expected (K,) or (B, K) input, got shape {x.shape}")
    return x, False


def _relu(z: np.ndarray, keep: bool) -> np.ndarray:
    """max(z, 0); in place unless z is kept for the backward pass."""
    return np.maximum(z, 0) if keep else np.maximum(z, 0, out=z)


def _conv_stack(x2d: np.ndarray, p: SpikeNetParams,
                acts: dict[str, list[np.ndarray]] | None = None) -> np.ndarray:
    """Logits (B, T) of the conv stack on input (B, T), 'same' padding.

    With acts, a dict of lists keyed like ForwardCache's fields, the
    activations backward() needs are appended to it.  Without it the ReLUs
    run in place, so only h, r and the current conv output stay alive.
    """
    keep = acts is not None
    z = conv1d(x2d[:, None, :], p.w_in, p.b_in)
    h = _relu(z, keep)
    if keep:
        acts["z0"].append(z)
        acts["hs"].append(h)
    for blk in p.blocks:
        z = conv1d(h, blk.w1, blk.b1)
        r = _relu(z, keep)
        if keep:
            acts["z1s"].append(z)
            acts["rs"].append(r)
        z = conv1d(r, blk.w2, blk.b2)
        z += h  # residual skip
        h = _relu(z, keep)
        if keep:
            acts["s_pres"].append(z)
            acts["hs"].append(h)
    return conv1d(h, p.w_head, p.b_head)[:, 0, :]


def forward(x, p: SpikeNetParams, cfg: SpikeNetConfig, v0=0.0,
            mode: str = "hard"):
    """Run the network; returns (spikes, cache).

    mode="hard" emits {-1,0,+1} spikes, mode="soft" emits the smooth
    relaxation used for the training loss.  Membrane dynamics (including
    resets) are identical in both modes.
    """
    if mode not in ("hard", "soft"):
        raise ConfigError("mode must be 'hard' or 'soft'")
    x2d, squeeze = _as_batch(x)
    if x2d.shape[1] < 1:
        raise ShapeError("input must have at least one timestep")

    acts = {"z0": [], "hs": [], "z1s": [], "rs": [], "s_pres": []}
    logits = _conv_stack(x2d, p, acts)

    v0_arr = np.broadcast_to(np.asarray(v0, logits.dtype), (x2d.shape[0],)).copy()
    spikes, vprime, _ = bilif_fold(logits, cfg.lif, v0_arr)
    out = spikes if mode == "hard" else soft_bilif(vprime, cfg.lif, cfg.surrogate)
    cache = ForwardCache(x2d, acts["z0"][0], acts["hs"], acts["z1s"], acts["rs"],
                         acts["s_pres"], logits, vprime, spikes, v0_arr)
    return (out[0] if squeeze else out), cache


def backward(grad_spikes, cache: ForwardCache, p: SpikeNetParams,
             cfg: SpikeNetConfig):
    """Reverse-mode gradients; returns (param grads, input grad).

    d(spike)/d(logit) at each tick uses the surrogate at the cached
    post-charge potential; the recurrent state path backpropagates the decay
    while the reset's spike is held constant.
    """
    g, squeeze = _as_batch(grad_spikes)
    if g.shape != cache.logits.shape:
        raise ShapeError(f"grad shape {g.shape} != cached {cache.logits.shape}")
    if len(p.blocks) != len(cache.z1s) or p.w_in.shape[0] != cache.z0.shape[1]:
        raise ShapeError("params do not match the cached forward pass")

    # spike head: backprop through time over the membrane recursion
    sg = surrogate_grad(cache.vprime, cfg.lif, cfg.surrogate)
    decay = cfg.lif.decay
    k = g.shape[1]
    dlogits = np.empty_like(cache.logits)
    carry = np.zeros(g.shape[0], dtype=cache.logits.dtype)
    for t in range(k - 1, -1, -1):
        gvp = g[:, t] * sg[:, t] + carry
        dlogits[:, t] = gvp
        carry = decay * gvp

    dw_head, db_head, dh = conv1d_backward(dlogits[:, None, :], cache.hs[-1], p.w_head)

    grad_blocks = []
    for i in range(len(p.blocks) - 1, -1, -1):
        blk = p.blocks[i]
        ds = dh * (cache.s_pres[i] > 0)
        dw2, db2, dr = conv1d_backward(ds, cache.rs[i], blk.w2)
        dz1 = dr * (cache.z1s[i] > 0)
        dw1, db1, dh_conv = conv1d_backward(dz1, cache.hs[i], blk.w1)
        dh = ds + dh_conv  # residual skip + conv path
        grad_blocks.append(BlockParams(dw1, db1, dw2, db2))
    grad_blocks.reverse()

    dz0 = dh * (cache.z0 > 0)
    dw_in, db_in, dx = conv1d_backward(dz0, cache.x[:, None, :], p.w_in)
    grads = SpikeNetParams(dw_in, db_in, grad_blocks, dw_head, db_head)
    dx2d = dx[:, 0, :]
    return grads, (dx2d[0] if squeeze else dx2d)


def _infer_rows(xpix: np.ndarray, p: SpikeNetParams, cfg: SpikeNetConfig,
                v0: np.ndarray, chunk: int, out: np.ndarray) -> None:
    """Stream row block xpix (B, K) through the network in time chunks.

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


def infer_stream(x: LogDiffSeq, p: SpikeNetParams, cfg: SpikeNetConfig,
                 v0_mode: str = "zero", seed: int = 0, workers: int = 1,
                 chunk: int = 256) -> SpikeTrain:
    """Windowed streaming inference over a LogDiffSeq.

    Output is bit-identical to running forward() on each pixel's full
    sequence; memory per pixel stays O(chunk + receptive field).  Pixels are
    processed in fixed row blocks so the result never depends on the worker
    count, and the membrane state is carried across chunk boundaries.
    """
    if v0_mode not in ("zero", "uniform"):
        raise ConfigError("v0_mode must be 'zero' or 'uniform'")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    k, h, w = x.data.shape
    pix = x.data.transpose(1, 2, 0).reshape(h * w, k)  # (H*W, K), y-major
    if v0_mode == "zero":
        v0 = np.zeros(h * w)
    else:
        ys = np.arange(h, dtype=np.uint64)[:, None]
        xs = np.arange(w, dtype=np.uint64)[None, :]
        u = rng.unit_uniform(seed, ys, xs, _SALT_V0).reshape(-1)
        v0 = (2.0 * u - 1.0) * cfg.lif.v_th

    out = np.empty((h * w, k), dtype=np.int8)
    rows_per_block = max(1, 512 // max(w, 1))
    blocks = [(r * w, min(r + rows_per_block, h) * w)
              for r in range(0, h, rows_per_block)]

    if workers <= 1:
        for a, b in blocks:
            _infer_rows(pix[a:b], p, cfg, v0[a:b], chunk, out[a:b])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_infer_rows, pix[a:b], p, cfg, v0[a:b],
                                chunk, out[a:b]) for a, b in blocks]
            for f in futs:
                f.result()
    return SpikeTrain(x.width, x.height, x.fps, out.reshape(h, w, k).transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# checkpoint format "EVSN"

_EVSN_MAGIC = b"EVSN"
_EVSN_HEADER = struct.Struct("<4sH")
_EVSN_CONFIG = struct.Struct("<6f")


def save_checkpoint(path, p: SpikeNetParams, cfg: SpikeNetConfig) -> None:
    """Write magic, version, config block, then tensors (f32, dims-prefixed)."""
    parts = [_EVSN_HEADER.pack(_EVSN_MAGIC, 1),
             _EVSN_CONFIG.pack(cfg.channels, cfg.kernel, cfg.depth,
                               cfg.lif.tau, cfg.lif.v_th, cfg.surrogate.alpha)]
    for t in p.tensors():
        parts.append(struct.pack("<I", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(np.ascontiguousarray(t, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[SpikeNetParams, SpikeNetConfig]:
    buf = Path(path).read_bytes()
    if len(buf) < _EVSN_HEADER.size + _EVSN_CONFIG.size:
        raise FormatError(f"{path}: truncated header")
    magic, version = _EVSN_HEADER.unpack_from(buf)
    if magic != _EVSN_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    c, k, m, tau, v_th, alpha = _EVSN_CONFIG.unpack_from(buf, _EVSN_HEADER.size)
    try:
        cfg = SpikeNetConfig(int(c), int(k), int(m), LifParams(tau, v_th),
                             SurrogateConfig(alpha))
    except (ValueError, OverflowError) as exc:  # ConfigError, int(nan), int(inf)
        raise FormatError(f"{path}: bad config block: {exc}") from None
    off = _EVSN_HEADER.size + _EVSN_CONFIG.size
    tensors = []
    for shape in param_shapes(cfg):
        if off + 4 > len(buf):
            raise FormatError(f"{path}: truncated tensor table")
        (rank,) = struct.unpack_from("<I", buf, off)
        off += 4
        if rank != len(shape):
            raise FormatError(f"{path}: tensor rank {rank} != expected {len(shape)}")
        if off + 4 * rank > len(buf):
            raise FormatError(f"{path}: truncated tensor dims")
        dims = struct.unpack_from(f"<{rank}I", buf, off)
        off += 4 * rank
        if dims != shape:
            raise FormatError(f"{path}: tensor dims {dims} != expected {shape}")
        n = int(np.prod(shape))
        if off + 4 * n > len(buf):
            raise FormatError(f"{path}: truncated tensor data")
        t = np.frombuffer(buf, dtype="<f4", count=n, offset=off).reshape(shape)
        if not np.isfinite(t).all():
            raise FormatError(f"{path}: non-finite weights in tensor {len(tensors)}")
        tensors.append(t.copy())
        off += 4 * n
    if off != len(buf):
        raise FormatError(f"{path}: trailing bytes")
    return SpikeNetParams.from_tensors(tensors), cfg
