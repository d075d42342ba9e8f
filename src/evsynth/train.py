"""Dataset assembly and the pixel-batch training loop.

A dataset pair holds noisy-frame log differences as network input and the
reference simulator's output on the matching clean frames as the target.
Training samples batches of pixel sequences across scenes, runs the soft
(relaxed-spike) forward for the loss path, and backpropagates through the
surrogate; hard spikes are used for holdout evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats, refsim, scenegen, spikenet
from .core import LogDiffSeq, SpikeTrain
from .errors import ConfigError, DivergenceError
from .loss import LossConfig, loss_grad, total_loss
from .luminance import LuminanceConfig, log_diff_blocks
from .refsim import RefSimConfig
from .scenegen import NoiseModel, SceneSpec
from .spikenet import SpikeNetConfig, SpikeNetParams
from .spiking import bilif_fold


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch: int = 256          # pixels per step
    lr: float = 1e-3
    count_weight: float = 0.1
    clip: float = 1.0         # gradient-norm cap
    seed: int = 0
    holdout: float = 0.1      # fraction of pixels held out

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if not 0 <= self.clip < np.inf:
            raise ConfigError("clip must be finite and >= 0")
        if not 0 < self.lr < np.inf:
            raise ConfigError("lr must be finite and positive")
        if not 0 <= self.holdout <= 0.5:
            raise ConfigError("holdout must lie in [0, 0.5]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        LossConfig(self.count_weight)  # its rule, checked before any data is built


@dataclass
class DatasetPair:
    x: LogDiffSeq          # network input, from noisy frames
    e: SpikeTrain          # target, reference sim on clean frames

    def __post_init__(self):
        if self.x.data.shape != self.e.data.shape:
            raise ValueError("input and target dims must match")


def make_dataset(scenes: list[SceneSpec], noise: NoiseModel, ref: RefSimConfig,
                 lum: LuminanceConfig = LuminanceConfig()) -> list[DatasetPair]:
    """Clean frames -> simulator targets; noisy frames -> inputs.

    Every pixel of every scene is one row of a float32 input array and of an
    int8 target array, (pixels, K), filled block by block from the streaming
    paths (render_range, noise_block, log_diff_blocks, simulate_blocks); each
    pair holds (K, H, W) views of its scene's rows, which train reads in
    place.  One K for all rows: scenes with different frame counts raise
    ConfigError before anything is rendered.
    """
    if not scenes:
        return []
    counts = sorted({spec.n_frames for spec in scenes})
    if len(counts) > 1:
        raise ConfigError(f"scenes have different frame counts {counts}; "
                          "a dataset needs one")
    k = counts[0] - 1
    n_pix = sum(spec.height * spec.width for spec in scenes)
    xs = np.empty((n_pix, k), np.float32)
    es = np.empty((n_pix, k), np.int8)
    pairs, r = [], 0
    for spec in scenes:
        n, h, w = spec.n_frames, spec.height, spec.width
        x_rows = xs[r:r + h * w].reshape(h, w, k)
        e_rows = es[r:r + h * w].reshape(h, w, k)
        # the two streams run in lockstep, each asking for the frame before
        # a block and then the block, so a cache of two ranges renders each once
        clean = functools.lru_cache(maxsize=2)(functools.partial(scenegen.render_range, spec))
        noisy = log_diff_blocks(lambda a, b: scenegen.noise_block(clean(a, b), a, noise),
                                n, h, w, lum)
        spikes = refsim.simulate_blocks(log_diff_blocks(clean, n, h, w, lum),
                                        h, w, spec.fps, ref)
        t = 0
        for x, (e, _) in zip(noisy, spikes):
            x_rows[..., t:t + len(x)] = x.transpose(1, 2, 0)
            e_rows[..., t:t + len(x)] = e.transpose(1, 2, 0)
            t += len(x)
        pairs.append(DatasetPair(LogDiffSeq(w, h, spec.fps, x_rows.transpose(2, 0, 1)),
                                 SpikeTrain(w, h, spec.fps, e_rows.transpose(2, 0, 1))))
        r += h * w
    return pairs


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(x) for x in tensors],
                   [np.zeros_like(x) for x in tensors])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float) -> tuple[list[np.ndarray], AdamState]:
    """Bias-corrected adaptive-moment update; elementwise and functional."""
    state.t += 1
    c1 = 1.0 - _BETA1 ** state.t
    c2 = 1.0 - _BETA2 ** state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = _BETA1 * state.m[i] + (1 - _BETA1) * g
        state.v[i] = _BETA2 * state.v[i] + (1 - _BETA2) * g * g
        out.append(p - lr * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2) + _EPS))
    return out, state


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Scale grads so their joint L2 norm is at most max_norm."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def _stack_pixels(data: list[DatasetPair]) -> tuple[np.ndarray, np.ndarray]:
    return (_stacked([p.x.pixel_sequences() for p in data]),
            _stacked([p.e.pixel_sequences() for p in data]))


def _stacked(rows: list[np.ndarray]) -> np.ndarray:
    """rows concatenated: their shared base when they are its consecutive
    rows from the first to the last (make_dataset's arrays), else a copy."""
    base, n = rows[0].base, 0
    for r in rows:
        if (base is None or r.base is not base or not base.flags.c_contiguous
                or (r.dtype, r.shape[1:]) != (base.dtype, base.shape[1:])
                or r.ctypes.data != base.ctypes.data + n * base.strides[0]):
            return np.concatenate(rows)
        n += len(r)
    return base if n == len(base) else np.concatenate(rows)


def holdout_split(n_pix: int, t_cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (holdout_idx, train_idx) permutation split."""
    gen = np.random.Generator(np.random.PCG64(t_cfg.seed))
    perm = gen.permutation(n_pix)
    n_hold = int(round(t_cfg.holdout * n_pix))
    return perm[:n_hold], perm[n_hold:]


def evaluate_holdout(x: np.ndarray, e: np.ndarray, params: SpikeNetParams,
                     cfg: SpikeNetConfig, lcfg: LossConfig) -> float:
    """Hard-spike total loss over a pixel set (evaluation mode).

    The spikes are forward(x, mode="hard")'s, from the conv stack's no-record
    path on spikenet._BLOCK pixels at a time, as infer_blocks runs them."""
    n = spikenet._BLOCK
    spikes = [bilif_fold(spikenet._conv_stack(x[a:a + n], params), cfg.lif, 0.0)[0]
              for a in range(0, len(x), n)]
    return total_loss(e, np.concatenate(spikes), lcfg).total


@np.errstate(over="ignore", invalid="ignore")
def train(data: list[DatasetPair], net_cfg: SpikeNetConfig, t_cfg: TrainConfig,
          checkpoint_dir=None, verbose: bool = False):
    """Train the network; returns (params, history).

    History rows are (epoch, train_loss, holdout_loss): the soft objective
    averaged over the epoch's steps and the hard-spike loss on held-out
    pixels.  When checkpoint_dir is given, a checkpoint is written per epoch.
    A diverging run raises DivergenceError and prints no numpy warnings.
    """
    if not data:
        raise ValueError("empty dataset")
    lcfg = LossConfig(t_cfg.count_weight)
    xs, es = _stack_pixels(data)
    n_pix = xs.shape[0]

    hold_idx, train_idx = holdout_split(n_pix, t_cfg)
    gen = np.random.Generator(np.random.PCG64(t_cfg.seed + 1))  # epoch shuffles

    params = spikenet.init_params(net_cfg, t_cfg.seed, dtype=np.float32)
    state = AdamState.for_tensors(params.tensors())
    history = []

    for epoch in range(1, t_cfg.epochs + 1):
        order = gen.permutation(train_idx)
        losses = []
        for start in range(0, len(order), t_cfg.batch):
            idx = order[start:start + t_cfg.batch]
            xb, eb = xs[idx], es[idx]
            soft, cache = spikenet.forward(xb, params, net_cfg, mode="soft")
            report = total_loss(eb, soft, lcfg)
            if not np.isfinite(report.total):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            g_spikes = loss_grad(eb, soft, lcfg)
            grads, _ = spikenet.backward(g_spikes.astype(np.float32), cache,
                                         params, net_cfg)
            g_list, _ = clip_global_norm(grads.tensors(), t_cfg.clip)
            new_tensors, state = adam_step(params.tensors(), g_list, state, t_cfg.lr)
            params = SpikeNetParams.from_tensors(new_tensors)
            losses.append(report.total)
            # the next step's forward runs without this step's arrays
            del soft, cache, g_spikes, grads, g_list, new_tensors
        if not all(np.isfinite(t).all() for t in params.tensors()):
            raise DivergenceError(f"non-finite weights at epoch {epoch}")

        if len(hold_idx):
            hold_loss = evaluate_holdout(xs[hold_idx], es[hold_idx], params,
                                         net_cfg, lcfg)
        else:
            hold_loss = float("nan")
        history.append((epoch, float(np.mean(losses)), hold_loss))
        if verbose:
            print(f"epoch {epoch:3d}  train {history[-1][1]:.4f}  "
                  f"holdout {hold_loss:.4f}", flush=True)
        if checkpoint_dir is not None:
            spikenet.save_checkpoint(Path(checkpoint_dir) / f"epoch_{epoch:03d}.evsn",
                                     params, net_cfg)
    return params, history


def write_history_csv(history, path) -> None:
    lines = ["epoch,train_loss,holdout_loss"]
    lines += [f"{ep},{tr:.8g},{ho:.8g}" for ep, tr, ho in history]
    formats.write_text(path, "\n".join(lines) + "\n")
