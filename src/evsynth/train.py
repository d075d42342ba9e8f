"""Dataset assembly and the pixel-batch training loop.

A dataset pair holds noisy-frame log differences as network input and the
reference simulator's output on the matching clean frames as the target.
Training samples batches of pixel sequences across scenes, runs the soft
(relaxed-spike) forward for the loss path, and backpropagates through the
surrogate; hard spikes are used for holdout evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import refsim, scenegen, spikenet
from .core import LogDiffSeq, SpikeTrain
from .errors import ConfigError, DivergenceError
from .loss import LossConfig, loss_grad, total_loss
from .luminance import LuminanceConfig, log_diff_sequence
from .refsim import RefSimConfig
from .scenegen import NoiseModel, SceneSpec
from .spikenet import SpikeNetConfig, SpikeNetParams


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


@dataclass
class DatasetPair:
    x: LogDiffSeq          # network input, from noisy frames
    e: SpikeTrain          # target, reference sim on clean frames
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x.data.shape != self.e.data.shape:
            raise ValueError("input and target dims must match")


def make_dataset(scenes: list[SceneSpec], noise: NoiseModel, ref: RefSimConfig,
                 lum: LuminanceConfig = LuminanceConfig()) -> list[DatasetPair]:
    """Clean frames -> simulator targets; noisy frames -> inputs."""
    pairs = []
    for spec in scenes:
        clean = scenegen.gen_scene(spec)
        noisy = scenegen.add_render_noise(clean, noise)
        target = refsim.simulate(log_diff_sequence(clean, lum), ref)
        pairs.append(DatasetPair(
            x=log_diff_sequence(noisy, lum),
            e=target,
            provenance={"scene": spec, "noise": noise, "refsim": ref},
        ))
    return pairs


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_tensors(cls, tensors: list[np.ndarray]) -> "AdamState":
        return cls([np.zeros_like(x) for x in tensors],
                   [np.zeros_like(x) for x in tensors])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, lr: float) -> tuple[list[np.ndarray], AdamState]:
    """Bias-corrected adaptive-moment update; elementwise and functional."""
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
        out.append(p - lr * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2) + state.eps))
    return out, state


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> tuple[list[np.ndarray], float]:
    """Scale grads so their joint L2 norm is at most max_norm."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def _stack_pixels(data: list[DatasetPair]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.concatenate([p.x.pixel_sequences() for p in data])
    es = np.concatenate([p.e.pixel_sequences() for p in data])
    return xs.astype(np.float32), es


def holdout_split(n_pix: int, t_cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (holdout_idx, train_idx) permutation split."""
    gen = np.random.Generator(np.random.PCG64(t_cfg.seed))
    perm = gen.permutation(n_pix)
    n_hold = int(round(t_cfg.holdout * n_pix))
    return perm[:n_hold], perm[n_hold:]


def evaluate_holdout(x: np.ndarray, e: np.ndarray, params: SpikeNetParams,
                     cfg: SpikeNetConfig, lcfg: LossConfig) -> float:
    """Hard-spike total loss over a pixel set (evaluation mode)."""
    spikes, _ = spikenet.forward(x, params, cfg, mode="hard")
    return total_loss(e, spikes, lcfg).total


def train(data: list[DatasetPair], net_cfg: SpikeNetConfig, t_cfg: TrainConfig,
          checkpoint_dir=None, verbose: bool = False):
    """Train the network; returns (params, history).

    History rows are (epoch, train_loss, holdout_loss): the soft objective
    averaged over the epoch's steps and the hard-spike loss on held-out
    pixels.  When checkpoint_dir is given, a checkpoint is written per epoch.
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

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

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
            spikenet.save_checkpoint(checkpoint_dir / f"epoch_{epoch:03d}.evsn",
                                     params, net_cfg)
    return params, history


def write_history_csv(history, path) -> None:
    lines = ["epoch,train_loss,holdout_loss"]
    lines += [f"{ep},{tr:.8g},{ho:.8g}" for ep, tr, ho in history]
    Path(path).write_text("\n".join(lines) + "\n")
