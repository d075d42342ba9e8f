"""Leaky integrate-and-fire neurons, the bipolar variant, and the surrogate.

Dynamics per tick (reset by subtraction, scaled by the threshold):

    charge  v' = (1 - 1/tau) * v + i
    fire    s  = sign(v') * [|v'| >= v_th]      (unipolar: s = [v' >= v_th])
    reset   v  = v' - s * v_th

The fire test runs on the post-charge potential v'.  Training uses the fast
arctangent surrogate in place of the hard fire nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class LifParams:
    tau: float = 2.0   # decay constant, ticks
    v_th: float = 1.0  # firing threshold

    def __post_init__(self):
        if not self.tau > 1:
            raise ConfigError("tau must exceed 1")
        if not self.v_th > 0:
            raise ConfigError("v_th must be positive")

    @property
    def decay(self) -> float:
        return 1.0 - 1.0 / self.tau


@dataclass
class NeuronState:
    v: float = 0.0  # membrane potential

    def __post_init__(self):
        if not np.isfinite(self.v):
            raise ValueError("membrane potential must be finite")


@dataclass(frozen=True)
class SurrogateConfig:
    alpha: float = 2.0  # sharpness of the arctangent surrogate

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")


def lif_step(state: NeuronState, inp: float, p: LifParams) -> tuple[NeuronState, int]:
    vp = p.decay * state.v + inp
    s = 1 if vp >= p.v_th else 0
    return NeuronState(vp - s * p.v_th), s


def bilif_step(state: NeuronState, inp: float, p: LifParams) -> tuple[NeuronState, int]:
    vp = p.decay * state.v + inp
    if vp >= p.v_th:
        s = 1
    elif vp <= -p.v_th:
        s = -1
    else:
        s = 0
    return NeuronState(vp - s * p.v_th), s


def bilif_sequence(x, p: LifParams, v0: float = 0.0,
                   no_leak: bool = False) -> tuple[np.ndarray, NeuronState]:
    """Fold bilif_step over a length-K input; returns spikes and final state."""
    spikes, _, v = bilif_fold(np.asarray(x, np.float64)[None, :], p,
                              np.float64(v0), no_leak=no_leak)
    return spikes[0], NeuronState(float(v[0]))


def bilif_fold(inputs: np.ndarray, p: LifParams, v0,
               no_leak: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized bipolar fold over (B, K) inputs.

    Returns (spikes int8 (B,K), post-charge potentials (B,K), final v (B,)).
    no_leak=True drops the decay term (perfect integrator), used by the
    reference sensor path.
    """
    decay = 1.0 if no_leak else p.decay
    b, k = inputs.shape
    v = np.broadcast_to(np.asarray(v0, inputs.dtype), (b,)).copy()
    spikes = np.empty((b, k), dtype=np.int8)
    vprime = np.empty((b, k), dtype=inputs.dtype)
    for t in range(k):
        v *= decay
        v += inputs[:, t]
        vprime[:, t] = v
        s = (v >= p.v_th).astype(np.int8) - (v <= -p.v_th).astype(np.int8)
        spikes[:, t] = s
        v -= s * p.v_th
    return spikes, vprime, v


def surrogate_sigma(u, s: SurrogateConfig):
    """Smooth CDF-like stand-in for the Heaviside step (unit range)."""
    return np.arctan(0.5 * np.pi * s.alpha * np.asarray(u)) / np.pi + 0.5


def surrogate_sigma_prime(u, s: SurrogateConfig):
    z = 0.5 * np.pi * s.alpha * np.asarray(u)
    return (0.5 * s.alpha) / (1.0 + z * z)


def surrogate_grad(v, p: LifParams, s: SurrogateConfig):
    """d(spike)/d(potential) for the bipolar fire rule.

    The fire rule differentiates to sigma'(v - v_th) - d/dv sigma(-v - v_th),
    which is a sum of two positive bumps centered at +/- v_th.
    """
    v = np.asarray(v)
    return surrogate_sigma_prime(v - p.v_th, s) + surrogate_sigma_prime(-v - p.v_th, s)


def soft_bilif(vprime, p: LifParams, s: SurrogateConfig):
    """Smooth relaxation of the bipolar spike given post-charge potentials."""
    vprime = np.asarray(vprime)
    return (surrogate_sigma(vprime - p.v_th, s)
            - surrogate_sigma(-vprime - p.v_th, s))
