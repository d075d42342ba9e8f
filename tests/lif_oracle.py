"""Scalar LIF oracles for the tests: one neuron, one tick at a time.

bilif_sequence folds through spiking.bilif_fold, so tests written against it
exercise the fold the network uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evsynth.spiking import LifParams, bilif_fold


@dataclass
class NeuronState:
    v: float = 0.0  # membrane potential

    def __post_init__(self):
        if not np.isfinite(self.v):
            raise ValueError("membrane potential must be finite")


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


def bilif_sequence(x, p: LifParams, v0: float = 0.0) -> tuple[np.ndarray, NeuronState]:
    """Fold bilif_step over a length-K input; returns spikes and final state."""
    spikes, _, v = bilif_fold(np.asarray(x, np.float64)[None, :], p, np.float64(v0))
    return spikes[0], NeuronState(float(v[0]))
