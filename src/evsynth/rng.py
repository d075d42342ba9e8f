"""Counter-based random streams.

Every draw is a pure function of its integer keys (seed, pixel coords, tick,
salt), so it never depends on the order in which values are drawn.  Keys are
folded into a u64 hash one at a time by a splitmix64 chain, so a hashed prefix
extends by ``fold``: ``fold(hash_u64(seed, *a), *b) == hash_u64(seed, *a, *b)``.
Callers hash a shared prefix once -- typically each pixel's (seed, y, x) via
``pixel_key`` -- and fold the tick and a salt onto it per draw.
``unit_uniform`` and ``unit_normal`` map finished hashes to draws; normals
come from a fixed two-uniform Box-Muller so no draw ever consumes a variable
amount of state.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0**-53)


def _mix64(x: np.ndarray) -> np.ndarray:
    # u64 wraparound is intentional here; keep numpy quiet about it
    with np.errstate(over="ignore"):
        x = x + _GAMMA
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def fold(h, *keys) -> np.ndarray:
    """Extend u64 hashes by integer keys (scalars or arrays, broadcast together)."""
    for k in keys:
        h = _mix64(h ^ np.asarray(k, dtype=np.uint64))
    return h


def hash_u64(seed: int, *keys) -> np.ndarray:
    """Hash a seed and integer keys into u64 hashes."""
    return fold(_mix64(np.uint64(seed)), *keys)


def pixel_key(seed: int, height: int, width: int) -> np.ndarray:
    """The (height, width) hashes of every pixel's (seed, y, x) prefix."""
    return hash_u64(seed, *np.ogrid[:height, :width])


def unit_uniform(h: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1), one per hash."""
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


def unit_normal(h: np.ndarray) -> np.ndarray:
    """Standard normals, one per hash, via Box-Muller on two sub-hashes."""
    # u1 in (0, 1] so the log is finite
    u1 = ((fold(h, 1) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    u2 = (fold(h, 2) >> np.uint64(11)).astype(np.float64) * _INV53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
