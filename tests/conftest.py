import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import evsynth

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_event_list(gen, width=16, height=12, n=200, t_max=100_000):
    """Sorted random events with at most one event per (t, x, y)."""
    from evsynth.core import EVENT_DTYPE, EventList

    t = gen.integers(0, t_max, size=n, dtype=np.uint32)
    x = gen.integers(0, width, size=n, dtype=np.uint16)
    y = gen.integers(0, height, size=n, dtype=np.uint16)
    p = gen.choice([-1, 1], size=n).astype(np.int8)
    rec = np.empty(n, dtype=EVENT_DTYPE)
    rec["t"], rec["x"], rec["y"], rec["p"] = t, x, y, p
    rec = rec[np.lexsort((rec["x"], rec["y"], rec["t"]))]
    keep = np.ones(n, dtype=bool)
    same = (np.diff(rec["t"]) == 0) & (np.diff(rec["x"]) == 0) & (np.diff(rec["y"]) == 0)
    keep[1:][same] = False
    return EventList(width, height, rec[keep])


def run_cli(blas_threads: int, *args):
    """Run `python -m evsynth.cli *args` in a subprocess with
    OPENBLAS_NUM_THREADS=blas_threads, and check that it exits 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(evsynth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "evsynth.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


SPLITS = ("whole", "ticks", "uneven")
_UNEVEN = (3, 1, 17, 2, 64)  # block lengths, cycled


def split_ticks(data, split):
    """data (K, ...) cut along its first axis into consecutive blocks, as a
    streaming reader may hand them over: one block ("whole"), one tick per
    block ("ticks"), or blocks of the lengths _UNEVEN in turn ("uneven"),
    which end inside a chunk's window and may span several windows."""
    if split == "whole":
        return [data]
    if split == "ticks":
        return list(data[:, None])
    cuts, a = [], 0
    while a < len(data):
        cuts.append(data[a:a + _UNEVEN[len(cuts) % len(_UNEVEN)]])
        a += len(cuts[-1])
    return cuts


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes allocated during the call beyond what was
    allocated before it), from tracemalloc, which sees numpy's array buffers."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class FakeBlas:
    """Stands in for OpenBLAS's (get, set) thread count, starting at n."""

    def __init__(self, n):
        self.n, self.calls = n, []

    def get(self):
        return self.n

    def set(self, n):
        self.calls.append(n)
        self.n = n


def fake_blas(monkeypatch, n):
    """Make spikenet see a FakeBlas(n) as OpenBLAS, or no OpenBLAS for n None;
    returns the FakeBlas (None for n None)."""
    from evsynth import spikenet

    blas = n and FakeBlas(n)
    monkeypatch.setattr(spikenet, "_openblas", lambda: blas and (blas.get, blas.set))
    return blas
