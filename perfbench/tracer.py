"""In-memory span tracer installed on evsynth from outside the package.

Every public function of each evsynth module is replaced by a timing wrapper
at every module attribute that refers to it, because callers look functions
up there (``spikenet.conv1d`` inside ``spikenet.forward``, ``train.total_loss``
imported by name from ``loss``).  Nothing in the package is edited, and
``installed()`` restores the originals on exit.

Spans are kept in memory and carry their thread id.  A span's self time is
its duration minus the spans it directly caused on the same thread.  Pool row
workers are recorded as busy intervals instead of spans, so a layer's time at
one worker stays in its own self time and its threads' busy time is reported
separately.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import json
import threading
import time
from statistics import median


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, thread id, start, end, child seconds]
        self.busy: list[list] = []    # [name, thread id, start, end]
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, n: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn, work=None):
        """Wrap fn so each call records a span; work(args, kwargs, result)
        yields (counter, amount) pairs counted after the span closes."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, threading.get_ident(), 0.0, 0.0, 0.0]
            stack.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][4] += rec[3] - rec[2]
                self.spans.append(rec)
            if work is not None:
                for key, n in work(args, kwargs, result):
                    self.count(key, n)
            return result
        return traced

    def busy_interval(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy.append([name, threading.get_ident(), t0,
                                  time.perf_counter()])
        return timed

    @contextlib.contextmanager
    def installed(self, layer_modules, all_modules, work=None, pools=None):
        """Wrap the public functions defined in layer_modules and rebind them
        in every module of all_modules; pools maps a layer span name to the
        "module.attr" of its row worker."""
        work = work or {}
        wrappers = {}
        for mod in layer_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[obj] = self.span(name, obj, work.get(name))
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in layer_modules}
        for layer, worker in (pools or {}).items():
            mod_name, attr = worker.split(".", 1)
            obj = getattr(by_short.get(mod_name), attr, None)
            if inspect.isfunction(obj):
                wrappers[obj] = self.busy_interval(layer, obj)

        originals = []
        for mod in all_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield self
        finally:
            for mod, attr, obj in originals:
                setattr(mod, attr, obj)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (summed durations), self_s, busy_s."""
        agg: dict[str, dict[str, float]] = {}
        for name, _tid, t0, t1, child in self.spans:
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "busy_s": 0.0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += max(0.0, t1 - t0 - child)
        for name, _tid, t0, t1 in self.busy:
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "busy_s": 0.0})
            a["busy_s"] += t1 - t0
        return agg

    def step_p50(self, step_start: str, step_end: str) -> float:
        """Median step time: each step_end span, measured from the latest
        step_start span that began before it on the same thread."""
        starts: dict[int, list[float]] = {}
        for name, tid, t0, _t1, _c in self.spans:
            if name == step_start:
                starts.setdefault(tid, []).append(t0)
        for v in starts.values():
            v.sort()
        steps = []
        for name, tid, t0, t1, _c in self.spans:
            begun = starts.get(tid, [])
            i = bisect.bisect_right(begun, t0) if name == step_end else 0
            if i:
                steps.append(t1 - begun[i - 1])
        return median(steps) if steps else 0.0

    def write(self, path) -> None:
        """Write every span and busy interval, times relative to the first."""
        t_ref = min([s[2] for s in self.spans] + [b[2] for b in self.busy],
                    default=0.0)
        doc = {
            "spans": [[n, tid, round(t0 - t_ref, 9), round(t1 - t0, 9),
                       round(max(0.0, t1 - t0 - c), 9)]
                      for n, tid, t0, t1, c in self.spans],
            "span_fields": ["name", "thread", "start_s", "dur_s", "self_s"],
            "busy": [[n, tid, round(t0 - t_ref, 9), round(t1 - t0, 9)]
                     for n, tid, t0, t1 in self.busy],
            "busy_fields": ["layer", "thread", "start_s", "dur_s"],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
