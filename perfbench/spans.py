"""Per-layer tracing from outside the program.

The benchmark times calls into each layer's public functions by
replacing those functions with timing wrappers before the run starts.
Nothing in ``src/`` knows about it.

* A function is patched in every loaded ``repro`` module that holds it,
  because ``from x import f`` copies the name: patching only the
  defining module would miss ``repro.engine.core.build_dataset``.
* Each thread keeps a stack of open spans.  While a child span runs,
  its parent is paused, so every layer accrues *self* time only.  The
  stack records these self-time segments, not whole spans.
* Functions that return lazy iterators are wrapped so that every
  ``next()`` is its own span.
* Segments stay in memory.  Each process writes one summary file when it
  ends.  Forked pool workers write theirs from a multiprocessing
  finaliser, and a server process writes its own when ``main`` returns.
  The harness merges the files.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

#: Layer name for time a process spends blocked on another process;
#: it is neither a layer's self time nor attributed work.
WAIT = "wait"


class Tracer:
    """Collects self-time segments and counters for one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._start_process()
        # Runs in multiprocessing children after their finaliser registry
        # is reset, so the finaliser below survives.
        mp_util.register_after_fork(self, Tracer._adopt_child)

    def _start_process(self) -> None:
        from repro.sql import analysis_cache

        self.pid = os.getpid()
        self.segments: list[tuple[str, float, float]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Guards ``busy`` and ``counts``: a server updates them from its
        #: job thread and its report thread at once.
        self.lock = threading.Lock()
        self._local = threading.local()
        self._sql_base = analysis_cache.counters().as_dict()

    def _adopt_child(self) -> None:
        # A forked worker inherits the parent's segments; drop them and
        # write this process's own summary when the worker exits.
        self._start_process()
        mp_util.Finalize(None, self.dump, exitpriority=100)

    # -- spans -------------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def call(self, layer: str, fn, args, kwargs):
        """Run ``fn`` as a span of ``layer``; returns its result."""
        frames = self._frames()
        start = perf_counter()
        if frames:
            parent = frames[-1]
            self.segments.append((parent[0], parent[1], start))
        frame = [layer, start]
        frames.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            frames.pop()
            self.segments.append((layer, frame[1], end))
            with self.lock:
                self.busy[layer] += end - start
            if frames:
                frames[-1][1] = end

    def outer_layer(self) -> str | None:
        """The layer of the innermost open span on this thread."""
        frames = self._frames()
        return frames[-1][0] if frames else None

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Self seconds per layer, busy seconds, counters, work intervals."""
        from repro.sql import analysis_cache

        sql = {
            key: value - self._sql_base.get(key, 0)
            for key, value in analysis_cache.counters().as_dict().items()
        }
        self_s: dict[str, float] = defaultdict(float)
        work = []
        for layer, start, end in self.segments:
            self_s[layer] += end - start
            if layer != WAIT and end > start:
                work.append((start, end))
        return {
            "pid": self.pid,
            "self_s": dict(self_s),
            "busy_s": dict(self.busy),
            "counts": dict(self.counts),
            "sql": sql,
            "intervals": merge_intervals(work),
        }

    def dump(self) -> None:
        """Write this process's summary to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.summary()), encoding="utf-8")


def merge_intervals(intervals) -> list[list[float]]:
    """Union of ``(start, end)`` intervals as sorted disjoint pairs."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered_seconds(intervals, windows) -> float:
    """Seconds of ``windows`` covered by the union of ``intervals``."""
    union = merge_intervals(intervals)
    total = 0.0
    for w_start, w_end in windows:
        for start, end in union:
            total += max(0.0, min(end, w_end) - max(start, w_start))
    return total


def load_summaries(out_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(out_dir).glob("spans-*.json"))
    ]


# -- patching ---------------------------------------------------------------


class _TimedIterator:
    """Times every ``next()`` of a lazy iterator as a span."""

    def __init__(self, tracer: Tracer, layer: str, iterator, count) -> None:
        self._tracer = tracer
        self._layer = layer
        self._iterator = iterator
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.call(self._layer, next, (self._iterator,), {})
        if self._count is not None:
            with self._tracer.lock:
                self._count(self._tracer.counts, item)
        return item


def _wrap(tracer: Tracer, layer: str, fn, count=None, lazy=False):
    """A timing wrapper for ``fn``; ``count(counts, result, args)`` tallies."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, fn, args, kwargs)
        if lazy:
            return _TimedIterator(
                tracer,
                layer,
                iter(result),
                None if count is None else (lambda c, item: count(c, item, args)),
            )
        if count is not None:
            with tracer.lock:
                count(tracer.counts, result, args)
        return result

    return wrapper


def patch_function(tracer, module_name, name, layer, count=None, lazy=False):
    """Replace ``module.name`` in every ``repro`` module that holds it."""
    original = getattr(sys.modules[module_name], name)
    wrapper = _wrap(tracer, layer, original, count, lazy)
    for mod_name, module in list(sys.modules.items()):
        if (
            module is not None
            and mod_name.split(".")[0] == "repro"
            and getattr(module, name, None) is original
        ):
            setattr(module, name, wrapper)


def patch_method(tracer, cls, name, layer, count=None, lazy=False):
    """Replace one method on its class (covers every call site)."""
    setattr(cls, name, _wrap(tracer, layer, getattr(cls, name), count, lazy))
