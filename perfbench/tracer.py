"""In-memory span tracer with self-time arithmetic.

A span is (name, start, end, parent). Spans are kept in flat lists while
the traced program runs and are only summarised or written out at the
end. A span's self time is its duration minus the durations of its
direct children; children of one span never overlap, because the traced
program is single-threaded.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def wrap(self, name, fn, on_enter=None, on_exit=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_enter(args, kwargs)`` runs before the span opens and
        ``on_exit(args, kwargs, result)`` after it closes, so neither is
        counted in the span's duration.
        """

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, names) -> bool:
        """True if a span with one of ``names`` is open."""
        return any(self.names[i] in names for i in self._stack)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        return dur - covered

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        dur = self.durations()
        own = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0})
            entry["calls"] += 1
            entry["s"] += float(dur[i])
            entry["self_s"] += float(own[i])
            entry["max_s"] = max(entry["max_s"], float(dur[i]))
        return out

    def group_seconds(self, names) -> float:
        """Seconds inside spans named in ``names``, counting nested ones once."""
        names = set(names)
        dur = self.durations()
        total = 0.0
        for i, name in enumerate(self.names):
            if name not in names:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in names:
                p = self.parents[p]
            if p < 0:
                total += float(dur[i])
        return total

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent span."""
        dur = self.durations()
        return float(sum(dur[i] for i, p in enumerate(self.parents) if p < 0))

    def write(self, path) -> None:
        """Write every span as columns: names, start, end, parent."""
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "start": self.starts, "end": self.ends, "parent": self.parents},
                fh,
            )
