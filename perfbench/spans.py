"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are appended to flat lists
while the workload runs and are only aggregated or written out after it
ends, so recording costs one list append and two clock reads per call.
The program is single-threaded, so spans nest strictly and a stack
gives each span its parent.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return fn recording one span named `name` per call."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds `s`, and
        `self_s`, the inclusive time minus the time covered by direct
        child spans."""
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[idx] - self.starts[idx]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[idx]
        return out

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": list(zip(self.names, self.starts, self.ends, self.parents)),
                },
                fh,
            )
