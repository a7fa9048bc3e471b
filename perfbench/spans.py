"""In-memory spans for the benchmark's traced run.

A span is (name, start, end, parent index). Names are ``<layer>.<call>``,
where the layer is a frustumkit module (``voxelizer.voxelize``) or ``bench``
for the benchmark's own per-operation envelope. Spans are kept in a list and
written out once, when the run ends; nothing is printed while timing.

A span's self time is its duration minus the time covered by its direct
children. Calls are made from one thread and children end before their
parent does, so the children never overlap and their durations simply add.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup and a call."""

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    """Tracing on: records every span and accumulates named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``spans``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child_time[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total span seconds, total self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "span_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["span_s"] += end - start
            entry["self_s"] += self_s
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds summed per layer (the span-name prefix before the first dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, entry in self.totals().items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return dict(layers)

    def write(self, path: Path, meta: dict) -> None:
        """Write spans (times relative to the first span), self times and counts."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "columns": ["name", "start_s", "end_s", "parent", "self_s"],
            "spans": [
                [name, start - origin, end - origin, parent, self_s]
                for (name, start, end, parent), self_s in zip(self.spans, self.self_times())
            ],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
