"""In-memory spans and counters for the benchmark's traced runs.

Spans are recorded by the benchmark's own files around the calls into each
layer of ``pretopo``; nothing inside the package is instrumented.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent index) and named counters.

    Each span also stores ``ru_maxrss`` read right after it ends, so the span
    where the peak jumps is the one that owns it.  Everything stays in memory
    until the caller writes :meth:`to_json_dict` out.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            # ru_maxrss is in KiB on Linux
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self._open.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] = value

    def to_json_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, summed duration minus the time its child spans cover."""
    out: dict[str, float] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        out[record["name"]] = out.get(record["name"], 0.0) + duration
        if record["parent"] is not None:
            parent = spans[record["parent"]]["name"]
            out[parent] = out.get(parent, 0.0) - duration
    return out
