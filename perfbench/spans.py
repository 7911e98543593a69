"""In-memory spans recorded around calls into nbperc, and their self times.

A span holds a name, start, end, the id of the span that was open when it
started (its parent) and the run id.  Spans stay in memory and are written
out when the run ends.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans on one thread; ``spans`` is the flat record."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        """Time the body as span ``name``; work counts may be added to the
        yielded record's "counts" while the span is open."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{span id: self time in seconds}."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def totals_by_name(spans):
    """{name: (summed self time, number of spans)} over all spans."""
    own = self_times(spans)
    out = {}
    for s in spans:
        t, k = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (t + own[s["id"]], k + 1)
    return out
