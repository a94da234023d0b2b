"""In-memory spans recorded around the benchmark's calls into mubwigner.

A span has a name, start and end (perf_counter seconds from the tracer's
creation), the index of the span that caused it and the op it belongs to
("setup" before the first op). Counts and gauges are recorded at the same
boundaries. Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    op = "setup"

    def span(self, name):
        return _NULL

    def count(self, name, value=1):
        pass

    def gauge(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.op = "setup"
        self.counts: dict[tuple, float] = defaultdict(float)  # summed per op
        self.gauges: dict[tuple, float] = {}  # largest value per op

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter() - self.t0, None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter() - self.t0

    def count(self, name, value=1):
        self.counts[(self.op, name)] += value

    def gauge(self, name, value):
        key = (self.op, name)
        self.gauges[key] = max(self.gauges.get(key, value), value)

    def self_times(self) -> dict[tuple, float]:
        """(op, name) -> summed self time: each span's duration minus the
        part of it that its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[tuple, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[(op, name)] += (end - start) - child[i]
        return out

    def call_counts(self) -> dict[tuple, int]:
        out: dict[tuple, int] = defaultdict(int)
        for name, _, _, _, op in self.spans:
            out[(op, name)] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def per_op_median(values: dict[tuple, float], name: str) -> float:
    """Median over the ops (set-up counts as one) that recorded `name`; 0 when
    none did."""
    got = [v for (op, n), v in values.items() if n == name]
    return statistics.median(got) if got else 0.0
