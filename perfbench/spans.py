"""In-memory spans recorded by the benchmark around calls into diffspec.

Every call the benchmark makes into a layer's public function goes
through Tracer.call.  With tracing off that is a plain call; with it on
the call is timed as a leaf span (name, start, end, parent, workload,
run id) and a work function turns the call's arguments and result into
counts, evaluated after the clock stops so counting is not booked to
the layer.  Spans stay in memory until the benchmark summarises them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    run_id: int
    leaf: bool
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one workload; enabled per pass by the run loop."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.run_id = -1
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _record(self, name, start, end, leaf, counts=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, start, end, parent, self.workload,
                    self.run_id, leaf, counts or {})
        self.spans.append(span)
        return span

    @contextmanager
    def region(self, name: str):
        """A parent span (a pass or a job) around the layer calls inside it."""
        if not self.enabled:
            yield
            return
        span = self._record(name, time.perf_counter(), 0.0, leaf=False)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """fn(*args, **kwargs) as a leaf span named layer.function."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self._record(name, start, end, True, work(result) if work else None)
        return result


def per_pass(spans: list[Span]) -> list[dict[str, float]]:
    """Leaf busy time, calls and counts of every traced pass, plus coverage.

    A pass is a root span named "pass"; leaf spans are the layer calls
    inside it, which never nest.  Coverage is the leaf time of a pass
    over its wall time: the share of the run some layer span accounts for.
    """
    out: list[dict[str, float]] = []
    for p in (s for s in spans if s.parent is None and s.name == "pass"):
        agg: dict[str, float] = {}
        busy = 0.0
        for s in spans:
            if s.run_id != p.run_id or not s.leaf:
                continue
            busy += s.duration
            agg[f"{s.name}.s"] = agg.get(f"{s.name}.s", 0.0) + s.duration
            agg[f"{s.name}.calls"] = agg.get(f"{s.name}.calls", 0.0) + 1
            for key, val in s.counts.items():
                agg[key] = agg.get(key, 0.0) + val
        agg["trace.coverage"] = busy / p.duration
        agg["trace.spans"] = sum(1 for s in spans if s.run_id == p.run_id)
        out.append(agg)
    return out
