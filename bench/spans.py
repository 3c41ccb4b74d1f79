"""In-memory spans for the traced run, and the statistics every report uses.

A span is (id, parent id, op id, name, start, end) in seconds on the
recorder's clock.  Spans only go into a list while the run measures;
:meth:`SpanRecorder.dump` writes them out when the run ends.

A span's *self time* is its duration minus the part of its interval that
its direct children cover (children may overlap — the parallel engine's
statements do — so coverage is the union of their intervals, clipped to
the parent).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple, Sequence


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float


class SpanRecorder:
    """Records nested spans.  ``enabled=False`` keeps the call sites but
    records nothing — the traced run's own control, so the cost of the
    benchmark's spans is itself measured.  ``span`` nests on one thread;
    ``add`` takes any finished interval (spans rebuilt after the fact
    from measurements other threads or processes reported)."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span id, start, cursor for record()]
        self.op: int | None = None

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        ident = len(self.spans)
        self.spans.append(Span(ident, parent, self.op, name, start, end))
        return ident

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1][0] if self._stack else None
        start = self.clock()
        # Reserve the id now so children can name their parent.
        ident = self.add(name, start, start, parent)
        self._stack.append([ident, start, start])
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[ident] = self.spans[ident]._replace(end=self.clock())

    def record(self, name: str, seconds: float, concurrent: bool = False) -> None:
        """Attach a duration measured elsewhere (the program's own trace,
        a server's ``server_millis``) under the open span.  Only the
        duration is known: such spans are laid end to end from the
        parent's start, or all at the parent's start when ``concurrent``
        (the parts of a fan-out)."""
        if not self.enabled or not self._stack:
            return
        frame = self._stack[-1]
        start = frame[1] if concurrent else frame[2]
        self.add(name, start, start + seconds, frame[0])
        if not concurrent:
            frame[2] = start + seconds

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": list(Span._fields),
                    "spans": [list(span) for span in self.spans],
                },
                handle,
            )


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id → self time in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def rollup(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: how many, total and self milliseconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += (span.end - span.start) * 1000.0
        row["self_ms"] += own[span.id] * 1000.0
    return table


def unaccounted_share(spans: Sequence[Span], root: str) -> float:
    """The share of the ``root`` spans' wall that no named child explains:
    Σ their self time ÷ Σ their wall."""
    own = self_times(spans)
    roots = [s for s in spans if s.name == root]
    wall = sum(s.end - s.start for s in roots)
    return sum(own[s.id] for s in roots) / wall if wall else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
