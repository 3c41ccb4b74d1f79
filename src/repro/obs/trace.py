"""Trace spans: where one query's wall time actually goes.

The paper's central empirical claim is about *where time goes* — the
shredding transform bounds the number of flat queries statically, and the
wins of Figs. 10/11 come from what each stage then costs.  A
:class:`Tracer` makes that visible per run: nested spans for

    query
    ├─ compile            (plan-cache miss only)
    │  ├─ normalise
    │  ├─ shred
    │  └─ codegen[path]   one per shredded query
    │     └─ optimize     per-rule children, fired or not
    ├─ execute
    │  ├─ collect         the paused cycle collector's young backlog
    │  │                  (batched engines, only when one was paid)
    │  └─ statement[i]    one per flat query
    │     ├─ sql          SQLite execute + fetch
    │     └─ decode       row → value decoding
    └─ stitch

plus, through the sharded fan-out client, a ``route`` span with per-shard
sub-spans carrying ``shard``/``replica`` attribution and the wire
``trace_id``, each with the coordinator's ``stitch`` of that shard's
column tables as its child::

    route
    └─ shard[i]           one per sub-request (server_millis = its server side)
       └─ stitch          tables, rows — folded here, not on the shard

Design constraints, in order:

* **zero overhead when off** — every instrumented call site takes
  ``tracer=None`` and guards with a single None check; no global state,
  no thread-locals consulted on the fast path;
* **deterministic under parallelism** — the tracer itself is
  *single-threaded* (the owning request's thread).  Concurrent stages
  (the parallel engine's workers, the fan-out client's sub-requests)
  measure locally and the coordinator attaches their spans **post-hoc in
  deterministic order** via :meth:`Span.record` after joining, exactly
  like :class:`~repro.backend.executor.ExecutionStats` records parallel
  outcomes in package order;
* **clock-injectable** — tests pass a fake clock and assert exact
  durations.

Spans export as plain dicts (:meth:`Tracer.to_dict`) and render as an
indented tree (:func:`render_trace`); both are surfaced by
``Prepared.explain(trace=True)`` and ``python -m repro trace <query>``.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional

import time

__all__ = ["Span", "Tracer", "render_trace", "traced"]


class Span:
    """One named, timed piece of work with attributes and child spans.

    ``start_ms`` is the offset from the trace origin (None for spans
    recorded post-hoc from a joined worker's measurement, where only the
    duration is meaningful).  Attributes are small scalars — never rows.
    """

    __slots__ = ("name", "start_ms", "duration_ms", "attributes", "children")

    def __init__(
        self,
        name: str,
        start_ms: Optional[float] = None,
        duration_ms: float = 0.0,
        **attributes: object,
    ) -> None:
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.attributes: dict = dict(attributes)
        self.children: list["Span"] = []

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to an open span (e.g. rows once known)."""
        self.attributes.update(attributes)
        return self

    def record(
        self,
        name: str,
        duration_ms: float,
        start_ms: Optional[float] = None,
        **attributes: object,
    ) -> "Span":
        """Append a pre-measured child span (the post-hoc path used after
        parallel workers join — call in deterministic order)."""
        child = Span(name, start_ms, duration_ms, **attributes)
        self.children.append(child)
        return child

    def to_dict(self) -> dict:
        payload: dict = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.start_ms is not None:
            payload["start_ms"] = round(self.start_ms, 3)
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.duration_ms:.3f}ms "
            f"children={len(self.children)}>"
        )


class Tracer:
    """Produces one trace: a stack of open spans plus finished roots.

    Single-threaded by design (see module docstring); the owning thread
    opens/closes spans with the :meth:`span` context manager, and
    coordinators attach concurrent workers' measurements post-hoc with
    :meth:`Span.record`.

    ``clock`` is any monotonic seconds-valued callable (default
    :func:`time.perf_counter`); ``trace_id`` is minted when absent and
    travels in wire frames so sharded sub-requests correlate server-side.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        trace_id: Optional[str] = None,
    ) -> None:
        self.clock = clock
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._origin = clock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------- recording

    def _now_ms(self) -> float:
        return (self.clock() - self._origin) * 1000.0

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span; it closes (duration stamped) when the block exits.

        Nested calls nest spans; a top-level call starts a new root.
        """
        opened = Span(name, start_ms=self._now_ms(), **attributes)
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.spans.append(opened)
        self._stack.append(opened)
        started = self.clock()
        try:
            yield opened
        finally:
            opened.duration_ms = (self.clock() - started) * 1000.0
            popped = self._stack.pop()
            assert popped is opened, "span stack imbalance"

    def current(self) -> Optional[Span]:
        """The innermost open span (None between roots)."""
        return self._stack[-1] if self._stack else None

    def record(
        self,
        name: str,
        duration_ms: float,
        **attributes: object,
    ) -> Span:
        """Attach a pre-measured span at the current position (to the
        innermost open span, or as a new root)."""
        parent = self.current()
        if parent is not None:
            return parent.record(name, duration_ms, **attributes)
        root = Span(name, None, duration_ms, **attributes)
        self.spans.append(root)
        return root

    # --------------------------------------------------------------- surface

    @property
    def root(self) -> Optional[Span]:
        """The first root span (a traced run produces exactly one)."""
        return self.spans[0] if self.spans else None

    def to_dict(self) -> dict:
        """The whole trace as plain JSON-serialisable data."""
        return {
            "trace_id": self.trace_id,
            "spans": [span.to_dict() for span in self.spans],
        }


def traced(tracer: Optional[Tracer], name: str, **attributes: object):
    """``tracer.span(...)`` when tracing, a no-op context otherwise —
    keeps every instrumented stage a single None check when tracing is
    off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attributes)


def _fmt_attr(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _render_span(span: Span, indent: int, lines: list[str]) -> None:
    attrs = " ".join(
        f"{key}={_fmt_attr(value)}" for key, value in span.attributes.items()
    )
    lines.append(
        "  " * indent
        + f"- {span.name}  {span.duration_ms:.3f}ms"
        + (f"  [{attrs}]" if attrs else "")
    )
    for child in span.children:
        _render_span(child, indent + 1, lines)


def render_trace(trace: "Tracer | Span") -> str:
    """An indented text tree of the trace (or of one span)."""
    lines: list[str] = []
    if isinstance(trace, Span):
        _render_span(trace, 0, lines)
    else:
        lines.append(f"trace {trace.trace_id}")
        for span in trace.spans:
            _render_span(span, 0, lines)
    return "\n".join(lines)
