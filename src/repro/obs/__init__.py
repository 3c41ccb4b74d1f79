"""``repro.obs`` — end-to-end observability for the shredding stack.

Three pieces, all stdlib-only and cheap enough to leave on in production:

* :mod:`~repro.obs.trace` — a lightweight, clock-injectable
  :class:`Tracer` producing nested spans across the compile/execute
  pipeline (``normalise → shred → optimize(per-rule) → codegen →
  execute(per-statement) → decode → stitch``), with shard fan-out
  sub-spans carrying shard/replica attribution, exportable as JSON and
  rendered by ``Prepared.explain(trace=True)`` and
  ``python -m repro trace``;
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket log-scaled histograms (bounded memory, no
  sample lists) covering request latency, admission depth and sheds,
  lease-pool saturation, plan-cache hits, breaker transitions, replica
  failovers, supervisor restarts and fired optimizer rules;
* :mod:`~repro.obs.exposition` — Prometheus text exposition: the
  ``metrics`` wire op renders it in-band, ``serve --metrics-port`` /
  ``supervise --metrics-port`` serve it over HTTP at ``/metrics``.

The whole package is opt-in at the call sites: every hot path takes
``tracer=None`` / ``metrics=None`` and does nothing but a None check when
observability is off.
"""

from repro.obs.exposition import (
    MetricsHTTPServer,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, render_trace, traced

__all__ = [
    "Tracer",
    "Span",
    "render_trace",
    "traced",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsHTTPServer",
    "render_prometheus",
    "parse_prometheus",
]
