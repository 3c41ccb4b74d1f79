"""A small, thread-safe metrics registry: counters, gauges, histograms.

Prometheus-shaped on purpose — families carry a name, a help string, a
type and a fixed label schema; children are one family member per label
value combination — but with a deliberately bounded memory model:

* **counters** and **gauges** are a single float each;
* **histograms** are *fixed-bucket*: a tuple of upper bounds chosen at
  registration time, ``observe`` does one binary search and three adds.
  No sample lists, ever — this is what lets a long-running server keep
  latency distributions, and a session its lifetime totals
  (:meth:`~repro.api.session.Session.stats_snapshot` reads them here), in
  constant memory.

Gauges may track callbacks: the current value is pulled at render
time, the sum over every callback tracked (used for live saturation
numbers like lease-pool free slots and admission-queue depth, which
nobody should have to push on every transition — each server over one
session tracks its own, and drops them when it stops).

Registration is idempotent: asking for an existing family name returns
the existing family (the type and label schema must match), so modules
can each declare what they need without coordinating initialisation
order.  All mutation is lock-protected; the locks are leaves — no
user code runs under them except gauge callbacks at snapshot time.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

#: Log-2-scaled latency buckets in milliseconds: 0.25ms .. ~16s, 17
#: buckets (+Inf is implicit).  Wide enough for a cross-shard fan-out
#: under load, fine enough to resolve a sub-millisecond plan-cache hit.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = tuple(
    0.25 * (2.0**i) for i in range(17)
)


def _check_label_values(
    schema: tuple[str, ...], values: dict[str, object]
) -> tuple[str, ...]:
    if tuple(sorted(values)) != tuple(sorted(schema)):
        raise ValueError(
            f"label mismatch: expected {sorted(schema)}, got {sorted(values)}"
        )
    return tuple(str(values[name]) for name in schema)


class Counter:
    """A monotonically increasing float."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A settable float, or the sum of pull-at-render callbacks."""

    __slots__ = ("_value", "_lock", "_callbacks")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()
        self._callbacks: tuple[Callable[[], float], ...] = ()

    def track(self, callback: Callable[[], float]) -> None:
        """Add ``callback`` to the sum this gauge reads (once)."""
        with self._lock:
            if callback not in self._callbacks:
                self._callbacks += (callback,)

    def untrack(self, callback: Callable[[], float]) -> None:
        """Drop ``callback`` from the sum (a no-op when not tracked)."""
        with self._lock:
            self._callbacks = tuple(c for c in self._callbacks if c != callback)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        callbacks = self._callbacks
        if callbacks:
            return float(sum(callback() for callback in callbacks))
        with self._lock:
            return self._value


class Histogram:
    """Fixed upper-bound buckets; constant memory per observation stream.

    ``counts[i]`` is the number of observations ``<= bounds[i]`` and
    *not* covered by an earlier bucket (non-cumulative internally;
    exposition cumulates, as Prometheus requires).  The final implicit
    +Inf bucket is ``overflow``.
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "count", "_lock")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram bounds must be sorted and unique")
        self.bounds = ordered
        self.counts = [0] * len(ordered)
        self.overflow = 0
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self.bounds):
                self.counts[index] += 1
            else:
                self.overflow += 1
            self.total += value
            self.count += 1

    def snapshot(self) -> dict:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            counts = list(self.counts)
            overflow = self.overflow
            total = self.total
            count = self.count
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts):
            running += bucket
            cumulative.append((bound, running))
        return {
            "buckets": cumulative,
            "inf": running + overflow,
            "sum": total,
            "count": count,
        }

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        containing the q-th observation); +Inf observations clamp to the
        largest finite bound."""
        snap = self.snapshot()
        if snap["count"] == 0:
            return 0.0
        rank = q * snap["count"]
        for bound, cum in snap["buckets"]:
            if cum >= rank:
                return bound
        return self.bounds[-1]


class MetricFamily:
    """One named metric: help text, type, label schema, children.

    A label-less family acts as its own single child (``inc``/``set``/
    ``observe`` work directly on it); labelled families hand out children
    via :meth:`labels`.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._children[()] = self._make_child()

    def _make_child(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        if self.kind == "histogram":
            assert self._buckets is not None
            return Histogram(self._buckets)
        raise ValueError(f"unknown metric kind {self.kind!r}")

    def labels(self, **labelvalues: object):
        key = _check_label_values(self.labelnames, labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # Label-less convenience: the family IS its single child.

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; use .labels()"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def track(self, callback: Callable[[], float]) -> None:
        self._solo().track(callback)

    def untrack(self, callback: Callable[[], float]) -> None:
        self._solo().untrack(callback)

    @property
    def value(self) -> float:
        return self._solo().value

    def quantile(self, q: float) -> float:
        return self._solo().quantile(q)


class MetricsRegistry:
    """Idempotent family registry; the unit handed around the stack.

    Every session owns one (built with it unless handed one) and every
    server over the session counts into it; the shard client and
    ``supervise`` take one to count into.  Tests build throwaway ones and
    assert exact counts.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Iterable[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        full = f"{self.prefix}_{name}" if self.prefix else name
        schema = tuple(labelnames)
        with self._lock:
            existing = self._families.get(full)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != schema:
                    raise ValueError(
                        f"metric {full!r} re-registered as {kind}"
                        f"{schema} but exists as {existing.kind}"
                        f"{existing.labelnames}"
                    )
                return existing
            family = MetricFamily(full, help, kind, schema, buckets)
            self._families[full] = family
            return family

    def counter(
        self, name: str, help: str, labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._register(name, help, "counter", labels)

    def gauge(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        """A gauge family; with ``callback`` (label-less only), that callback
        joins the sum the gauge reads — every server over one session adds
        its own (see :meth:`Gauge.track`)."""
        if callback is not None and tuple(labels):
            raise ValueError("callback gauges must be label-less")
        family = self._register(name, help, "gauge", labels)
        if callback is not None:
            family.track(callback)
        return family

    def histogram(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> MetricFamily:
        return self._register(name, help, "histogram", labels, buckets=buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        full = f"{self.prefix}_{name}" if self.prefix else name
        with self._lock:
            return self._families.get(full)
