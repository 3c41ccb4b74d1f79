"""The metrics registry and Prometheus exposition, and the session's
lifetime totals that live in it.

Three layers of claims:

* registry semantics — counters only go up, histograms are fixed-bucket
  (bounded memory however long the server runs), registration is
  idempotent, label schemas are enforced;
* exposition — ``render_prometheus`` emits valid 0.0.4 text that our own
  strict parser round-trips, byte-stable for a given state;
* determinism — counters driven from many threads (the parallel engine,
  a session hammer) land *exactly*: Σ of the runs' ``Result.stats``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import connect
from repro.backend.executor import ExecutionStats
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)

QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


class TestRegistrySemantics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total", "ticks")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0
        seven = lambda: 7  # noqa: E731 - the callback is untracked by identity
        live = registry.gauge("live", "pulled at render", callback=seven)
        assert live.value == 7.0
        # Re-registered with another callback, the gauge reads their sum;
        # a callback tracked twice counts once, and an untracked one not.
        assert registry.gauge("live", "pulled at render", callback=lambda: 8) is live
        live.track(seven)
        assert live.value == 15.0
        live.untrack(seven)
        assert live.value == 8.0
        with pytest.raises(ValueError):
            registry.gauge("bad", "x", labels=("a",), callback=lambda: 0)

    def test_histogram_buckets_are_fixed_and_cumulative(self):
        registry = MetricsRegistry()
        histo = registry.histogram("ms", "latency", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.9, 5.0, 50.0, 5000.0):
            histo._solo().observe(value)
        snap = histo._solo().snapshot()
        assert snap["buckets"] == [(1.0, 2), (10.0, 3), (100.0, 4)]
        assert snap["inf"] == 5
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5056.4)
        # Memory is the bucket tuple, never a sample list.
        assert not hasattr(histo._solo(), "__dict__")

    def test_histogram_quantile_is_bucket_resolution(self):
        registry = MetricsRegistry()
        histo = registry.histogram("ms", "latency", buckets=(1.0, 10.0, 100.0))
        for value in [0.5] * 50 + [5.0] * 45 + [50.0] * 5:
            histo.observe(value)
        assert histo.quantile(0.50) == 1.0
        assert histo.quantile(0.95) == 10.0
        assert histo.quantile(0.99) == 100.0

    def test_default_buckets_are_log_scaled_and_bounded(self):
        assert len(DEFAULT_LATENCY_BUCKETS_MS) == 17
        assert DEFAULT_LATENCY_BUCKETS_MS[0] == 0.25
        ratios = {
            round(b / a, 6)
            for a, b in zip(
                DEFAULT_LATENCY_BUCKETS_MS, DEFAULT_LATENCY_BUCKETS_MS[1:]
            )
        }
        assert ratios == {2.0}

    def test_registration_is_idempotent_but_schema_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "hits")
        again = registry.counter("hits_total", "hits")
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("hits_total", "now a gauge")
        with pytest.raises(ValueError):
            registry.counter("hits_total", "new labels", labels=("op",))

    def test_labels_enforced_and_children_shared(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", "ops", labels=("op",))
        family.labels(op="execute").inc()
        family.labels(op="execute").inc()
        family.labels(op="ping").inc()
        assert family.labels(op="execute").value == 2.0
        with pytest.raises(ValueError):
            family.labels(verb="execute")
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no solo child


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests", labels=("op",))
        registry.get("requests_total").labels(op="execute").inc(3)
        registry.get("requests_total").labels(op="ping").inc()
        registry.gauge("pending", "in flight").set(2)
        histo = registry.histogram("latency_ms", "ms", buckets=(1.0, 8.0))
        for value in (0.5, 4.0, 90.0):
            histo.observe(value)
        return registry

    def test_render_parses_and_round_trips(self):
        registry = self._populated()
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)
        assert parsed["repro_requests_total"]["type"] == "counter"
        samples = parsed["repro_requests_total"]["samples"]
        assert samples[("repro_requests_total", (("op", "execute"),))] == 3.0
        assert samples[("repro_requests_total", (("op", "ping"),))] == 1.0
        assert parsed["repro_pending"]["samples"][("repro_pending", ())] == 2.0
        histo = parsed["repro_latency_ms"]
        assert histo["type"] == "histogram"
        assert histo["samples"][("repro_latency_ms_bucket", (("le", "1"),))] == 1.0
        assert histo["samples"][("repro_latency_ms_bucket", (("le", "8"),))] == 2.0
        assert histo["samples"][("repro_latency_ms_bucket", (("le", "+Inf"),))] == 3.0
        assert histo["samples"][("repro_latency_ms_count", ())] == 3.0
        assert histo["samples"][("repro_latency_ms_sum", ())] == pytest.approx(94.5)

    def test_exposition_is_byte_stable(self):
        # Same logical state reached in different orders renders the same
        # bytes — what the sharded determinism tests diff against.
        left, right = self._populated(), MetricsRegistry()
        histo = right.histogram("latency_ms", "ms", buckets=(1.0, 8.0))
        right.gauge("pending", "in flight").set(2)
        requests = right.counter("requests_total", "requests", labels=("op",))
        requests.labels(op="ping").inc()
        for value in (90.0, 0.5, 4.0):
            histo.observe(value)
        requests.labels(op="execute").inc(3)
        assert render_prometheus(left) == render_prometheus(right)
        assert render_prometheus(left) == render_prometheus(left)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("odd_total", "odd", labels=("path",))
        family.labels(path='a"b\\c\nd').inc()
        parsed = parse_prometheus(render_prometheus(registry))
        ((_name, labels),) = parsed["repro_odd_total"]["samples"]
        assert labels == (("path", 'a"b\\c\nd'),)

    def test_help_lines_and_types_present_for_every_family(self):
        text = render_prometheus(self._populated())
        for family in ("repro_requests_total", "repro_pending", "repro_latency_ms"):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_parser_rejects_malformed_exposition(self):
        with pytest.raises(ValueError):
            parse_prometheus("orphan_sample 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE x summary\nx 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE x counter\nx notanumber\n")

    def test_hammered_counters_land_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total", "ticks", labels=("who",))
        histo = registry.histogram("ms", "ms", buckets=(1.0, 2.0))
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            child = counter.labels(who=str(slot % 2))
            for _ in range(per_thread):
                child.inc()
                histo.observe(0.5)

        workers = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        total = sum(
            child.value for _key, child in counter.children()
        )
        assert total == threads * per_thread
        assert histo._solo().snapshot()["count"] == threads * per_thread


class TestSessionTotals:
    """A session keeps no per-query samples of its own: its lifetime
    totals are its registry's, exact however many runs it served."""

    def test_session_stats_stay_bounded(self):
        session = connect(figure3_database())
        runs = [session.run(NESTED_QUERIES["Q6"]) for _ in range(40)]
        assert not hasattr(session, "stats")
        assert not any(
            isinstance(value, (list, ExecutionStats))
            for value in vars(session).values()
        )
        snapshot = session.stats_snapshot()
        assert snapshot["queries"] == sum(r.stats.queries for r in runs) == 120
        assert snapshot["rows_fetched"] == sum(r.stats.rows_fetched for r in runs)
        assert snapshot["millis"] == pytest.approx(
            sum(r.stats.total_millis for r in runs), abs=1e-2
        )
        assert snapshot["cache_hits"] + snapshot["cache_misses"] == 40
        # The per-run stats a caller sees keep their full sample lists.
        assert all(len(r.stats.per_query_millis) == r.stats.queries for r in runs)

    def test_total_millis_is_added_by_record_and_merge(self):
        # total_millis is a plain field: record and merge add to it, and a
        # carrier keeps every sample it recorded.
        stats = ExecutionStats()
        for index in range(10):
            stats.record(rows=index, millis=float(index))
        assert stats.total_millis == pytest.approx(sum(range(10)))
        assert stats.per_query_rows == list(range(10))
        target = ExecutionStats()
        target.merge(stats)
        target.merge(stats)
        assert target.queries == 20
        assert target.rows_fetched == 2 * sum(range(10))
        assert target.total_millis == pytest.approx(2 * sum(range(10)))
        assert len(target.per_query_millis) == 20


class TestSessionMetrics:
    """The registry counts Σ of the runs' ``Result.stats`` exactly,
    whatever engine or thread count produced the runs."""

    def _families(self, registry: MetricsRegistry) -> dict:
        return {
            "statements": registry.get("statements_total").value,
            "rows": registry.get("rows_fetched_total").value,
            "observed": registry.get("statement_latency_ms")
            ._solo()
            .snapshot()["count"],
            "hits": registry.get("plan_cache_hits_total").value,
            "misses": registry.get("plan_cache_misses_total").value,
        }

    def test_metrics_count_the_runs_exactly(self):
        from repro.pipeline.plan_cache import PlanCache

        registry = MetricsRegistry()
        session = connect(figure3_database(), metrics=registry, cache=PlanCache())
        runs = [
            session.run(NESTED_QUERIES[name])
            for name in QUERY_NAMES
            for _ in range(2)
        ]
        seen = self._families(registry)
        statements = sum(r.stats.queries for r in runs)
        assert seen["statements"] == statements
        assert seen["rows"] == sum(r.stats.rows_fetched for r in runs)
        assert seen["observed"] == statements
        # Each one-shot run compiled once: the first of a shape missed.
        assert seen["misses"] == len(QUERY_NAMES)
        assert seen["hits"] == len(QUERY_NAMES)

    def test_metrics_mirror_stats_exactly(self):
        # stats_snapshot() is a view of the registry, not a second tally.
        from repro.pipeline.plan_cache import PlanCache

        registry = MetricsRegistry()
        session = connect(figure3_database(), metrics=registry, cache=PlanCache())
        for name in QUERY_NAMES:
            session.run(NESTED_QUERIES[name])
            session.query(NESTED_QUERIES[name]).run()
        seen = self._families(registry)
        snapshot = session.stats_snapshot()
        assert snapshot["queries"] == seen["statements"] == seen["observed"]
        assert snapshot["rows_fetched"] == seen["rows"]
        assert snapshot["cache_hits"] == seen["hits"]
        assert snapshot["cache_misses"] == seen["misses"]
        assert snapshot["millis"] == pytest.approx(
            registry.get("statement_latency_ms")._solo().snapshot()["sum"],
            abs=1e-3,
        )

    def test_rules_fired_reach_the_registry(self):
        from repro.sql.codegen import SqlOptions

        registry = MetricsRegistry()
        session = connect(
            figure3_database(),
            options=SqlOptions(scheme="flat", optimize=True),
            metrics=registry,
            cache=False,
        )
        session.run(NESTED_QUERIES["Q6"])
        family = registry.get("rules_fired_total")
        fired = {
            key[0]: child.value for key, child in family.children()
        }
        compiled = session.compile(NESTED_QUERIES["Q6"])
        assert fired == {rule: 1 for rule in compiled.fired_rules}
        assert fired  # flat-form Q6 with the optimizer on fires at least one rule

    def test_parallel_engine_counts_match_batched(self):
        results = {}
        for engine in ("batched", "parallel"):
            registry = MetricsRegistry()
            session = connect(figure3_database(), metrics=registry)
            for name in QUERY_NAMES:
                session.run(NESTED_QUERIES[name], engine=engine)
            results[engine] = (
                registry.get("statements_total").value,
                registry.get("rows_fetched_total").value,
                registry.get("statement_latency_ms")._solo().snapshot()["count"],
            )
        assert results["parallel"] == results["batched"]

    def test_hammered_session_metrics_are_exact(self):
        registry = MetricsRegistry()
        session = connect(figure3_database(), metrics=registry)
        threads = 6
        runs_per_thread = 8
        barrier = threading.Barrier(threads)
        failures: list = []
        runs: list = []

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(runs_per_thread):
                    name = QUERY_NAMES[(slot + i) % len(QUERY_NAMES)]
                    runs.append(session.run(NESTED_QUERIES[name], engine="batched"))
            except Exception as error:  # noqa: BLE001
                failures.append(repr(error))

        workers = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)
        ]
        # A short switch interval makes a lost update between threads
        # likely, were a count not under its child's lock.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert not failures, failures
        assert len(runs) == threads * runs_per_thread
        statements = sum(r.stats.queries for r in runs)
        assert registry.get("statements_total").value == statements
        assert registry.get("rows_fetched_total").value == sum(
            r.stats.rows_fetched for r in runs
        )
        assert (
            registry.get("statement_latency_ms")._solo().snapshot()["count"]
            == statements
        )
        assert session.stats_snapshot()["queries"] == statements
