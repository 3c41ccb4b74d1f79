"""Observability over the wire: the ``metrics`` op, ``trace_id``
propagation, the HTTP exposition endpoint, shard fan-out attribution and
supervisor event counters.

Protocol v1.3 additions under test:

* every server keeps a :class:`MetricsRegistry` and answers ``{"op":
  "metrics"}`` with Prometheus text exposition, in-band, on both the
  blocking and asyncio clients — counters are *exact* (N executes → N);
* any request may carry a ``trace_id`` (≤64 chars); the response echoes
  it, executes additionally report ``server_millis``, and the sharded
  client stamps its tracer's id on every sub-request while attaching
  per-shard spans with shard/replica attribution post-join;
* ``--metrics-port`` exposes the same registry over HTTP ``GET
  /metrics`` (:class:`MetricsHTTPServer`), parsed and asserted here.
"""

from __future__ import annotations

import urllib.request

import pytest

from repro.api import connect
from repro.data.organisation import (
    figure3_database,
    organisation_placement,
)
from repro.errors import ServiceError
from repro.obs import (
    MetricsHTTPServer,
    MetricsRegistry,
    Tracer,
    parse_prometheus,
)
from repro.service import (
    ServiceClient,
    paper_registry,
    serve_in_background,
)
from repro.service.resilience import CircuitBreaker
from repro.shard import ShardedDatabase, ShardedServiceClient
from repro.shard.supervisor import Supervisor
from repro.values import bag_equal

PLACEMENT = organisation_placement()
REGISTRY = paper_registry()
SHARDS = 2


def _sample(exposition: str, family: str, sample: str, **labels) -> float:
    parsed = parse_prometheus(exposition)
    key = (sample, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return parsed[family]["samples"][key]


class TestMetricsOp:
    def test_exact_counters_over_either_driver(self, wire_client):
        session = connect(figure3_database())
        with serve_in_background(session, REGISTRY, pool_size=2) as handle:
            client = wire_client(handle.host, handle.port)
            for _ in range(3):
                client.execute("Q1")
            client.ping()
            exposition = client.metrics()
            client.close()
        assert _sample(
            exposition,
            "repro_requests_total",
            "repro_requests_total",
            op="execute",
        ) == 3.0
        assert _sample(
            exposition,
            "repro_requests_total",
            "repro_requests_total",
            op="ping",
        ) == 1.0
        # The session mirrors into the same registry: statement counts and
        # latency observations line up with the three executes.
        statements = _sample(
            exposition, "repro_statements_total", "repro_statements_total"
        )
        assert statements == session.stats.queries
        observed = _sample(
            exposition,
            "repro_statement_latency_ms",
            "repro_statement_latency_ms_count",
        )
        assert observed == statements

    def test_saturation_gauges_present(self):
        session = connect(figure3_database())
        with serve_in_background(
            session, REGISTRY, pool_size=2, max_pending=7
        ) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                exposition = client.metrics()
        parsed = parse_prometheus(exposition)
        assert (
            parsed["repro_admission_limit"]["samples"][
                ("repro_admission_limit", ())
            ]
            == 7.0
        )
        assert parsed["repro_lease_pool_size"]["samples"][
            ("repro_lease_pool_size", ())
        ] == 2.0
        assert ("repro_pending_requests", ()) in parsed[
            "repro_pending_requests"
        ]["samples"]

    def test_shed_and_error_counters_wired(self):
        session = connect(figure3_database())
        with serve_in_background(session, REGISTRY, pool_size=1) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError):
                    client.execute("no_such_query")
                exposition = client.metrics()
        assert _sample(
            exposition,
            "repro_request_errors_total",
            "repro_request_errors_total",
        ) == 1.0
        assert _sample(
            exposition,
            "repro_requests_shed_total",
            "repro_requests_shed_total",
        ) == 0.0


class TestTraceIdPropagation:
    def test_malformed_trace_ids_are_rejected(self):
        session = connect(figure3_database())
        with serve_in_background(session, REGISTRY, pool_size=2) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError):
                    client.execute_full("Q1", trace_id="x" * 65)
                # The connection survives the error frame.
                assert client.execute("Q1")


class TestHTTPExposition:
    def test_get_metrics_parses_and_matches_inband(self):
        session = connect(figure3_database())
        with serve_in_background(session, REGISTRY, pool_size=2) as handle:
            exporter = MetricsHTTPServer(handle.server.metrics)
            try:
                with ServiceClient(handle.host, handle.port) as client:
                    client.execute("Q3")
                    inband = client.metrics()
                with urllib.request.urlopen(exporter.url, timeout=10) as r:
                    assert r.status == 200
                    assert r.headers["Content-Type"].startswith("text/plain")
                    body = r.read().decode("utf-8")
            finally:
                exporter.close()
        assert _sample(
            body,
            "repro_requests_total",
            "repro_requests_total",
            op="execute",
        ) == 1.0
        # Same registry behind both surfaces: the execute counter agrees
        # (later ops — the metrics scrape itself, the close — move other
        # children between the two snapshots, but not this one).
        assert _sample(
            inband,
            "repro_requests_total",
            "repro_requests_total",
            op="execute",
        ) == 1.0
        assert parse_prometheus(body).keys() == parse_prometheus(inband).keys()

    def test_unknown_paths_404(self):
        registry = MetricsRegistry()
        exporter = MetricsHTTPServer(registry)
        try:
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    exporter.url.replace("/metrics", "/other"), timeout=10
                )
        finally:
            exporter.close()


@pytest.fixture(scope="module")
def fleet():
    """2 partition shards + full-copy fallback, real sockets."""
    sdb = ShardedDatabase(figure3_database(), PLACEMENT, SHARDS)
    handles = [
        serve_in_background(
            connect(db),
            REGISTRY,
            pool_size=2,
            shard_label=f"{index}/{SHARDS}",
        )
        for index, db in enumerate(sdb.shards)
    ]
    fallback = serve_in_background(
        connect(sdb.full), REGISTRY, pool_size=2, shard_label=f"full/{SHARDS}"
    )
    yield handles, fallback
    for handle in handles + [fallback]:
        handle.stop()


def _fleet_client(fleet, **kwargs) -> ShardedServiceClient:
    handles, fallback = fleet
    return ShardedServiceClient(
        [(h.host, h.port) for h in handles],
        (fallback.host, fallback.port),
        placement=PLACEMENT,
        registry=REGISTRY,
        schema=figure3_database().schema,
        timeout=10,
        **kwargs,
    )


class TestShardedAttribution:
    def test_fanout_spans_carry_shard_labels_and_server_millis(self, fleet):
        expected = connect(figure3_database()).run(
            REGISTRY.lookup("Q1").term
        )
        tracer = Tracer(trace_id="fanout01")
        with _fleet_client(fleet) as client:
            response = client.execute_full("Q1", tracer=tracer)
        assert bag_equal(response["rows"], expected.value)
        (route,) = tracer.spans
        assert route.name == "route"
        assert route.attributes["mode"] == "fanout"
        shards = [s for s in route.children if s.name == "shard"]
        # Post-join attachment in shard order, whatever the race did.
        assert [s.attributes["shard"] for s in shards] == [
            f"0/{SHARDS}",
            f"1/{SHARDS}",
        ]
        for span in shards:
            assert span.duration_ms > 0.0
            assert span.attributes["server_millis"] >= 0.0
            assert span.duration_ms >= span.attributes["server_millis"]
            assert span.attributes["attempts"] == 1

    def test_routed_query_traces_exactly_one_shard(self, fleet):
        tracer = Tracer()
        with _fleet_client(fleet) as client:
            response = client.execute_full(
                "dept_staff", {"dept": "quality"}, tracer=tracer
            )
        assert response["route"].startswith("routed")
        (route,) = tracer.spans
        shards = [s for s in route.children if s.name == "shard"]
        assert len(shards) == 1
        assert shards[0].attributes["shard"] in (
            f"0/{SHARDS}",
            f"1/{SHARDS}",
        )

    def test_shard_spans_say_where_the_server_ran(self, fleet):
        # A traced execute response carries ``inline`` (worker thread vs.
        # the server's event loop); the fan-out copies it onto the span.
        REGISTRY.register("where_it_ran", REGISTRY.lookup("dept_staff").term)
        where = []
        with _fleet_client(fleet) as client:
            for _ in range(2):
                tracer = Tracer(trace_id="where-it-ran")
                client.execute_full(
                    "where_it_ran", {"dept": "Sales"}, tracer=tracer
                )
                (route,) = tracer.spans
                (shard,) = [s for s in route.children if s.name == "shard"]
                where.append(shard.attributes["inline"])
        assert where == [False, True]  # first run on a worker, then light

    def test_subrequest_counters_mirror_fanout_exactly(self, fleet):
        metrics = MetricsRegistry()
        with _fleet_client(fleet, metrics=metrics) as client:
            for _ in range(4):
                client.execute("Q1")
        family = metrics.get("shard_subrequests_total")
        counts = {
            key[0]: child.value for key, child in family.children()
        }
        assert counts == {f"0/{SHARDS}": 4.0, f"1/{SHARDS}": 4.0}
        histo = metrics.get("shard_subrequest_latency_ms")
        observed = sum(
            child.snapshot()["count"] for _key, child in histo.children()
        )
        assert observed == 8

    def test_server_side_trace_ids_correlate(self, fleet):
        # Each shard server validates + echoes the stamped id; a fresh
        # fleet-wide execute with a tracer must not error out anywhere.
        tracer = Tracer(trace_id="wire-correlation-id")
        with _fleet_client(fleet) as client:
            response = client.execute_full("Q2", tracer=tracer)
        assert response["ok"]
        assert len(tracer.spans) == 1


class TestBreakerTransitionMetrics:
    def test_transitions_counted_per_endpoint(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "breaker_transitions_total",
            "transitions",
            labels=("endpoint", "state"),
        )
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout=0.0,
            on_transition=lambda state: family.labels(
                endpoint="0/2", state=state
            ).inc(),
        )
        breaker.record_failure()
        assert family.children() == [] or all(
            child.value == 0 for _k, child in family.children()
        )
        breaker.record_failure()  # trips
        assert family.labels(endpoint="0/2", state="open").value == 1.0
        assert breaker.allow()  # reset_timeout 0 → straight to half-open
        breaker.record_success()
        assert family.labels(endpoint="0/2", state="closed").value == 1.0
        breaker.record_success()  # already closed: no extra transition
        assert family.labels(endpoint="0/2", state="closed").value == 1.0

    def test_sharded_client_subscribes_every_endpoint(self, fleet):
        metrics = MetricsRegistry()
        with _fleet_client(fleet, metrics=metrics) as client:
            labels = {
                client.replica_label(i, r)
                for i, group in enumerate(client._groups)
                for r in range(len(group))
            } | {client.shard_label(None)}
            for breaker in client.breakers:
                assert breaker.on_transition is not None
            # Fire one transition artificially; it lands under a fleet
            # endpoint label.
            client.breakers[0].on_transition("open")
        family = metrics.get("breaker_transitions_total")
        ((key, child),) = family.children()
        assert key[0] in labels
        assert key[1] == "open"
        assert child.value == 1.0


class StubProcess:
    """Pretends to be a ShardProcess: dies and restarts on command."""

    def __init__(self, label: str, fail_starts: int = 0) -> None:
        self.label = label
        self.port = 0
        self.alive = True
        self.fail_starts = fail_starts

    def poll(self):
        return None if self.alive else -9

    def start(self) -> None:
        if self.fail_starts > 0:
            self.fail_starts -= 1
            raise RuntimeError("came up dead")
        self.alive = True

    def kill(self) -> None:
        self.alive = False


class TestSupervisorMetrics:
    def _supervised(self, stub, **kwargs):
        now = [0.0]
        registry = MetricsRegistry()
        supervisor = Supervisor(
            [stub],
            clock=lambda: now[0],
            backoff_base=1.0,
            crash_loop_threshold=3,
            crash_loop_window=100.0,
            metrics=registry,
            **kwargs,
        )
        return supervisor, now, registry

    def test_death_and_restart_counted(self):
        stub = StubProcess("0/2")
        supervisor, now, registry = self._supervised(stub)
        stub.kill()
        supervisor.poll()  # observes the death, schedules the restart
        now[0] = 1.0
        supervisor.poll()  # executes the restart
        deaths = registry.get("supervisor_deaths_total")
        restarts = registry.get("supervisor_restarts_total")
        assert deaths.labels(shard="0/2").value == 1.0
        assert restarts.labels(shard="0/2").value == 1.0
        assert (
            registry.get("supervisor_failed_shards").value == 0.0
        )

    def test_crash_loop_flips_the_failed_gauge(self):
        stub = StubProcess("1/2")
        supervisor, now, registry = self._supervised(stub)
        for round_index in range(3):
            stub.kill()
            supervisor.poll()
            now[0] += 10.0
            supervisor.poll()
        assert (
            registry.get("supervisor_crash_loops_total")
            .labels(shard="1/2")
            .value
            == 1.0
        )
        assert registry.get("supervisor_failed_shards").value == 1.0

    def test_failed_restart_counted(self):
        stub = StubProcess("0/1", fail_starts=1)
        supervisor, now, registry = self._supervised(stub)
        stub.kill()
        supervisor.poll()
        now[0] = 1.0
        supervisor.poll()  # start raises: restart-failed
        assert (
            registry.get("supervisor_restart_failures_total")
            .labels(shard="0/1")
            .value
            == 1.0
        )
