"""Fault-tolerant serving, proven by deterministic fault injection.

The differential property this suite drives end to end: **under any
injected single-shard failure, a sharded query either returns a result
nested-multiset-equal to single-session execution (failover) or raises a
structured error within its deadline — never a hang, never a silently
wrong answer.**

Layers, smallest to largest:

* the resilience primitives (``Deadline`` / ``RetryPolicy`` /
  ``CircuitBreaker``) under injectable clocks — pure state-machine tests;
* one client against one server behind a :class:`~tests.fault_injection.
  FaultyProxy`: desync-on-truncated-frame regression, uniform timeouts,
  client- and server-side deadlines, retries, breaker trip/heal;
* server admission control (``OVERLOADED`` shedding, ping under
  saturation) and graceful drain (in-flight finishes, new connects
  refused);
* the sharded deployment: proactive + reactive failover with exact
  counters, per-shard error attribution, an in-process down-shard hammer,
  ``serve`` *subprocess* kill/restart, and the hypothesis property over
  random (query × fault × shard) combinations.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sqlite3
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceConnectionError,
    ServiceError,
    ShardUnavailableError,
)
from repro.service import (
    DEFAULT_TIMEOUT,
    AsyncServiceClient,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    ServiceClient,
    paper_registry,
    serve_in_background,
)
from repro.shard import (
    ShardedDatabase,
    ShardedServiceClient,
    connect_sharded,
    endpoint_session,
    shard_for,
)
from repro.values import assert_bag_equal, bag_equal

from .fault_injection import FaultyProxy, ShardProcess, register_slow

pytestmark = pytest.mark.deadline

PLACEMENT = organisation_placement()
REGISTRY = paper_registry()

_settings = settings(
    max_examples=int(os.environ.get("REPRO_FAULT_EXAMPLES", "8")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_SINGLE: dict = {}


def _single():
    if "session" not in _SINGLE:
        _SINGLE["session"] = connect(figure3_database())
    return _SINGLE["session"]


def _expected(name: str, params: dict | None = None):
    key = (name, str(params))
    if key not in _SINGLE:
        term = (
            REGISTRY.lookup(name).term
            if name in ("staff_above", "dept_staff")
            else NESTED_QUERIES[name]
        )
        _SINGLE[key] = _single().run(term, params=params).value
    return _SINGLE[key]


# --------------------------------------------------------------------------
# Resilience primitives: pure, clock-injected state machines.


class TestDeadline:
    def test_unbounded_never_expires_and_caps_pass_through(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() is None
        assert deadline.remaining(cap=7.5) == 7.5
        deadline.check("anything")  # no raise

    def test_bounded_counts_down_on_the_injected_clock(self):
        now = [100.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(2.0)
        assert deadline.remaining(cap=0.5) == 0.5
        now[0] += 1.5
        assert deadline.remaining() == pytest.approx(0.5)
        assert deadline.remaining(cap=2.0) == pytest.approx(0.5)
        now[0] += 1.0
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="2000ms.*probing"):
            deadline.check("probing")

    def test_after_millis_round_trips(self):
        assert Deadline.after_millis(250).millis == 250
        assert Deadline.after_millis(None).millis is None


class TestRetryPolicy:
    def test_backoff_is_exponential_capped_and_jittered_downward(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.5, multiplier=2.0, jitter=0.5
        )
        import random

        rng = random.Random(7)
        raw = [0.1, 0.2, 0.4, 0.5, 0.5]  # exponential, capped at max_delay
        for attempt, ceiling in enumerate(raw):
            delay = policy.backoff(attempt, rng)
            assert ceiling * 0.5 <= delay <= ceiling

    def test_none_means_one_attempt(self):
        assert RetryPolicy.none().attempts == 1


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens_on_timer(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout=10.0, clock=lambda: now[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # not yet at the threshold
        breaker.record_failure()
        assert breaker.state == "open" and breaker.is_open
        assert not breaker.allow() and breaker.fast_failures == 1
        now[0] += 10.0
        assert breaker.state == "half-open" and not breaker.is_open
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # concurrent callers wait for the probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.trips == 1

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] += 5.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        now[0] += 4.9
        assert breaker.state == "open"  # cooldown restarted at the probe
        now[0] += 0.2
        assert breaker.state == "half-open"

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# --------------------------------------------------------------------------
# One client, one server, one proxy: transport faults.


@pytest.fixture(scope="module")
def proxied_service():
    """Server + FaultyProxy; tests reset the proxy to ``pass`` themselves."""
    session = connect(figure3_database())
    registry = paper_registry()
    register_slow(registry, "slow", 0.8)
    handle = serve_in_background(session, registry, pool_size=2)
    proxy = FaultyProxy(handle.host, handle.port, label="service")
    try:
        yield handle, proxy
    finally:
        proxy.close()
        handle.stop()


def test_closing_a_proxy_ends_its_accept_thread():
    """``close`` wakes the accept loop blocked on the listener, so the
    thread is gone when it returns (not left behind by a timed-out join)."""
    proxy = FaultyProxy("127.0.0.1", 1, label="idle")  # never dialled
    ident = proxy._accept_thread.ident
    # Wait until the loop is blocked in accept() — the case to wake.
    for _ in range(1000):
        frame = sys._current_frames().get(ident)
        if frame is not None and frame.f_code.co_name == "accept":
            break
        time.sleep(0.005)
    else:
        pytest.fail("the accept loop never reached accept()")
    time.sleep(0.1)  # the few bytecodes from the frame into the syscall
    proxy.close()
    assert not proxy._accept_thread.is_alive()


class TestDesyncRegression:
    def test_truncated_frame_then_next_request_gets_the_right_answer(
        self, proxied_service, wire_client
    ):
        # The PR 4 bug: a partial read left buffered bytes on the socket,
        # so the *next* request read a stale response.  Now any transport
        # error drops the connection; the next request reconnects clean.
        _handle, proxy = proxied_service
        proxy.set_mode("pass")
        client = wire_client(proxy.host, proxy.port, timeout=5)
        assert bag_equal(client.execute("Q1"), _expected("Q1"))
        proxy.set_mode("truncate")
        with pytest.raises(ServiceConnectionError):
            client.execute("Q2")
        proxy.set_mode("pass")
        assert bag_equal(client.execute("Q1"), _expected("Q1"))
        assert proxy.faults_injected >= 1
        assert client.reconnects >= 1

    def test_transparent_retry_reconnects_within_one_call(
        self, proxied_service
    ):
        handle, proxy = proxied_service
        proxy.set_mode("pass")
        with ServiceClient(
            proxy.host,
            proxy.port,
            timeout=5,
            retry=RetryPolicy(attempts=3, base_delay=0.01),
        ) as client:
            assert bag_equal(client.execute("Q1"), _expected("Q1"))
            # Cut the live connection: the proxy kills both sides, so the
            # next request hits a dead socket, reconnects and retries.
            proxy.set_mode("refuse")
            proxy.set_mode("pass")
            assert bag_equal(client.execute("Q2"), _expected("Q2"))
            assert client.retries >= 1

    def test_timed_out_response_is_never_misdelivered(
        self, proxied_service, wire_client
    ):
        # Response delayed past the client timeout: the first request
        # fails, and its late response must NOT answer the next request.
        handle, proxy = proxied_service
        proxy.set_mode("delay")
        proxy.delay = 0.6
        client = wire_client(proxy.host, proxy.port, timeout=0.2)
        with pytest.raises(ServiceConnectionError):
            client.execute("Q1")
        proxy.set_mode("pass")
        time.sleep(0.7)  # the stale response arrives... nowhere
        response = client.execute_full("Q3")
        assert response["query"] == "Q3"
        assert bag_equal(response["rows"], _expected("Q3"))


@pytest.fixture
def silent_peer():
    """A listening socket nobody accepts from: connects complete in the
    kernel's backlog, and then the peer neither reads nor answers."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        yield listener.getsockname()


class TestUniformTimeouts:
    """``timeout=`` bounds the connect and every read *and write*; a
    deadline only tightens it; and a wait that times out is a deadline
    error iff the deadline has expired.  One cell per driver."""

    def test_default_timeout_is_documented_and_uniform(self):
        blocking = ServiceClient("127.0.0.1", 1, connect_now=False)
        asyncio_client = AsyncServiceClient("127.0.0.1", 1)
        assert blocking.timeout == asyncio_client.timeout == DEFAULT_TIMEOUT == 30.0

    def test_read_timeout_and_deadline(self, silent_peer, wire_client):
        # The I/O timeout fires long before the deadline: a connection
        # failure, not a deadline error ...
        client = wire_client(*silent_peer, timeout=0.2, deadline_ms=60000)
        started = time.monotonic()
        with pytest.raises(ServiceConnectionError):
            client.execute("Q1")
        # ... and a deadline tighter than the timeout is what expires.
        with pytest.raises(DeadlineExceededError):
            wire_client(*silent_peer, timeout=5).execute("Q1", deadline_ms=150)
        assert time.monotonic() - started < 2.0

    def test_write_to_a_peer_that_stops_reading_is_bounded(
        self, silent_peer, wire_client
    ):
        rows = [{"id": i, "name": "x" * 1000} for i in range(16000)]  # ≈16 MB
        started = time.monotonic()
        with pytest.raises(ServiceConnectionError):
            wire_client(*silent_peer, timeout=0.2).insert("departments", rows)
        with pytest.raises(DeadlineExceededError):
            wire_client(*silent_peer, timeout=5).insert(
                "departments", rows, deadline_ms=300
            )
        assert time.monotonic() - started < 4.0

    def test_deadline_is_checked_before_connecting(self, silent_peer, wire_client):
        client = wire_client(*silent_peer, timeout=0.25)
        with pytest.raises(DeadlineExceededError, match="connecting"):
            client.ping(deadline_ms=0.0001)

    def test_async_connect_timeout(self, monkeypatch):
        async def never_connect(*args, **kwargs):
            await asyncio.sleep(60)

        async def go():
            monkeypatch.setattr(asyncio, "open_connection", never_connect)
            client = AsyncServiceClient("127.0.0.1", 9, timeout=0.1)
            with pytest.raises(ServiceConnectionError, match="timed out"):
                await client.connect()

        asyncio.run(go())


class TestDeadlines:
    def test_server_side_default_deadline(self):
        session = connect(figure3_database())
        registry = paper_registry()
        register_slow(registry, "slow", 0.8)
        handle = serve_in_background(
            session, registry, pool_size=1, default_deadline_ms=150
        )
        try:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(DeadlineExceededError, match="server-side"):
                    client.execute("slow")
            assert handle.server.metrics.get("deadline_exceeded_total").value == 1
            # The straggler's lease is reclaimed: the next query runs fine.
            with ServiceClient(handle.host, handle.port) as client:
                assert bag_equal(client.execute("Q1"), _expected("Q1"))
        finally:
            handle.stop()


class TestCircuitBreakerIntegration:
    def test_breaker_trips_then_fails_fast_then_heals(self, proxied_service):
        handle, proxy = proxied_service
        proxy.set_mode("refuse")
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.2)
        client = ServiceClient(
            proxy.host,
            proxy.port,
            timeout=5,
            retry=RetryPolicy.none(),
            breaker=breaker,
            connect_now=False,
        )
        try:
            for _ in range(2):
                with pytest.raises(ServiceConnectionError):
                    client.execute("Q1")
            assert breaker.state == "open"
            started = time.monotonic()
            with pytest.raises(ServiceConnectionError) as excinfo:
                client.execute("Q1")
            assert excinfo.value.kind == "CircuitOpen"
            assert time.monotonic() - started < 0.05  # no socket was touched
            # Cooldown elapses, the endpoint heals, a probe closes it.
            proxy.set_mode("pass")
            time.sleep(0.25)
            assert bag_equal(client.execute("Q1"), _expected("Q1"))
            assert breaker.state == "closed" and breaker.trips == 1
        finally:
            client.close()
            proxy.set_mode("pass")


# --------------------------------------------------------------------------
# Admission control and graceful drain.


class TestAdmissionControl:
    def test_overloaded_sheds_immediately_and_ping_survives(self):
        session = connect(figure3_database())
        registry = paper_registry()
        register_slow(registry, "slow", 0.8)
        handle = serve_in_background(
            session, registry, pool_size=1, max_pending=1
        )
        outcomes: dict = {}

        def first():
            with ServiceClient(handle.host, handle.port) as client:
                outcomes["first"] = client.execute("slow")

        try:
            thread = threading.Thread(target=first)
            thread.start()
            time.sleep(0.3)  # the slow execute is admitted and in flight
            with ServiceClient(handle.host, handle.port) as client:
                started = time.monotonic()
                with pytest.raises(OverloadedError, match="admission limit"):
                    client.execute("slow")
                # Shed at admission: an error frame *now*, not a timeout.
                assert time.monotonic() - started < 0.3
                # Health checks keep answering exactly when saturated.
                assert client.ping()["pong"] is True
                stats = client.stats()["server"]
                assert stats["max_pending"] == 1
                assert stats["shed"] == 1
            thread.join(timeout=10)
            assert bag_equal(outcomes["first"], _expected("Q1"))
            assert handle.server.metrics.get("requests_shed_total").value == 1
        finally:
            handle.stop()


class TestGracefulShutdown:
    def test_in_flight_completes_and_new_connects_are_refused(self):
        session = connect(figure3_database())
        registry = paper_registry()
        register_slow(registry, "slow", 0.8)
        handle = serve_in_background(session, registry, pool_size=1)
        outcomes: dict = {}

        def in_flight():
            with ServiceClient(handle.host, handle.port) as client:
                outcomes["rows"] = client.execute("slow")

        thread = threading.Thread(target=in_flight)
        thread.start()
        time.sleep(0.3)  # request is dispatched server-side
        handle.stop()  # graceful drain: waits for the answer to flush
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert bag_equal(outcomes["rows"], _expected("Q1"))
        with pytest.raises(OSError):
            ServiceClient(handle.host, handle.port, timeout=2)


# --------------------------------------------------------------------------
# The sharded deployment: failover, attribution, exact counters.

SHARDS = 2

_CLUSTER: dict = {}


def _cluster():
    """2 partition servers + full-copy fallback, each behind a proxy."""
    if not _CLUSTER:
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, SHARDS)
        handles = [
            serve_in_background(
                endpoint_session(db, PLACEMENT), REGISTRY, pool_size=2,
                shard_label=f"{index}/{SHARDS}",
            )
            for index, db in enumerate(sdb.shards)
        ]
        fallback = serve_in_background(
            endpoint_session(sdb.full, PLACEMENT), REGISTRY, pool_size=2,
            shard_label=f"full/{SHARDS}",
        )
        proxies = [
            FaultyProxy(handle.host, handle.port, label=f"shard-{index}")
            for index, handle in enumerate(handles)
        ] + [FaultyProxy(fallback.host, fallback.port, label="fallback")]
        _CLUSTER["handles"] = handles + [fallback]
        _CLUSTER["proxies"] = proxies
    return _CLUSTER["proxies"]


def _cluster_client(**kwargs) -> ShardedServiceClient:
    proxies = _cluster()
    defaults = dict(
        placement=PLACEMENT,
        registry=REGISTRY,
        schema=ORGANISATION_SCHEMA,
        timeout=5,
        retry=RetryPolicy(attempts=2, base_delay=0.01),
        breaker_threshold=1,
        breaker_reset=60.0,
    )
    defaults.update(kwargs)
    return ShardedServiceClient(
        [(proxy.host, proxy.port) for proxy in proxies[:-1]],
        (proxies[-1].host, proxies[-1].port),
        **defaults,
    )


def _reset_cluster() -> None:
    for proxy in _CLUSTER.get("proxies", ()):
        proxy.set_mode("pass")


@pytest.fixture(scope="module", autouse=True)
def _teardown_cluster():
    yield
    for proxy in _CLUSTER.get("proxies", ()):
        proxy.close()
    for handle in _CLUSTER.get("handles", ()):
        handle.stop()
    _CLUSTER.clear()
    for key in list(_SINGLE):
        value = _SINGLE.pop(key)
        if key == "session":
            value.close()


class TestWireFailover:
    def test_reactive_then_proactive_failover_with_exact_counters(self):
        proxies = _cluster()
        _reset_cluster()
        with _cluster_client(deadline_ms=2000) as client:
            assert bag_equal(client.execute("Q4"), _expected("Q4"))
            assert client.failover_retries == 0

            proxies[0].set_mode("refuse")
            # Reactive: shard 0 dies mid-run; the whole query re-runs on
            # the fallback and the answer is still exactly right.
            response = client.execute_full("Q4")
            assert_bag_equal(response["rows"], _expected("Q4"), "reactive")
            assert response["route"] == "failover:fanout"
            assert response["shards"] == []
            assert response["stats"]["failover_retries"] == 1
            assert client.failover_retries == 1

            # The breaker is open now: the next run diverts *before*
            # touching the dead endpoint.
            assert client.down_shards() == frozenset({0})
            response = client.execute_full("Q4")
            assert_bag_equal(response["rows"], _expected("Q4"), "proactive")
            assert response["route"] == "failover:fanout"
            assert response["stats"]["failover_reroutes"] == 1
            assert client.failover_reroutes == 1
        _reset_cluster()

    def test_routed_query_fails_over_only_when_its_owner_dies(self):
        proxies = _cluster()
        _reset_cluster()
        dept = "Research"
        owner = shard_for(dept, SHARDS)
        other = 1 - owner
        with _cluster_client(deadline_ms=2000) as client:
            proxies[other].set_mode("refuse")
            # The dead shard is not on this route: no failover needed.
            response = client.execute_full("dept_staff", params={"dept": dept})
            assert response["route"] == f"routed:{owner}"
            assert_bag_equal(
                response["rows"], _expected("dept_staff", {"dept": dept}), dept
            )
            assert client.failover_retries == client.failover_reroutes == 0

            proxies[other].set_mode("pass")
            proxies[owner].set_mode("refuse")
            response = client.execute_full("dept_staff", params={"dept": dept})
            assert response["route"] == f"failover:routed:{owner}"
            assert_bag_equal(
                response["rows"], _expected("dept_staff", {"dept": dept}), dept
            )
            assert client.failover_retries == 1
        _reset_cluster()

    def test_shard_unavailable_names_shard_and_op(self):
        proxies = _cluster()
        _reset_cluster()
        with _cluster_client(deadline_ms=1000) as client:
            for proxy in proxies:
                proxy.set_mode("refuse")
            with pytest.raises(ShardUnavailableError) as excinfo:
                client.execute("Q4")
            error = excinfo.value
            assert error.shard == f"0/{SHARDS}"
            assert error.op == "execute"
            assert "fallback could not stand in" in str(error)
        _reset_cluster()

    def test_health_checks_observe_and_heal(self):
        proxies = _cluster()
        _reset_cluster()
        with _cluster_client(breaker_reset=0.2) as client:
            verdicts = client.check_health()
            assert verdicts == {
                f"0/{SHARDS}": True,
                f"1/{SHARDS}": True,
                f"full/{SHARDS}": True,
            }
            proxies[1].set_mode("refuse")
            verdicts = client.check_health()
            assert verdicts[f"1/{SHARDS}"] is False
            assert client.down_shards() == frozenset({1})
            proxies[1].set_mode("pass")
            time.sleep(0.25)  # breaker cooldown → half-open
            verdicts = client.check_health()  # the ping is the probe
            assert verdicts[f"1/{SHARDS}"] is True
            assert client.down_shards() == frozenset()
        _reset_cluster()

    def test_sequential_workload_with_one_shard_down_counts_exactly(self):
        proxies = _cluster()
        _reset_cluster()
        workload = [
            ("Q4", None),  # fanout → reactive failover (first touch)
            ("Q4", None),  # fanout → proactive reroute
            ("Q3", None),  # single → live shard answers
            ("Q5", None),  # fallback by analysis (not a failover)
            ("dept_staff", {"dept": "Research"}),
            ("dept_staff", {"dept": "Sales"}),
        ]
        down = 0
        with _cluster_client(deadline_ms=2000) as client:
            proxies[down].set_mode("refuse")
            for name, params in workload:
                rows = client.execute(name, params=params)
                assert bag_equal(rows, _expected(name, params)), name

            owners = {
                dept: shard_for(dept, SHARDS) for dept in ("Research", "Sales")
            }
            expected_reroutes = 1 + sum(
                1 for dept, owner in owners.items() if owner == down
            )
            expected_retries = 1  # only the very first touch is reactive
            expected_shard_requests = [0] * SHARDS
            for dept, owner in owners.items():
                if owner != down:
                    expected_shard_requests[owner] += 1
            # Q3 is replicated-only: the lowest *live* shard answers.
            single_target = next(i for i in range(SHARDS) if i != down)
            expected_shard_requests[single_target] += 1
            assert client.failover_retries == expected_retries
            assert client.failover_reroutes == expected_reroutes
            assert client.shard_requests == expected_shard_requests
            # Every failover and Q5 landed on the fallback.
            assert client.fallback_requests == (
                expected_retries + expected_reroutes + 1
            )
        _reset_cluster()

    def test_stats_survive_a_dead_shard(self):
        proxies = _cluster()
        _reset_cluster()
        with _cluster_client() as client:
            proxies[0].set_mode("refuse")
            report = client.stats()
            assert report["shards"][0] is None  # dead, not an exception
            assert report["shards"][1]["ok"]
            assert report["client"]["breakers"][0]["state"] in (
                "open",
                "closed",  # stats() itself may have been the first failure
            )
        _reset_cluster()


class TestSessionFailover:
    """Whole-query failover through the session surface, once per
    endpoint kind (``sharded_session``); the local-only cells are what a
    dying *store* adds, and the shared-session hammer."""

    def test_proactive_reroute_after_mark_shard_down(self, sharded_session):
        session = sharded_session(3)
        session.client.mark_shard_down(1)
        assert session.client.down_shards() == frozenset({1})
        result = session.run("Q4")
        assert_bag_equal(result.value, _expected("Q4"), "rerouted fanout")
        assert result.route == "failover:fanout"
        assert result.stats.failover_reroutes == 1
        assert session.run_counts() == {"per_shard": [0, 0, 0], "fallback": 1}
        snapshot = session.client.stats_snapshot()
        assert snapshot["failover_reroutes"] == 1
        assert snapshot["failover_retries"] == 0
        assert snapshot["down_shards"] == [1]
        session.client.mark_shard_up(1)
        assert session.run("Q4").route == "fanout"

    def test_reactive_failover_reruns_on_the_fallback(
        self, sharded_session, monkeypatch
    ):
        session = sharded_session(3)

        def dead(*args, **kwargs):
            raise ServiceConnectionError("shard 1 is gone")

        monkeypatch.setattr(session.client._groups[1][0], "execute_full", dead)
        result = session.run("Q4", trace=True)
        assert_bag_equal(result.value, _expected("Q4"), "reactive")
        assert result.route == "failover:fanout"
        assert "1/3 failed mid-run" in result.reason
        assert result.stats.failover_retries == 1
        # Shards 0 and 2 answered, but a discarded fan-out counts nowhere.
        assert session.run_counts() == {"per_shard": [0, 0, 0], "fallback": 1}
        snapshot = session.client.stats_snapshot()
        assert snapshot["failover_retries"] == 1
        assert snapshot["failover_reroutes"] == 0
        # One route span per attempt; only the one that answered has a
        # shard child.
        (query,) = result.trace.spans
        failed, rerun = query.children
        assert failed.children == []
        assert [c.attributes["shard"] for c in rerun.children] == ["full/3"]

    def test_unavailable_fallback_raises_shard_unavailable(
        self, sharded_session
    ):
        session = sharded_session(2)
        sharded_session.break_fallback(session)
        # Q5 needs the fallback (non-distributive): no stand-in exists.
        with pytest.raises(ShardUnavailableError) as excinfo:
            session.run("Q5")
        assert excinfo.value.shard == "full/2"
        assert excinfo.value.op == "execute"
        # A fan-out does not need it.
        assert session.run("Q4").route == "fanout"

    def test_local_store_failure_trips_the_breaker_and_a_ping_heals(
        self, monkeypatch
    ):
        session = connect_sharded(
            figure3_database(), placement=PLACEMENT, shards=3
        )
        try:
            def gone(*args, **kwargs):
                raise sqlite3.OperationalError("shard 1 store is gone")

            monkeypatch.setattr(session.db.shards[1], "execute_cursor", gone)
            result = session.run(NESTED_QUERIES["Q4"])
            assert_bag_equal(result.value, _expected("Q4"), "reactive")
            assert result.stats.failover_retries == 1
            # The culprit's breaker is open: later runs divert up front.
            assert session.client.down_shards() == frozenset({1})
            result = session.run(NESTED_QUERIES["Q4"])
            assert result.route == "failover:fanout"
            assert result.stats.failover_reroutes == 1
            # Recovery: health checks probe the (healthy) store directly.
            monkeypatch.undo()
            assert session.client.check_health() == {
                "0/3": True, "1/3": True, "2/3": True, "full/3": True,
            }
            assert session.client.down_shards() == frozenset()
            assert session.run(NESTED_QUERIES["Q4"]).route == "fanout"
        finally:
            session.close()

    def test_down_shard_hammer_exact_counters(self):
        threads_n, runs_n, shards_n = 4, 6, 3
        workload = (
            ("dept_staff", {"dept": "Product"}),
            ("Q4", None),
            ("dept_staff", {"dept": "Sales"}),
            ("Q3", None),
            ("Q5", None),
            ("dept_staff", {"dept": "Research"}),
        )
        down = 1
        session = connect_sharded(
            figure3_database(), placement=PLACEMENT, shards=shards_n
        )
        session.client.mark_shard_down(down)
        dept_staff = REGISTRY.lookup("dept_staff").term
        failures: list = []

        def worker(thread_index: int) -> None:
            try:
                for run_index in range(runs_n):
                    name, params = workload[
                        (thread_index + run_index) % len(workload)
                    ]
                    term = (
                        dept_staff
                        if name == "dept_staff"
                        else NESTED_QUERIES[name]
                    )
                    result = session.run(term, params=params)
                    if not bag_equal(result.value, _expected(name, params)):
                        failures.append((name, params, result.route))
            except Exception as error:  # noqa: BLE001 — collect, don't die
                failures.append((thread_index, repr(error)))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures

        per_shard = [0] * shards_n
        reroutes = routed = singles = fallbacks = 0
        for thread_index in range(threads_n):
            for run_index in range(runs_n):
                name, params = workload[
                    (thread_index + run_index) % len(workload)
                ]
                if name == "dept_staff":
                    owner = shard_for(params["dept"], shards_n)
                    if owner == down:
                        reroutes += 1
                    else:
                        per_shard[owner] += 1
                        routed += 1
                elif name == "Q4":
                    reroutes += 1  # fanout cannot run with a shard down
                elif name == "Q3":
                    live = next(i for i in range(shards_n) if i != down)
                    per_shard[live] += 1
                    singles += 1
                else:  # Q5
                    fallbacks += 1
        counts = session.run_counts()
        stats = session.client.stats_snapshot()
        assert counts["per_shard"] == per_shard
        assert counts["fallback"] == reroutes + fallbacks
        assert stats["failover_reroutes"] == reroutes
        assert stats["failover_retries"] == 0  # every diversion was planned
        assert stats["routed"] == routed
        assert stats["singles"] == singles
        assert stats["fallbacks"] == fallbacks
        assert stats["fanouts"] == 0
        assert stats["down_shards"] == [down]
        session.close()


# --------------------------------------------------------------------------
# Whole processes dying: serve --shard i/n subprocesses, kill + restart.


@pytest.mark.slow
class TestSubprocessShards:
    def test_kill_failover_restart_recover(self):
        procs = [
            ShardProcess(shard=f"{index}/2") for index in range(2)
        ]
        fallback_proc = ShardProcess(shard="full/2")
        registry = paper_registry()
        client = ShardedServiceClient(
            [("127.0.0.1", proc.port) for proc in procs],
            ("127.0.0.1", fallback_proc.port),
            placement=PLACEMENT,
            registry=registry,
            schema=ORGANISATION_SCHEMA,
            timeout=5,
            deadline_ms=5000,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            breaker_threshold=1,
            breaker_reset=0.5,
        )
        try:
            assert bag_equal(client.execute("Q4"), _expected("Q4"))
            assert client.failover_retries == 0

            procs[0].kill()  # SIGKILL: the OS resets its connections
            response = client.execute_full("Q4")
            assert_bag_equal(response["rows"], _expected("Q4"), "shard killed")
            assert response["route"].startswith("failover:")
            assert client.failover_retries == 1

            # While it is down, routes divert proactively.
            response = client.execute_full("Q4")
            assert response["route"] == "failover:fanout"
            assert_bag_equal(response["rows"], _expected("Q4"), "still down")

            procs[0].restart()
            time.sleep(0.6)  # breaker cooldown
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.check_health()["0/2"]:
                    break
                time.sleep(0.2)
            assert client.down_shards() == frozenset()
            response = client.execute_full("Q4")
            assert response["route"] == "fanout"
            assert_bag_equal(response["rows"], _expected("Q4"), "recovered")
        finally:
            client.close()
            for proc in [*procs, fallback_proc]:
                proc.close()


# --------------------------------------------------------------------------
# The headline property: random query × random single-shard fault.

FAULT_MODES = ("pass", "refuse", "drop", "truncate", "delay")
PROPERTY_QUERIES = tuple(sorted(NESTED_QUERIES)) + ("staff_above", "dept_staff")
DEADLINE_MS = 500.0
_WARMED: set = set()


def _warm(name: str, params: dict | None) -> None:
    """First-touch compiles are real work — keep them out of the measured
    fault window by warming every server through healthy proxies."""
    if name in _WARMED:
        return
    _reset_cluster()
    with _cluster_client() as warm:
        warm.execute(name, params=params)
    _WARMED.add(name)


@given(data=st.data())
@_settings
def test_single_shard_fault_differential(data):
    name = data.draw(st.sampled_from(PROPERTY_QUERIES), label="query")
    params = None
    if name == "staff_above":
        params = {
            "min_salary": data.draw(
                st.sampled_from([0, 900, 50_000]), label="min_salary"
            )
        }
    elif name == "dept_staff":
        params = {
            "dept": data.draw(
                st.sampled_from(["Product", "Quality", "Research", "Sales"]),
                label="dept",
            )
        }
    mode = data.draw(st.sampled_from(FAULT_MODES), label="fault")
    target = data.draw(st.integers(0, SHARDS - 1), label="shard")
    expected = _expected(name, params)
    _warm(name, params)

    proxies = _cluster()
    _reset_cluster()
    proxies[target].set_mode(mode)
    client = _cluster_client(deadline_ms=DEADLINE_MS)
    started = time.monotonic()
    try:
        rows = client.execute(name, params=params)
    except ServiceError as error:
        # A structured, attributable error is an acceptable outcome —
        # a bare OSError or a hang is not.
        assert isinstance(
            error,
            (
                ShardUnavailableError,
                ServiceConnectionError,
                DeadlineExceededError,
                OverloadedError,
            ),
        ), error
    else:
        # Whatever the fault, an answered query is *exactly* right.
        assert bag_equal(rows, expected), (name, params, mode, target)
    finally:
        elapsed = time.monotonic() - started
        client.close()
        _reset_cluster()
    # Never a hang: primary + failover each get one deadline, plus real
    # slack for connect/retry overhead on a loaded CI box.
    assert elapsed < 2 * (DEADLINE_MS / 1000.0) + 2.0, (
        name, mode, target, elapsed,
    )
