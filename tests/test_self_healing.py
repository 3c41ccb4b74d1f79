"""Self-healing shard groups, proven end to end (PR 7 acceptance).

Three layers:

* :class:`~repro.shard.supervisor.Supervisor` as a pure state machine —
  stub processes and an injected clock drive restart backoff, crash-loop
  detection and quiet-window forgiveness deterministically;
* exactly-once writes under injected connection faults — an ``insert``
  whose acknowledgement is truncated or swallowed (``FaultyProxy``) is
  re-sent with its idempotency key and applies **once**, on both the
  blocking and the asyncio transport (row counts asserted on the store);
* the headline kill/recover differential — replication factor 2,
  ``kill -9`` the primary mid-workload: **zero** queries fall back to
  the full-copy shard (the sibling replica absorbs them, counters
  asserted exactly), the supervisor restarts the dead process, and the
  restarted shard serves every pre-crash insert from its durable store.
"""

from __future__ import annotations

import time

import pytest

from repro.api import connect
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import (
    DeadlineExceededError,
    ServiceConnectionError,
    ShardUnavailableError,
)
from repro.service import (
    RetryPolicy,
    ServiceClient,
    paper_registry,
    serve_in_background,
)
from repro.shard import ShardedServiceClient, Supervisor, shard_for, spawn_group
from repro.values import assert_bag_equal, bag_equal

from .fault_injection import FaultyProxy

PLACEMENT = organisation_placement()
REGISTRY = paper_registry()


# --------------------------------------------------------------------------
# Supervisor state machine: stub processes, injected clock, exact events.


class StubProcess:
    """Pretends to be a ShardProcess: dies and restarts on command."""

    def __init__(self, label: str = "stub/1", fail_starts: int = 0) -> None:
        self.label = label
        self.port = 0
        self.alive = True
        self.starts = 0
        self.fail_starts = fail_starts

    def poll(self):
        return None if self.alive else -9

    def start(self) -> None:
        self.starts += 1
        if self.fail_starts > 0:
            self.fail_starts -= 1
            raise RuntimeError("came up dead")
        self.alive = True

    def kill(self) -> None:
        self.alive = False

    def terminate(self, grace: float = 10.0) -> None:
        self.alive = False


def _supervised(stub, **kwargs):
    now = [0.0]
    defaults = dict(
        clock=lambda: now[0],
        backoff_base=1.0,
        backoff_cap=8.0,
        crash_loop_threshold=4,
        crash_loop_window=100.0,
    )
    defaults.update(kwargs)
    return Supervisor([stub], **defaults), now


class TestSupervisorStateMachine:
    def test_restart_fires_only_after_the_backoff(self):
        stub = StubProcess()
        supervisor, now = _supervised(stub)
        assert supervisor.poll() == []  # healthy: nothing to do

        stub.kill()
        (died,) = supervisor.poll()
        assert died["event"] == "died"
        assert died["returncode"] == -9
        assert died["backoff"] == 1.0

        now[0] = 0.5
        assert supervisor.poll() == []  # backoff not elapsed
        now[0] = 1.0
        (restarted,) = supervisor.poll()
        assert restarted["event"] == "restarted"
        assert stub.alive and stub.starts == 1

    def test_backoff_doubles_per_death_and_caps(self):
        stub = StubProcess()
        # Wide threshold: five deaths inside the window without tripping
        # crash-loop detection, so every death reports its backoff.
        supervisor, now = _supervised(stub, crash_loop_threshold=10)
        backoffs = []
        for round_index in range(5):
            stub.kill()
            (died,) = supervisor.poll()
            backoffs.append(died["backoff"])
            now[0] += died["backoff"]
            (restarted,) = supervisor.poll()
            assert restarted["event"] == "restarted"
            now[0] += 0.001
        assert backoffs == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_crash_loop_marks_failed_and_stops_restarting(self):
        stub = StubProcess()
        supervisor, now = _supervised(stub, crash_loop_threshold=3)
        for _ in range(2):
            stub.kill()
            (died,) = supervisor.poll()
            now[0] += died["backoff"]
            supervisor.poll()
            now[0] += 0.001
        stub.kill()
        (looped,) = supervisor.poll()
        assert looped["event"] == "crash-loop"
        assert looped["deaths"] == 3
        starts_before = stub.starts
        now[0] += 1000.0
        assert supervisor.poll() == []  # failed: left down for good
        assert stub.starts == starts_before
        (status,) = supervisor.status()
        assert status["failed"] and not status["alive"]

    def test_quiet_window_forgives_old_deaths(self):
        stub = StubProcess()
        supervisor, now = _supervised(stub, crash_loop_window=10.0)
        stub.kill()
        (died,) = supervisor.poll()
        now[0] += died["backoff"]
        supervisor.poll()  # restarted

        now[0] += 11.0  # a full quiet window of uptime
        supervisor.poll()
        stub.kill()
        (died_again,) = supervisor.poll()
        # History was forgiven: back to the base backoff, not doubled.
        assert died_again["backoff"] == 1.0

    def test_failed_restart_is_retried_with_more_backoff(self):
        stub = StubProcess(fail_starts=1)
        supervisor, now = _supervised(stub)
        stub.kill()
        (died,) = supervisor.poll()
        now[0] += died["backoff"]
        (failed,) = supervisor.poll()
        assert failed["event"] == "restart-failed"
        assert not stub.alive
        # The next step observes the still-dead process as a new death…
        (died_again,) = supervisor.poll()
        assert died_again["event"] == "died"
        assert died_again["backoff"] == 2.0
        now[0] += died_again["backoff"]
        (restarted,) = supervisor.poll()  # …and this start succeeds.
        assert restarted["event"] == "restarted"
        assert stub.alive

    def test_background_loop_restarts_a_real_stub(self):
        stub = StubProcess()
        supervisor = Supervisor(
            [stub], backoff_base=0.01, check_interval=0.01
        )
        supervisor.run_in_background()
        try:
            stub.kill()
            deadline = time.monotonic() + 5
            while not stub.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert stub.alive
        finally:
            supervisor.stop(drain_grace=0.1)
        assert not stub.alive  # stop() drains the fleet


# --------------------------------------------------------------------------
# Exactly-once writes through injected connection faults, both transports.


def _write_service():
    registry = paper_registry()
    db = figure3_database()
    handle = serve_in_background(connect(db), registry, pool_size=2)
    proxy = FaultyProxy(handle.host, handle.port, label="writes")
    return db, handle, proxy


class TestExactlyOnceWrites:
    def test_sync_truncated_ack_retry_applies_once(self):
        db, handle, proxy = _write_service()
        client = ServiceClient(
            proxy.host,
            proxy.port,
            timeout=2,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
        )
        try:
            before = db.row_count("departments")
            key = "eo-sync-truncate"
            rows = [{"id": 700, "name": "EdgeSync"}]
            proxy.set_mode("truncate")
            # The request frame gets through (the server applies), the
            # acknowledgement is cut mid-frame; the transparent transport
            # retry re-delivers the same key and is cut again.
            with pytest.raises(ServiceConnectionError):
                client.insert("departments", rows, idempotency_key=key)
            assert proxy.faults_injected >= 1

            proxy.set_mode("pass")
            response = client.insert(
                "departments", rows, idempotency_key=key
            )
            assert response["ok"] is True
            assert response["applied"] is False  # journal dedup'd the re-send
            assert response["idempotency_key"] == key
            assert db.row_count("departments") == before + 1
        finally:
            client.close()
            proxy.close()
            handle.stop()

    def test_single_attempt_faulted_ack_then_resend_applies_once(
        self, wire_client
    ):
        # No transparent retry on either driver here: re-sending the key
        # after a lost acknowledgement is the caller's loop.
        db, handle, proxy = _write_service()
        client = wire_client(proxy.host, proxy.port, timeout=2)
        try:
            before = db.row_count("departments")
            key = "eo-single"
            rows = [{"id": 702, "name": "Edge"}]
            proxy.set_mode("truncate")
            with pytest.raises(ServiceConnectionError):
                client.insert("departments", rows, idempotency_key=key)
            proxy.set_mode("pass")
            response = client.insert("departments", rows, idempotency_key=key)
            assert response["ok"] is True
            assert response["applied"] is False
            assert db.row_count("departments") == before + 1

            rows = [{"id": 703, "name": "Drop"}]
            proxy.set_mode("drop")
            with pytest.raises(DeadlineExceededError):
                client.insert(
                    "departments", rows, idempotency_key=key + "-drop",
                    deadline_ms=300,
                )
            proxy.set_mode("pass")
            response = client.insert(
                "departments", rows, idempotency_key=key + "-drop"
            )
            assert response["applied"] is False
            assert db.row_count("departments") == before + 2
        finally:
            proxy.close()
            handle.stop()


# --------------------------------------------------------------------------
# The headline: kill -9 a primary under replication 2 — the replica
# absorbs (zero fallbacks), the supervisor restarts, the durable store
# recovers every pre-crash insert.


class TestReplicaKillRecoverDurable:
    def test_primary_kill_replica_absorbs_restart_recovers(self, tmp_path):
        # Routing facts the exact counters below rest on.
        assert shard_for("ops", 2) == 0
        assert shard_for("research", 2) == 0

        groups, fallback = spawn_group(
            2,
            replication=2,
            pool=1,
            data_dir=tmp_path / "state",
            log_dir=tmp_path / "logs",
        )
        client = ShardedServiceClient(
            [[process.address for process in group] for group in groups],
            fallback.address,
            placement=PLACEMENT.with_replication(2),
            registry=REGISTRY,
            schema=ORGANISATION_SCHEMA,
            timeout=5,
            deadline_ms=5000,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            breaker_threshold=1,
            breaker_reset=0.5,
        )
        # The single-session oracle mirrors every insert the deployment
        # applies, so nested-multiset equality stays exact throughout.
        oracle = connect(figure3_database())
        supervisor = None
        try:
            # --- pre-crash write, over the wire, durable everywhere ----
            response = client.insert(
                "departments",
                [{"id": 900, "name": "ops"}],
                idempotency_key="pre-crash-1",
            )
            oracle.insert("departments", [{"id": 900, "name": "ops"}])
            assert response["applied"] is True
            # fallback + both replicas of owning shard 0 acknowledged
            assert response["endpoints"] == 3

            listing = client.execute("dept_staff", params={"dept": "ops"})
            assert bag_equal(listing, [{"department": "ops", "staff": []}])
            # Routed to shard 0; latencies unmeasured, so the primary
            # wins the tie.
            assert client.replica_requests[0] == [1, 0]

            expected_q4 = oracle.run(NESTED_QUERIES["Q4"]).value
            for _ in range(3):
                assert_bag_equal(
                    client.execute("Q4"), expected_q4, "healthy fan-out"
                )
            assert client.replica_requests == [[4, 0], [3, 0]]

            # --- kill -9 the primary of shard 0, mid-workload ----------
            groups[0][0].kill()

            for _ in range(4):
                assert_bag_equal(
                    client.execute("Q4"), expected_q4, "primary down"
                )
            snapshot = client.stats_snapshot()
            # ZERO queries fell back to the full-copy shard: the sibling
            # replica absorbed the whole workload.
            assert snapshot["fallback_requests"] == 0
            assert snapshot["failover_retries"] == 0
            assert snapshot["failover_reroutes"] == 0
            # Exactly one sub-request was rerouted mid-flight (the first
            # Q4 after the kill); after that the open breaker routes
            # every read to the sibling proactively.
            assert snapshot["replica_failovers"] == 1
            assert snapshot["replica_requests"] == [[4, 4], [7, 0]]
            assert snapshot["retries"] >= 1
            # The logical shard is NOT down — one replica still stands.
            assert snapshot["down_shards"] == []
            assert snapshot["endpoints"]["0/2"]["breaker"]["state"] == "open"
            assert (
                snapshot["endpoints"]["0.1/2"]["breaker"]["state"] == "closed"
            )

            # A write needing the dead primary raises with the shard, op
            # and key named — re-sent whole after recovery (below).
            with pytest.raises(ShardUnavailableError) as caught:
                client.insert(
                    "departments",
                    [{"id": 901, "name": "research"}],
                    idempotency_key="partial-1",
                )
            assert caught.value.shard == "0/2"
            assert caught.value.op == "insert"

            # --- the supervisor restarts the dead process --------------
            supervisor = Supervisor(
                [groups[0][0]], backoff_base=0.05, check_interval=0.05
            )
            (died,) = supervisor.poll()
            assert died["event"] == "died"
            deadline = time.monotonic() + 60
            while groups[0][0].poll() is not None:
                assert time.monotonic() < deadline, "supervisor never restarted"
                supervisor.poll()
                time.sleep(0.05)
            assert supervisor.status()[0]["restarts"] == 1

            # --- the client heals: breaker cooldown + health check -----
            time.sleep(0.6)
            deadline = time.monotonic() + 15
            while not client.check_health().get("0/2"):
                assert time.monotonic() < deadline, "restarted shard not healthy"
                time.sleep(0.2)
            assert client.down_shards() == frozenset()

            # --- durable recovery: the restarted PRIMARY itself serves
            # the pre-crash insert (seed data alone has no "ops") -------
            direct = ServiceClient(
                "127.0.0.1", groups[0][0].port, timeout=5
            )
            try:
                recovered = direct.execute(
                    "dept_staff", params={"dept": "ops"}
                )
            finally:
                direct.close()
            assert bag_equal(
                recovered, [{"department": "ops", "staff": []}]
            )

            # --- the failed write converges on redelivery --------------
            response = client.insert(
                "departments",
                [{"id": 901, "name": "research"}],
                idempotency_key="partial-1",
            )
            oracle.insert("departments", [{"id": 901, "name": "research"}])
            # The fallback applied it during the failed attempt; the
            # journal makes the redelivery a no-op there while the
            # replicas catch up.
            assert response["ok"] is True
            assert response["applied"] is False
            assert response["endpoints"] == 3

            expected_q4 = oracle.run(NESTED_QUERIES["Q4"]).value
            assert_bag_equal(
                client.execute("Q4"), expected_q4, "converged after recovery"
            )
        finally:
            client.close()
            if supervisor is not None:
                supervisor.stop(drain_grace=2.0)
            for process in [fallback] + [p for g in groups for p in g]:
                process.close()
            oracle.close()
