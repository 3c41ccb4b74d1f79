"""Cluster-lifecycle regressions: no orphans on failed spawn, idempotent
and crash-tolerant shutdown.

Two bugs blocked making process groups the default sharded substrate:

1. **Spawn leak** — ``spawn_group`` brings children up in a loop (then
   one by one, now launched together and awaited in order); a later
   shard failing to spawn/bind raised out of the loop with the earlier
   children alive and unreferenced.  Every ``connect_sharded(processes=
   True)`` with a bad port or a slow boot leaked real OS processes.  Now
   every process object is tracked *before* any subprocess exists, and
   any failure kills and reaps the whole partial group before the
   exception propagates.
2. **Double-stop / stop-after-crash** — teardown paths (context-manager
   exit, ``finally`` blocks, test harnesses) routinely close twice, and
   children killed by fault injection are already dead when the drain
   runs.  ``Supervisor.stop``, ``SupervisedDeployment.close``,
   ``ShardedServiceClient.close`` and ``ShardedSession.close`` (over a
   process group or over local endpoints) are all idempotent and skip
   dead children instead of raising or waiting out the drain grace.
"""

from __future__ import annotations

import time

import pytest

from repro.data.organisation import figure3_database, organisation_placement
from repro.service.registry import paper_registry
from repro.shard import connect_sharded
from repro.shard.supervisor import (
    ShardProcess,
    SupervisedDeployment,
    Supervisor,
    spawn_group,
)

pytestmark = pytest.mark.deadline

SCHEMA = figure3_database().schema


# --------------------------------------------------------------------------
# Satellite 1: a failed spawn must not strand live subprocesses.


class TestSpawnGroupLeak:
    def test_partial_group_is_killed_and_reaped_on_spawn_failure(
        self, monkeypatch
    ):
        spawned: list[ShardProcess] = []
        original = ShardProcess._await_ready

        def failing_ready(self, timeout):
            spawned.append(self)
            if self.shard == "1/2":
                # The last child of the group fails its readiness probe
                # (stolen port, boot hang, bad argv — all land here).
                raise RuntimeError("planted: shard 1/2 never became ready")
            return original(self, timeout)

        monkeypatch.setattr(ShardProcess, "_await_ready", failing_ready)
        with pytest.raises(RuntimeError, match="planted"):
            spawn_group(2, scale=4, rows=2)

        # Every child that was spawned — the healthy earlier ones AND the
        # one that failed — is dead and reaped: no orphan PIDs.
        assert len(spawned) == 3  # fallback + 0/2 + 1/2
        for process in spawned:
            assert process.process is not None, process.label
            assert process.process.poll() is not None, (
                f"{process.label} (pid {process.process.pid}) left running "
                f"after spawn_group raised"
            )

    def test_the_fleet_boots_side_by_side(self, monkeypatch):
        # Every child is launched before the first readiness probe, so
        # interpreter start-up and imports overlap; probes keep fleet order.
        events: list[tuple[str, str]] = []
        launch, ready = ShardProcess.launch, ShardProcess._await_ready

        def recording_launch(self):
            events.append(("launch", self.shard))
            return launch(self)

        def recording_ready(self, timeout):
            events.append(("ready", self.shard))
            return ready(self, timeout)

        monkeypatch.setattr(ShardProcess, "launch", recording_launch)
        monkeypatch.setattr(ShardProcess, "_await_ready", recording_ready)
        groups, fallback = spawn_group(2, scale=4, rows=2)
        try:
            fleet = ["full/2", "0/2", "1/2"]
            assert events == [("launch", shard) for shard in fleet] + [
                ("ready", shard) for shard in fleet
            ]
            assert all(
                process.poll() is None
                for process in [fallback, *groups[0], *groups[1]]
            )
        finally:
            for process in [fallback, *groups[0], *groups[1]]:
                process.kill()

    def test_first_spawn_failure_leaves_nothing(self, monkeypatch):
        spawned: list[ShardProcess] = []

        def fail_immediately(self, timeout):
            spawned.append(self)
            raise RuntimeError("planted: nothing comes up")

        monkeypatch.setattr(ShardProcess, "_await_ready", fail_immediately)
        with pytest.raises(RuntimeError, match="planted"):
            spawn_group(2, scale=4, rows=2)
        assert spawned  # the probe ran at least once
        for process in spawned:
            assert process.process is None or process.process.poll() is not None


# --------------------------------------------------------------------------
# Satellite 2: shutdown is idempotent and tolerant of dead children.


class TestIdempotentShutdown:
    def test_kill_then_close_neither_raises_nor_hangs(self):
        deployment = SupervisedDeployment(
            2,
            placement=organisation_placement(),
            registry=paper_registry(),
            schema=SCHEMA,
            supervise=False,  # no restart racing the planted kill
        )
        victim = deployment.groups[0][0]
        victim.process.kill()
        victim.process.wait(timeout=10)

        started = time.monotonic()
        deployment.close(drain_grace=10.0)
        elapsed = time.monotonic() - started
        # The dead child is skipped, not waited on: closing takes far
        # less than one drain grace, let alone one per child.
        assert elapsed < 8.0, f"close() hung {elapsed:.1f}s on a dead child"
        deployment.close()  # second close: a no-op, not an exception
        deployment.stop()  # and the alias too
        for process in [deployment.fallback] + deployment.groups[0]:
            assert process.poll() is not None

    def test_supervisor_stop_is_idempotent(self):
        supervisor = Supervisor([])
        supervisor.run_in_background()
        supervisor.stop()
        supervisor.stop()  # double-stop: no join of a dead thread, no raise

    def test_process_session_close_survives_crashed_child(self):
        cluster = connect_sharded(
            placement=organisation_placement(),
            shards=2,
            processes=True,
            supervise=False,
        )
        try:
            assert cluster.run("Q1").route  # the cluster works
        finally:
            victim = cluster.deployment.groups[1][0]
            victim.process.kill()
            victim.process.wait(timeout=10)
            cluster.close()
            cluster.close()  # idempotent
        assert cluster.deployment.fallback.poll() is not None

    def test_in_process_session_close_is_idempotent(self):
        session = connect_sharded(
            figure3_database(),
            placement=organisation_placement(),
            shards=2,
        )
        assert session.run(paper_registry().lookup("Q1").term).value
        session.close()
        session.close()  # a second close must be a no-op
