"""Concurrency hammer for the sharded deployment (the service contract).

Eight threads issue mixed routed / fan-out / single-shard / fallback
requests against (a) one *shared* deployment session over local
endpoints and (b) in-process servers with one coordinator per thread.
The assertions are *exact* — the workload is deterministic, so every
per-shard run counter, every fallback and per-mode counter and the merged
statement total are computed up front and must match to the unit; a lost
update or a cross-shard race shows up as a short count.
Extends the patterns of ``tests/test_session_concurrency.py`` one layer
up the stack.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import connect
from repro.data.organisation import figure3_database
from repro.service import paper_registry
from repro.shard import shard_for
from repro.values import bag_equal

THREADS = 8
RUNS_PER_THREAD = 12
SHARDS = 3

#: The mixed workload: routed point lookups, distributive fan-outs, a
#: replicated-only query and a fallback query.
WORKLOAD = (
    ("dept_staff", {"dept": "Product"}),
    ("Q4", None),
    ("dept_staff", {"dept": "Sales"}),
    ("Q2", None),
    ("Q5", None),  # fallback (nested departments reference)
    ("dept_staff", {"dept": "Research"}),
    ("Q3", None),  # single-shard (replicated-only)
)


def _workload_item(thread_index: int, run_index: int):
    return WORKLOAD[(thread_index + run_index) % len(WORKLOAD)]


def _expected_counters():
    """Simulate the deterministic workload: per-shard run counts, the
    fallback count, and per-query execute totals."""
    per_shard = [0] * SHARDS
    fallback = 0
    executes: dict[str, int] = {}
    for thread_index in range(THREADS):
        for run_index in range(RUNS_PER_THREAD):
            name, params = _workload_item(thread_index, run_index)
            executes[name] = executes.get(name, 0) + 1
            if name == "dept_staff":
                per_shard[shard_for(params["dept"], SHARDS)] += 1
            elif name in ("Q2", "Q4"):  # fanout
                for index in range(SHARDS):
                    per_shard[index] += 1
            elif name == "Q3":  # single
                per_shard[0] += 1
            else:  # Q5: fallback
                fallback += 1
    return per_shard, fallback, executes


def _hammer(worker) -> list:
    failures: list = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except Exception as error:  # noqa: BLE001 — collect, don't die
            failures.append((index, repr(error)))

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)
    ]
    # Switch threads every few bytecodes: an unlocked read-modify-write
    # on a shared counter then loses updates reliably, not once a week.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return failures


@pytest.fixture(scope="module")
def expected_values():
    registry = paper_registry()
    single = connect(figure3_database())
    values = {
        (name, str(params)): single.run(
            registry.lookup(name).term, params=params
        ).value
        for name, params in WORKLOAD
    }
    statements = {
        name: single.prepare(registry.lookup(name).term).query_count
        for name, _params in WORKLOAD
    }
    yield values, statements
    single.close()


def test_exact_counters_under_contention(sharded_session, expected_values):
    """Thread-safety is a property of the endpoint kind: over local
    endpoints all eight threads share **one** session; over the wire each
    thread gets its own coordinator to the same servers."""
    values, statements = expected_values
    first = sharded_session(SHARDS)
    sessions = [first] + [
        sharded_session.sibling(first) for _ in range(THREADS - 1)
    ]
    if sharded_session.transport == "local":
        assert all(session is first for session in sessions)
    # Compile and warm every shape everywhere, then snapshot baselines.
    for name, params in WORKLOAD:
        first.prepare(name).run(params=params)
    distinct = list({id(s): s for s in sessions}.values())
    base = [session.client.stats_snapshot() for session in distinct]
    queries = [0] * THREADS

    def worker(thread_index: int) -> None:
        session = sessions[thread_index]
        for run_index in range(RUNS_PER_THREAD):
            name, params = _workload_item(thread_index, run_index)
            result = session.run(name, params=params)
            assert bag_equal(result.value, values[(name, str(params))]), (
                name, params, result.route,
            )
            queries[thread_index] += result.stats.queries

    failures = _hammer(worker)
    assert not failures, failures

    def total(key):
        """Σ over coordinators of a snapshot counter's growth."""
        after = [session.client.stats_snapshot()[key] for session in distinct]
        before = [snapshot[key] for snapshot in base]
        if isinstance(after[0], list):
            return [
                sum(a[i] - b[i] for a, b in zip(after, before))
                for i in range(len(after[0]))
            ]
        return sum(a - b for a, b in zip(after, before))

    per_shard, fallback, executes = _expected_counters()
    assert total("shard_requests") == per_shard
    assert total("fallback_requests") == fallback
    # No lost updates in the per-mode markers either.
    assert total("routed") == executes["dept_staff"]
    assert total("fanouts") == executes["Q2"] + executes["Q4"]
    assert total("singles") == executes["Q3"]
    assert total("fallbacks") == executes["Q5"]
    # Every run's flat statements were merged exactly once: a fan-out
    # runs its statements on every shard, anything else on one store.
    assert sum(queries) == sum(
        count * statements[name] * (SHARDS if name in ("Q2", "Q4") else 1)
        for name, count in executes.items()
    )
    # A healthy hammer must stay failover-free: any nonzero counter here
    # means an endpoint failed (or was misdiagnosed as failed) under
    # plain contention.
    for session in distinct:
        snapshot = session.client.stats_snapshot()
        assert snapshot["failover_reroutes"] == 0
        assert snapshot["failover_retries"] == 0
        assert snapshot["replica_failovers"] == 0
        assert snapshot["down_shards"] == []
