"""Degraded serving: QPS/P95 of a 4-shard deployment with one shard down.

The fault-tolerance claim, measured: when one of four shard servers dies,
the deployment keeps answering — every query fails over to the full-copy
fallback (proactively, once the dead shard's breaker is open) and the
answers stay exactly right.  The cost model says the price is fan-out
parallelism collapsing onto the single fallback server; on one-process
CI hosts, where fan-out is already pure overhead (see
``BENCH_shard.json``), the degraded cell can even come out *faster* —
the recorded ``retained_qps_fraction`` is the honest number either way,
and the floor only guards against a degraded path that stops serving.

Two cells, same closed-loop harness as the healthy throughput sweep:

* ``healthy``  — all four shard servers up, fan-out works;
* ``degraded`` — shard 0's server stopped, breakers tripped, every
  request diverted to the fallback (``failover_reroutes`` proves the
  diversion actually happened — zero would mean the fault never bit).

Both cells are recorded under the ``failover`` key of
``BENCH_service.json`` (merged in next to the healthy concurrency sweep,
which guards the healthy-path regression bar separately).

PR 7 adds the replicated counterpart under ``replica_failover``: the
same workload against a 2-shard deployment at replication factor 2, with
shard 0's *primary* stopped mid-run.  Here the claim inverts — the
sibling replica absorbs the whole workload and **zero** queries reach
the full-copy fallback (``fallback_requests == 0`` is asserted, along
with the per-endpoint breaker states and transport retry counters from
``stats_snapshot``), so the retained throughput stays near 100% instead
of collapsing onto one server.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.api import connect
from repro.bench.reporting import bench_result_path, merge_bench_json
from repro.data.organisation import organisation_placement
from repro.data.queries import NESTED_QUERIES
from repro.service import RetryPolicy, paper_registry, serve_in_background
from repro.shard import ShardedDatabase, ShardedServiceClient
from repro.values import bag_equal

QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
SHARDS = 4
CLIENTS = 4
TOTAL_REQUESTS = int(os.environ.get("REPRO_BENCH_DEGRADED_REQUESTS", "64"))
#: The degraded deployment serves everything from one fallback server, so
#: it cannot match fan-out throughput — but it must retain a usable
#: fraction of it (and 100% of correctness).
RETAINED_FLOOR = float(os.environ.get("REPRO_BENCH_DEGRADED_RETAINED", "0.1"))

_RESULT_PATH = bench_result_path("service")


def _run_clients(make_client, total: int, expected: dict, names=None) -> dict:
    """``total`` requests split over ``CLIENTS`` threads, each with its own
    (thread-confined) sharded client; answers are verified, not trusted."""
    names = QUERY_NAMES if names is None else names
    per_client = total // CLIENTS
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    errors: list = []
    reroutes = retries = replica_failovers = fallbacks = 0
    transport_retries = transport_reconnects = 0
    open_endpoints: set = set()
    counter_lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)

    def worker(slot: int) -> None:
        nonlocal reroutes, retries, replica_failovers, fallbacks
        nonlocal transport_retries, transport_reconnects
        try:
            with make_client() as client:
                barrier.wait(timeout=60)
                for i in range(per_client):
                    name = names[(slot + i) % len(names)]
                    started = time.perf_counter()
                    rows = client.execute(name)
                    latencies[slot].append(
                        (time.perf_counter() - started) * 1000.0
                    )
                    if not bag_equal(rows, expected[name]):
                        errors.append(f"wrong answer for {name} (slot {slot})")
                snapshot = client.stats_snapshot()
                with counter_lock:
                    reroutes += client.failover_reroutes
                    retries += client.failover_retries
                    replica_failovers += snapshot["replica_failovers"]
                    fallbacks += snapshot["fallback_requests"]
                    transport_retries += snapshot["retries"]
                    transport_reconnects += snapshot["reconnects"]
                    open_endpoints.update(
                        label
                        for label, endpoint in snapshot["endpoints"].items()
                        if endpoint["breaker"]["state"] == "open"
                    )
        except Exception as error:  # noqa: BLE001 — fail the cell, not the run
            errors.append(repr(error))
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    wall = time.perf_counter() - started
    if errors:
        raise AssertionError(f"degraded-bench client errors: {errors}")

    flat = sorted(millis for bucket in latencies for millis in bucket)
    return {
        "clients": CLIENTS,
        "requests": len(flat),
        "wall_seconds": round(wall, 4),
        "qps": round(len(flat) / wall, 2),
        "p50_ms": round(flat[len(flat) // 2], 3),
        "p95_ms": round(flat[int(len(flat) * 0.95) - 1], 3),
        "failover_reroutes": reroutes,
        "failover_retries": retries,
        "replica_failovers": replica_failovers,
        "fallback_requests": fallbacks,
        "transport_retries": transport_retries,
        "transport_reconnects": transport_reconnects,
        "open_endpoints": sorted(open_endpoints),
    }


@pytest.fixture(scope="module")
def failover_results(bench_db):
    placement = organisation_placement()
    registry = paper_registry()
    sharded_db = ShardedDatabase(bench_db, placement, SHARDS)
    single = connect(bench_db)
    expected = {
        name: single.run(NESTED_QUERIES[name]).value for name in QUERY_NAMES
    }
    handles = [
        serve_in_background(
            connect(db), registry, pool_size=2, shard_label=f"{i}/{SHARDS}"
        )
        for i, db in enumerate(sharded_db.shards)
    ]
    fallback = serve_in_background(
        connect(sharded_db.full), registry, pool_size=CLIENTS,
        shard_label=f"full/{SHARDS}",
    )

    def make_client() -> ShardedServiceClient:
        return ShardedServiceClient(
            [(h.host, h.port) for h in handles],
            (fallback.host, fallback.port),
            placement=placement,
            registry=registry,
            schema=bench_db.schema,
            timeout=30,
            deadline_ms=30_000,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            breaker_threshold=1,
            breaker_reset=300.0,  # stays down for the whole degraded cell
        )

    try:
        # Warm every server's plan cache so both cells measure execution.
        with make_client() as warm:
            warm.prepare("Q1")
            for name in QUERY_NAMES:
                assert bag_equal(warm.execute(name), expected[name]), name

        healthy = _run_clients(make_client, TOTAL_REQUESTS, expected)
        assert healthy["failover_reroutes"] == 0
        assert healthy["failover_retries"] == 0

        handles[0].stop()  # one of four shards dies
        degraded = _run_clients(make_client, TOTAL_REQUESTS, expected)
        degraded["down_shard"] = 0

        results = {
            "failover": {
                "shards": SHARDS,
                "total_requests": TOTAL_REQUESTS,
                "queries": QUERY_NAMES,
                "healthy": healthy,
                "degraded": degraded,
                "retained_qps_fraction": round(
                    degraded["qps"] / healthy["qps"], 3
                ),
                "retained_floor": RETAINED_FLOOR,
            }
        }
        merge_bench_json(_RESULT_PATH, results)
        return results["failover"]
    finally:
        fallback.stop()
        for handle in handles[1:]:
            handle.stop()
        single.close()


class TestDegradedServing:
    def test_results_recorded(self, failover_results):
        assert _RESULT_PATH.exists()
        for cell in (failover_results["healthy"], failover_results["degraded"]):
            assert cell["requests"] == TOTAL_REQUESTS
            assert cell["qps"] > 0
            assert cell["p50_ms"] <= cell["p95_ms"]

    def test_degraded_failover_counters_are_exact(self, failover_results):
        # Replay each client's request sequence against the routing rules:
        # the first request that touches dead shard 0 retries reactively
        # and trips the breaker; fanouts then divert proactively, Q3
        # (single) moves to a live shard, Q5 (fallback) never diverts.
        retries = reroutes = 0
        per_client = TOTAL_REQUESTS // CLIENTS
        for slot in range(CLIENTS):
            shard0_down = False
            for i in range(per_client):
                name = QUERY_NAMES[(slot + i) % len(QUERY_NAMES)]
                if name == "Q5":
                    continue  # fallback by analysis, not a failover
                if not shard0_down:
                    retries += 1  # dead shard discovered mid-run
                    shard0_down = True
                elif name != "Q3":
                    reroutes += 1  # fanout planned around the down shard
        degraded = failover_results["degraded"]
        assert degraded["failover_retries"] == retries
        assert degraded["failover_reroutes"] == reroutes

    def test_degraded_throughput_is_usable(self, failover_results):
        retained = failover_results["retained_qps_fraction"]
        assert retained >= RETAINED_FLOOR, (
            f"one shard down retained only {retained:.0%} of healthy QPS "
            f"(floor {RETAINED_FLOOR:.0%})"
        )


# --------------------------------------------------------------------------
# Replicated counterpart: primary down, sibling absorbs, zero fallbacks.

REPLICA_SHARDS = 2
#: Q5 is answered by the full copy *by analysis* even when healthy, which
#: would muddy the "zero fallbacks" claim — the replica cells measure the
#: queries whose fallback count must stay at exactly zero.
REPLICA_QUERIES = [name for name in QUERY_NAMES if name != "Q5"]


@pytest.fixture(scope="module")
def replica_failover_results(bench_db):
    placement = organisation_placement()
    registry = paper_registry()
    # Primary and replica serve *independent* partition copies, as the
    # supervised deployment does with separate processes.
    copies = [
        ShardedDatabase(bench_db, placement, REPLICA_SHARDS) for _ in range(2)
    ]
    single = connect(bench_db)
    expected = {
        name: single.run(NESTED_QUERIES[name]).value for name in REPLICA_QUERIES
    }
    groups = [
        [
            serve_in_background(
                connect(copies[replica].shards[i]),
                registry,
                pool_size=2,
                shard_label=(
                    f"{i}/{REPLICA_SHARDS}"
                    if replica == 0
                    else f"{i}.{replica}/{REPLICA_SHARDS}"
                ),
            )
            for replica in range(2)
        ]
        for i in range(REPLICA_SHARDS)
    ]
    fallback = serve_in_background(
        connect(copies[0].full), registry, pool_size=CLIENTS,
        shard_label=f"full/{REPLICA_SHARDS}",
    )

    def make_client() -> ShardedServiceClient:
        return ShardedServiceClient(
            [[(h.host, h.port) for h in group] for group in groups],
            (fallback.host, fallback.port),
            placement=placement.with_replication(2),
            registry=registry,
            schema=bench_db.schema,
            timeout=30,
            deadline_ms=30_000,
            retry=RetryPolicy(attempts=2, base_delay=0.01),
            breaker_threshold=1,
            breaker_reset=300.0,  # stays open for the whole degraded cell
        )

    try:
        with make_client() as warm:
            warm.prepare("Q1")
            for name in REPLICA_QUERIES:
                assert bag_equal(warm.execute(name), expected[name]), name

        healthy = _run_clients(
            make_client, TOTAL_REQUESTS, expected, names=REPLICA_QUERIES
        )
        assert healthy["fallback_requests"] == 0
        assert healthy["replica_failovers"] == 0
        assert healthy["failover_reroutes"] == 0
        assert healthy["failover_retries"] == 0
        assert healthy["open_endpoints"] == []

        groups[0][0].stop()  # shard 0's PRIMARY dies; its replica stands
        degraded = _run_clients(
            make_client, TOTAL_REQUESTS, expected, names=REPLICA_QUERIES
        )
        degraded["down_replica"] = f"0/{REPLICA_SHARDS}"

        results = {
            "replica_failover": {
                "shards": REPLICA_SHARDS,
                "replication": 2,
                "total_requests": TOTAL_REQUESTS,
                "queries": REPLICA_QUERIES,
                "healthy": healthy,
                "degraded": degraded,
                "retained_qps_fraction": round(
                    degraded["qps"] / healthy["qps"], 3
                ),
                "retained_floor": RETAINED_FLOOR,
            }
        }
        merge_bench_json(_RESULT_PATH, results)
        return results["replica_failover"]
    finally:
        fallback.stop()
        for group in groups:
            for handle in group:
                if handle is not groups[0][0]:
                    handle.stop()
        single.close()


class TestReplicaDegradedServing:
    def test_results_recorded(self, replica_failover_results):
        assert _RESULT_PATH.exists()
        for cell in (
            replica_failover_results["healthy"],
            replica_failover_results["degraded"],
        ):
            assert cell["requests"] == TOTAL_REQUESTS
            assert cell["qps"] > 0
            assert cell["p50_ms"] <= cell["p95_ms"]

    def test_replica_absorbs_with_zero_fallbacks(
        self, replica_failover_results
    ):
        degraded = replica_failover_results["degraded"]
        # The headline: not one query was diverted to the full copy —
        # no whole-query retries, no proactive reroutes, no fallbacks.
        assert degraded["fallback_requests"] == 0
        assert degraded["failover_retries"] == 0
        assert degraded["failover_reroutes"] == 0
        # Each client discovers the dead primary exactly once (its first
        # sub-request fails over to the sibling and trips the breaker;
        # after that the open breaker routes reads proactively).
        assert degraded["replica_failovers"] == CLIENTS
        assert degraded["open_endpoints"] == [f"0/{REPLICA_SHARDS}"]
        # The discovery is visible in the transport counters too: every
        # client burned at least one endpoint-level retry on the corpse.
        assert degraded["transport_retries"] >= CLIENTS

    def test_replication_retains_throughput(self, replica_failover_results):
        retained = replica_failover_results["retained_qps_fraction"]
        assert retained >= RETAINED_FLOOR, (
            f"primary down retained only {retained:.0%} of healthy QPS "
            f"(floor {RETAINED_FLOOR:.0%}) despite a standing replica"
        )
