"""Open-loop service benchmark: fixed arrival rates against a live server.

Drives the asyncio query server with the open-loop generator
(``benchmarks/openloop.py``): requests depart on a fixed schedule whatever
the server is doing, latency is measured from the *scheduled* departure
(coordinated-omission-free), and a rate ladder finds the highest offered
QPS the server sustains under a P99 SLO.  Results merge into
``BENCH_service.json`` under the ``openloop`` key, next to the closed-loop
concurrency sweep and the degraded failover scenario.

Scale knobs:
  REPRO_BENCH_OPENLOOP_RATES     — comma-separated offered QPS ladder
  REPRO_BENCH_OPENLOOP_REQUESTS  — requests per rung (default 60)
  REPRO_BENCH_OPENLOOP_SLO_MS    — the P99 bound (default 500 ms)
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.api import connect
from repro.bench.reporting import bench_result_path, merge_bench_json
from repro.data.queries import NESTED_QUERIES
from repro.pipeline.plan_cache import PlanCache
from repro.service import ServiceClient, paper_registry, serve_in_background
from repro.values import bag_equal

from benchmarks.conftest import DEPARTMENTS, ROWS
from benchmarks.openloop import find_max_sustainable_qps, run_open_loop

QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
RATES = tuple(
    float(rate)
    for rate in os.environ.get(
        "REPRO_BENCH_OPENLOOP_RATES", "10,25,50,100"
    ).split(",")
)
REQUESTS = int(os.environ.get("REPRO_BENCH_OPENLOOP_REQUESTS", "60"))
P99_SLO_MS = float(os.environ.get("REPRO_BENCH_OPENLOOP_SLO_MS", "500"))
#: Achieved throughput must keep up with this fraction of the offered rate
#: for a rung to count as sustained.
ACHIEVED_RATIO = 0.9
ATTEMPTS = 3

_RESULT_PATH = bench_result_path("service")


class _ClientPerThread:
    """Per-worker ``ServiceClient`` (the client is thread-confined), with a
    round-robin over the paper queries by request index."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._local = threading.local()
        self._clients: list[ServiceClient] = []
        self._lock = threading.Lock()

    def __call__(self, index: int) -> None:
        client = getattr(self._local, "client", None)
        if client is None:
            client = ServiceClient(self._host, self._port, timeout=60.0)
            self._local.client = client
            with self._lock:
                self._clients.append(client)
        client.execute(QUERY_NAMES[index % len(QUERY_NAMES)])

    def close(self) -> None:
        for client in self._clients:
            client.close()


@pytest.fixture(scope="module")
def openloop_results(bench_db):
    session = connect(bench_db, cache=PlanCache())
    registry = paper_registry()
    expected = {
        name: session.run(NESTED_QUERIES[name]).value for name in QUERY_NAMES
    }
    with serve_in_background(session, registry, pool_size=4) as handle:
        # Warm-up: compile every shape, build advisory indexes, verify the
        # wire answers against the direct session once.
        with ServiceClient(handle.host, handle.port) as client:
            for name in QUERY_NAMES:
                assert bag_equal(client.execute(name), expected[name]), name

        issue = _ClientPerThread(handle.host, handle.port)
        try:
            best, cells = find_max_sustainable_qps(
                issue,
                RATES,
                REQUESTS,
                p99_slo_ms=P99_SLO_MS,
                min_achieved_ratio=ACHIEVED_RATIO,
            )
            # Open-loop percentiles are noise-sensitive on loaded CI
            # boxes: if even the lowest rung failed its SLO, re-measure
            # it (keeping the best attempt) before accepting a zero.
            for _ in range(ATTEMPTS - 1):
                if best > 0.0:
                    break
                retry = run_open_loop(issue, RATES[0], REQUESTS)
                from benchmarks.openloop import meets_slo

                retry["slo_met"] = meets_slo(
                    retry, P99_SLO_MS, ACHIEVED_RATIO
                )
                cells[str(RATES[0])] = retry
                if retry["slo_met"]:
                    best = RATES[0]
        finally:
            issue.close()

    results = {
        "openloop": {
            "scale": {
                "departments": DEPARTMENTS,
                "rows_per_department": ROWS,
                "total_rows": bench_db.total_rows(),
                "requests_per_rate": REQUESTS,
                "queries": QUERY_NAMES,
            },
            "slo": {
                "p99_ms": P99_SLO_MS,
                "min_achieved_ratio": ACHIEVED_RATIO,
            },
            "rates": {str(rate): cells[str(rate)] for rate in RATES},
            "max_sustainable_qps": best,
        }
    }
    merge_bench_json(_RESULT_PATH, results)
    return results["openloop"]


class TestServiceOpenLoop:
    def test_results_recorded(self, openloop_results):
        assert _RESULT_PATH.exists()
        assert set(openloop_results["rates"]) == {str(r) for r in RATES}
        for cell in openloop_results["rates"].values():
            assert cell["requests"] == REQUESTS
            assert cell["offered_qps"] > 0

    def test_latency_measured_from_schedule(self, openloop_results):
        # Every successful rung has a full percentile ladder, ordered.
        for cell in openloop_results["rates"].values():
            if cell["errors"] == 0:
                assert (
                    cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"]
                    <= cell["max_ms"]
                )

    def test_server_sustains_lowest_offered_rate(self, openloop_results):
        best = openloop_results["max_sustainable_qps"]
        assert best >= RATES[0], (
            f"server sustained no offered rate under the "
            f"{P99_SLO_MS}ms P99 SLO: {openloop_results['rates']}"
        )
