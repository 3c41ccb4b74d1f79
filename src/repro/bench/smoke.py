"""Benchmark smoke test: one tiny sweep per system under a time budget.

    python -m repro bench --smoke

Runs every registered system (plus ``default-raw-sql``) once on a tiny
generated instance — flat systems on a flat query, the rest on a nested
query — and reports per-system wall time.  Any pipeline exception fails
the run (non-zero exit), so the perf machinery can't silently rot; a
per-system time budget catches pathological slowdowns on what should be a
sub-second instance.

The sweep ends with the *service* rows: an in-process
:class:`~repro.service.server.QueryServer` is started on the same tiny
instance and one query is round-tripped over the wire per execution engine,
value-checked against a direct ``Session.run`` — so the serving path (wire
protocol, connection leases, thread offload) can't rot either.

The service sweep also scrapes the server's metrics twice — once over the
in-band ``metrics`` wire op and once over the HTTP ``/metrics`` endpoint —
and runs both bodies through the strict Prometheus parser, so the
observability surface is exercised on every CI run.  The HTTP body is
written to ``metrics-snapshot.prom`` (override with
``REPRO_METRICS_SNAPSHOT``; empty disables) for CI to upload as an
artifact.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import SYSTEMS, run_system
from repro.data.generator import scaled_database
from repro.pipeline.shredder import KNOWN_ENGINES

__all__ = ["SMOKE_SYSTEMS", "SERVICE_ENGINES", "run_smoke", "format_smoke"]

#: Where the service smoke writes the scraped Prometheus text.
SNAPSHOT_ENV = "REPRO_METRICS_SNAPSHOT"
DEFAULT_SNAPSHOT_PATH = "metrics-snapshot.prom"

#: Engines the service smoke round-trips one query through.
SERVICE_ENGINES = KNOWN_ENGINES

#: system → the query it smoke-tests on (flat pipelines can't run nested
#: queries, the avalanche baseline is too slow for a big one).
SMOKE_SYSTEMS: dict[str, str] = {
    **{name: "Q4" for name in SYSTEMS},
    "default": "QF1",
    "default-raw-sql": "QF1",
}


def run_smoke(
    departments: int = 2,
    rows: int = 4,
    budget_ms: float = 5000.0,
) -> list[tuple[str, str, float | None, str]]:
    """Run each system once on a tiny instance.

    Returns (system, query, millis | None, error) rows; ``millis`` is None
    when the system raised, ``error`` is non-empty on failure or budget
    blowout.
    """
    db = scaled_database(departments, seed=0, scale_rows=rows)
    db.connection()
    results: list[tuple[str, str, float | None, str]] = []
    for system, query_name in sorted(SMOKE_SYSTEMS.items()):
        started = time.perf_counter()
        try:
            run_system(system, query_name, db, repeats=1)
        except Exception as error:  # noqa: BLE001 — any failure must surface
            results.append(
                (system, query_name, None, f"{type(error).__name__}: {error}")
            )
            continue
        millis = (time.perf_counter() - started) * 1000.0
        note = "" if millis <= budget_ms else f"over budget ({budget_ms:.0f}ms)"
        results.append((system, query_name, millis, note))
    results.extend(_service_smoke(db, budget_ms))
    return results


def _service_smoke(
    db, budget_ms: float, query_name: str = "Q4"
) -> list[tuple[str, str, float | None, str]]:
    """One wire round trip per engine against an in-process server."""
    from repro.api import connect
    from repro.data.queries import NESTED_QUERIES
    from repro.service.client import ServiceClient
    from repro.service.registry import QueryRegistry
    from repro.service.server import serve_in_background
    from repro.values import bag_equal

    rows: list[tuple[str, str, float | None, str]] = []
    session = connect(db)
    expected = session.run(NESTED_QUERIES[query_name]).value
    registry = QueryRegistry()
    registry.register(query_name, NESTED_QUERIES[query_name])
    try:
        with serve_in_background(session, registry, pool_size=2) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                for engine in SERVICE_ENGINES:
                    system = f"service[{engine}]"
                    started = time.perf_counter()
                    try:
                        served = client.execute(query_name, engine=engine)
                    except Exception as error:  # noqa: BLE001 — must surface
                        rows.append(
                            (
                                system,
                                query_name,
                                None,
                                f"{type(error).__name__}: {error}",
                            )
                        )
                        continue
                    millis = (time.perf_counter() - started) * 1000.0
                    if not bag_equal(served, expected):
                        rows.append(
                            (system, query_name, None, "wire result mismatch")
                        )
                    else:
                        note = (
                            ""
                            if millis <= budget_ms
                            else f"over budget ({budget_ms:.0f}ms)"
                        )
                        rows.append((system, query_name, millis, note))
                rows.append(_metrics_smoke(handle, client, budget_ms))
    except Exception as error:  # noqa: BLE001 — server startup failure
        rows.append(
            (
                "service",
                query_name,
                None,
                f"{type(error).__name__}: {error}",
            )
        )
    return rows


def _metrics_smoke(
    handle, client, budget_ms: float
) -> tuple[str, str, float | None, str]:
    """Scrape the server's metrics over both surfaces and parse them.

    Asserts the in-band ``metrics`` op and the HTTP ``/metrics`` endpoint
    both respond with valid Prometheus text exposing the same metric
    families, then writes the HTTP body to the snapshot path.
    """
    import urllib.request

    from repro.obs import MetricsHTTPServer, parse_prometheus

    system = "service[metrics]"
    started = time.perf_counter()
    try:
        inband = parse_prometheus(client.metrics())
        http = MetricsHTTPServer(handle.server.metrics)
        try:
            with urllib.request.urlopen(http.url, timeout=10.0) as response:
                if response.status != 200:
                    raise RuntimeError(f"/metrics returned {response.status}")
                body = response.read().decode("utf-8")
        finally:
            http.close()
        scraped = parse_prometheus(body)
        if not inband or set(scraped) != set(inband):
            raise RuntimeError(
                "in-band and HTTP expositions disagree on metric families"
            )
        sample = "repro_requests_total"
        if sample not in scraped:
            raise RuntimeError(f"{sample} missing from exposition")
        _write_snapshot(body)
    except Exception as error:  # noqa: BLE001 — any failure must surface
        return (system, "—", None, f"{type(error).__name__}: {error}")
    millis = (time.perf_counter() - started) * 1000.0
    note = "" if millis <= budget_ms else f"over budget ({budget_ms:.0f}ms)"
    return (system, "—", millis, note)


def _write_snapshot(body: str) -> None:
    path = os.environ.get(SNAPSHOT_ENV, DEFAULT_SNAPSHOT_PATH)
    if path:
        with open(path, "w", encoding="utf-8") as snapshot:
            snapshot.write(body)


def format_smoke(
    results: list[tuple[str, str, float | None, str]]
) -> tuple[str, bool]:
    """Render the smoke table; the bool is True iff everything passed."""
    lines = [
        "== bench smoke — one tiny run per system ==",
        f"{'system':<24} {'query':>6} {'millis':>9}  status",
    ]
    ok = True
    for system, query_name, millis, note in results:
        if millis is None:
            ok = False
            lines.append(f"{system:<24} {query_name:>6} {'—':>9}  FAIL {note}")
        elif note:
            ok = False
            lines.append(
                f"{system:<24} {query_name:>6} {millis:>9.1f}  FAIL {note}"
            )
        else:
            lines.append(f"{system:<24} {query_name:>6} {millis:>9.1f}  ok")
    lines.append("smoke PASSED" if ok else "smoke FAILED")
    return "\n".join(lines), ok


def main(departments: int = 2, rows: int = 4, budget_ms: float = 5000.0) -> int:
    text, ok = format_smoke(run_smoke(departments, rows, budget_ms))
    print(text)
    return 0 if ok else 1
