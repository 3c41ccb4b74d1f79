"""Smoke target: every registered system runs once on a tiny instance.

The same sweep as ``python -m repro bench --smoke`` — one query per system
under a time budget, any pipeline exception fails the run — so the perf
machinery (plan cache, batched engine, baselines) can't silently rot.
"""

from __future__ import annotations

from repro.bench.smoke import SMOKE_SYSTEMS, format_smoke, run_smoke


def test_smoke_all_systems_pass(tmp_path, monkeypatch):
    snapshot = tmp_path / "metrics-snapshot.prom"
    monkeypatch.setenv("REPRO_METRICS_SNAPSHOT", str(snapshot))
    results = run_smoke()
    text, ok = format_smoke(results)
    assert ok, f"bench smoke failed:\n{text}"
    expected = set(SMOKE_SYSTEMS) | {"service", "service[metrics]"}
    assert {system for system, *_ in results} == expected
    # The metrics row scraped the server and wrote the Prometheus snapshot.
    assert "repro_requests_total" in snapshot.read_text()
