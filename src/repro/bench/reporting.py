"""Paper-style result tables for the benchmark sweeps.

Fig. 10/11 plot time (ms, log-log) against #departments per query; this
module prints the same series as text tables — one table per query, one
row per system, one column per scale — plus a speedup summary.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.harness import CellResult

__all__ = [
    "format_tables",
    "format_speedups",
    "series",
    "bench_json",
    "bench_result_path",
    "write_bench_json",
    "merge_bench_json",
]


def _normalise_json(value, float_digits: int):
    """Floats rounded to a fixed precision, recursively — with sorted keys
    (see :func:`bench_json`) two runs of equal measurements produce
    byte-identical documents, so ``BENCH_*.json`` diffs stay reviewable."""
    if isinstance(value, float):
        return round(value, float_digits)
    if isinstance(value, dict):
        return {key: _normalise_json(sub, float_digits) for key, sub in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise_json(sub, float_digits) for sub in value]
    return value


def bench_json(payload: dict, float_digits: int = 3) -> str:
    """Serialise a benchmark result document deterministically."""
    return json.dumps(
        _normalise_json(payload, float_digits), indent=2, sort_keys=True
    ) + "\n"


def bench_result_path(name: str) -> pathlib.Path:
    """Where a benchmark module writes ``BENCH_<name>.json``: under the
    git-ignored ``.benchmarks/`` of the working directory (pytest-
    benchmark's own convention), so running the suite never rewrites a
    tracked file.  The tracked ``BENCH_*.json`` at the repo root are
    refreshed by copying from there when a change means to move them."""
    directory = pathlib.Path(".benchmarks")
    directory.mkdir(exist_ok=True)
    return directory / f"BENCH_{name}.json"


def write_bench_json(
    path: "pathlib.Path | str", payload: dict, float_digits: int = 3
) -> None:
    """Write a ``BENCH_*.json`` document (sorted keys, fixed precision)."""
    pathlib.Path(path).write_text(bench_json(payload, float_digits))


def merge_bench_json(
    path: "pathlib.Path | str", updates: dict, float_digits: int = 3
) -> dict:
    """Update top-level keys of a ``BENCH_*.json`` document in place.

    Several benchmark modules can contribute scenarios to one result file
    (``BENCH_service.json`` holds both the healthy concurrency sweep and
    the degraded failover scenario) without clobbering each other — each
    replaces only the keys it owns.  Returns the merged document.
    """
    target = pathlib.Path(path)
    document: dict = {}
    if target.exists():
        try:
            document = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError):
            document = {}  # a corrupt result file is rebuilt, not fatal
    document.update(updates)
    write_bench_json(target, document, float_digits)
    return document


def series(
    results: list[CellResult],
) -> dict[str, dict[str, list[tuple[int, float | None]]]]:
    """results → {query: {system: [(departments, ms), …]}}."""
    table: dict[str, dict[str, list[tuple[int, float | None]]]] = {}
    for cell in results:
        table.setdefault(cell.query, {}).setdefault(cell.system, []).append(
            (cell.departments, cell.millis)
        )
    for systems in table.values():
        for points in systems.values():
            points.sort()
    return table


def _fmt(millis: float | None) -> str:
    if millis is None:
        return "—"
    if millis >= 1000:
        return f"{millis / 1000:.1f}s"
    if millis >= 10:
        return f"{millis:.0f}"
    return f"{millis:.1f}"


def format_tables(results: list[CellResult], title: str) -> str:
    """One table per query: systems × scales, values in ms."""
    grouped = series(results)
    lines = [f"== {title} (ms, median) =="]
    for query in sorted(grouped):
        systems = grouped[query]
        scales = sorted({d for pts in systems.values() for d, _ in pts})
        header = ["#depts".rjust(22)] + [str(s).rjust(8) for s in scales]
        lines.append(f"\n{query}:")
        lines.append(" ".join(header))
        for system in sorted(systems):
            points = dict(systems[system])
            row = [system.rjust(22)] + [
                _fmt(points.get(scale)).rjust(8) for scale in scales
            ]
            lines.append(" ".join(row))
    return "\n".join(lines)


def format_speedups(
    results: list[CellResult], baseline: str, contender: str
) -> str:
    """Per-query speedup of ``contender`` over ``baseline`` at the largest
    completed common scale (the paper's who-wins summary)."""
    grouped = series(results)
    lines = [f"== {contender} vs {baseline}: speedup at largest scale =="]
    for query in sorted(grouped):
        base_points = {
            d: ms for d, ms in grouped[query].get(baseline, []) if ms
        }
        cont_points = {
            d: ms for d, ms in grouped[query].get(contender, []) if ms
        }
        common = sorted(set(base_points) & set(cont_points))
        if not common:
            lines.append(f"{query:>6}: (no common completed scale)")
            continue
        at = common[-1]
        ratio = base_points[at] / cont_points[at]
        lines.append(
            f"{query:>6}: {ratio:6.2f}x at {at} departments "
            f"({_fmt(base_points[at])} vs {_fmt(cont_points[at])})"
        )
    return "\n".join(lines)
