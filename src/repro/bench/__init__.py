"""Benchmark harness regenerating the paper's figures (§8)."""

from repro.bench.harness import (
    BenchConfig,
    CellResult,
    SYSTEMS,
    default_scales,
    median_millis,
    run_system,
    sweep,
)
from repro.bench.reporting import format_speedups, format_tables, series

__all__ = [
    "BenchConfig",
    "CellResult",
    "SYSTEMS",
    "default_scales",
    "median_millis",
    "run_system",
    "sweep",
    "format_speedups",
    "format_tables",
    "series",
]
