"""Shared benchmark fixtures: prepared databases at the default bench scale.

Scale knobs (the README's "Benchmarks" section lists them all):
  REPRO_BENCH_DEPTS  — departments in the benchmark instance (default 8)
  REPRO_BENCH_ROWS   — average employees per department (default 20)
"""

from __future__ import annotations

import os

import pytest

from repro.data.generator import scaled_database

DEPARTMENTS = int(os.environ.get("REPRO_BENCH_DEPTS", "8"))
ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "20"))


@pytest.fixture(scope="session")
def bench_db():
    """One generated organisation instance, SQLite pre-materialised."""
    db = scaled_database(DEPARTMENTS, seed=0, scale_rows=ROWS)
    db.connection()
    return db


@pytest.fixture(scope="session")
def small_bench_db():
    """A smaller instance for the avalanche baseline (N+1 round trips)."""
    db = scaled_database(max(2, DEPARTMENTS // 2), seed=0, scale_rows=max(5, ROWS // 2))
    db.connection()
    return db
