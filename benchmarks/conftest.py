"""Shared fixtures: two generated stores at the default bench scale.

The paper's shape checks (statement and VM-step counts) run at both
sizes, the figures' cells check their answers against the semantics on
the larger, and the service bars serve the larger.  The figures' timings
are ``python -m repro figures``, not this directory's.

Scale knobs (the README's "Benchmarks" section lists them all):
  REPRO_BENCH_DEPTS  — departments in the benchmark instance (default 8)
  REPRO_BENCH_ROWS   — average employees per department (default 20)
"""

from __future__ import annotations

import os

import pytest

from repro.data.generator import scaled_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.nrc.semantics import evaluate

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


@pytest.fixture(scope="session")
def bench_answer(bench_db):
    """N⟦Q⟧ on ``bench_db`` by the in-memory semantics, once per query."""
    queries = {**FLAT_QUERIES, **NESTED_QUERIES}
    answers = {}

    def answer(query_name):
        if query_name not in answers:
            answers[query_name] = evaluate(queries[query_name], bench_db)
        return answers[query_name]

    return answer
