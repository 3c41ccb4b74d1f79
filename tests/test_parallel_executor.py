"""The read-connection pool and the thread-parallel package engine."""

from __future__ import annotations

import pytest

from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal


def test_read_connections_share_the_store(db):
    rows = db.execute_sql('SELECT COUNT(*) FROM "employees"')
    (reader,) = db.read_connections(1)
    assert reader is not db.connection()
    assert reader.execute('SELECT COUNT(*) FROM "employees"').fetchall() == rows


def test_read_connections_are_reused_and_read_only(db):
    first = db.read_connections(2)
    assert db.read_connections(2) == first
    assert db.pool_size == 2
    import sqlite3

    with pytest.raises(sqlite3.OperationalError):
        first[0].execute('DELETE FROM "employees"')


def test_pool_rejects_non_positive_sizes(db):
    with pytest.raises(BackendError):
        db.read_connections(0)


def test_pool_sees_later_inserts(db):
    db.read_connections(1)
    before = db.execute_sql('SELECT COUNT(*) FROM "tasks"')[0][0]
    db.insert("tasks", [{"id": 999, "employee": "Alice", "task": "audit"}])
    (reader,) = db.read_connections(1)
    after = reader.execute('SELECT COUNT(*) FROM "tasks"').fetchone()[0]
    assert after == before + 1


def test_disposed_connection_closes_pool(db):
    db.read_connections(2)
    db._dispose_connection()
    assert db.pool_size == 0
    # A rebuilt connection serves fresh pool connections over fresh state.
    (reader,) = db.read_connections(1)
    assert reader.execute('SELECT COUNT(*) FROM "employees"').fetchone()[0] > 0


@pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
def test_parallel_engine_matches_batched(db, name):
    query = NESTED_QUERIES[name]
    pipeline = ShreddingPipeline(db.schema)
    compiled = pipeline.compile(query)
    batched_stats = ExecutionStats()
    parallel_stats = ExecutionStats()
    batched = compiled.run(db, engine="batched", stats=batched_stats)
    parallel = compiled.run(db, engine="parallel", stats=parallel_stats)
    assert bag_equal(batched, parallel)
    # Deterministic stats: same query count, same per-query row series.
    assert parallel_stats.queries == batched_stats.queries
    assert parallel_stats.per_query_rows == batched_stats.per_query_rows
    assert parallel_stats.rows_fetched == batched_stats.rows_fetched


def test_parallel_engine_with_optimizer_and_scans(db):
    query = NESTED_QUERIES["Q6"]
    expected = ShreddingPipeline(db.schema).run(query, db)
    stats = ExecutionStats()
    actual = ShreddingPipeline(
        db.schema, SqlOptions(scheme="flat", optimize=True)
    ).run(query, db, engine="parallel", stats=stats)
    assert bag_equal(expected, actual)
    assert stats.queries == 3  # one per nesting level, unchanged


def test_execution_stats_merge_preserves_series():
    left = ExecutionStats()
    left.record(3, 1.5)
    left.record_cache(True)
    right = ExecutionStats()
    right.record(7, 2.5)
    right.indexes_created = 2
    left.merge(right)
    assert left.queries == 2
    assert left.rows_fetched == 10
    assert left.per_query_rows == [3, 7]
    assert left.per_query_millis == [1.5, 2.5]
    assert left.cache_hits == 1
    assert left.indexes_created == 2
