"""Plan shape as a host-independent work bar.

When every table declares a key the compiler emits key-indexed plans:
plain joins — no ``ROW_NUMBER``, no CTE — that SQLite evaluates without
materialising or sorting anything, one statement per nesting level.  A
schema with a single keyless table falls back to the let-inserted
``ROW_NUMBER`` form.  Under either form every base-table lookup reads a
covering advisory index, never the table row.  Counted in SQL text and
``EXPLAIN QUERY PLAN`` nodes, never in milliseconds.
"""

from __future__ import annotations

import re

import pytest

from repro.backend.database import Database
from repro.backend.executor import ExecutionStats, ensure_compiled_indexes, index_hints
from repro.data.generator import scaled_database
from repro.nrc.types import nesting_degree
from repro.pipeline.shredder import ShreddingPipeline
from repro.service.registry import paper_registry
from repro.shred.packages import annotations
from repro.sql.codegen import SqlOptions

from .strategies import without_key

REGISTRY = paper_registry()
#: Q1–Q6, dept_staff, staff_above.
NAMES = sorted(REGISTRY.names())
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 1000}}


@pytest.fixture(scope="module")
def keyed_db() -> Database:
    return scaled_database(4, seed=0, scale_rows=10)


@pytest.fixture(scope="module")
def keyless_db(keyed_db) -> Database:
    """The same rows, but ``contacts`` declares no key."""
    schema = without_key(keyed_db.schema, "contacts")
    return Database(
        schema, {t.name: keyed_db.raw_rows(t.name) for t in schema.tables}
    )


def _compile(name: str, db: Database):
    return ShreddingPipeline(db.schema).compile(REGISTRY.lookup(name).term)


@pytest.mark.parametrize("name", NAMES)
def test_keyed_schema_gets_window_free_cte_free_plans(name, keyed_db):
    compiled = _compile(name, keyed_db)
    assert compiled.index_scheme == "natural: keys"
    statements = [sql for _path, sql in annotations(compiled.sql_package)]
    assert len(statements) == nesting_degree(compiled.result_type)
    for statement in statements:
        assert "ROW_NUMBER" not in statement.sql
        assert "WITH" not in statement.sql
        assert statement.statement.ctes == ()
        ensure_compiled_indexes(keyed_db, statement)
    keyed_db.refresh_statistics()
    for statement in statements:
        plan = " | ".join(
            row[3]
            for row in keyed_db.execute_sql(
                "EXPLAIN QUERY PLAN " + statement.sql, PARAMS.get(name, {})
            )
        )
        # No transient table, no sort: every row SQLite produces is emitted.
        assert "MATERIALIZE" not in plan, plan
        assert "USE TEMP B-TREE" not in plan, plan


def _base_aliases(sql: str, db: Database) -> set[str]:
    """The aliases a statement gives base tables (``"t" AS "x1"``)."""
    return {
        alias
        for table, alias in re.findall(r'"(\w+)" AS "(\w+)"', sql)
        if table in db.schema
    }


@pytest.mark.parametrize("scheme", [None, "flat"])
@pytest.mark.parametrize("name", NAMES)
def test_every_base_table_search_reads_a_covering_index(name, scheme, keyed_db):
    """SQLite answers every lookup of a shredded statement from the
    advisory index alone: no ``SEARCH`` seeks a base-table row."""
    options = SqlOptions() if scheme is None else SqlOptions(scheme=scheme)
    compiled = ShreddingPipeline(keyed_db.schema, options=options).compile(
        REGISTRY.lookup(name).term
    )
    statements = [sql for _path, sql in annotations(compiled.sql_package)]
    for statement in statements:
        ensure_compiled_indexes(keyed_db, statement)
    keyed_db.refresh_statistics()
    for statement in statements:
        aliases = _base_aliases(statement.sql, keyed_db)
        for (*_ids, detail) in keyed_db.execute_sql(
            "EXPLAIN QUERY PLAN " + statement.sql, PARAMS.get(name, {})
        ):
            words = detail.split()
            if words[0] == "SEARCH" and words[1] in aliases:
                assert "USING COVERING INDEX" in detail, (statement.sql, detail)


@pytest.mark.parametrize("scheme", [None, "flat"])
@pytest.mark.parametrize("name", NAMES)
def test_a_fresh_store_builds_one_index_per_distinct_hint(name, scheme):
    db = scaled_database(4, seed=0, scale_rows=10)
    options = SqlOptions() if scheme is None else SqlOptions(scheme=scheme)
    compiled = ShreddingPipeline(db.schema, options=options).compile(
        REGISTRY.lookup(name).term
    )
    hints = {
        hint
        for _path, statement in annotations(compiled.sql_package)
        for hint in index_hints(statement)
    }
    stats = ExecutionStats()
    compiled.run(db, engine="batched", stats=stats, params=PARAMS.get(name))
    assert stats.indexes_created == len(hints)


@pytest.mark.parametrize("name", NAMES)
def test_one_keyless_table_falls_back_to_row_numbers(name, keyless_db):
    compiled = _compile(name, keyless_db)
    assert compiled.index_scheme == "flat: table 'contacts' declares no key"
    statements = [sql for _path, sql in annotations(compiled.sql_package)]
    assert len(statements) == nesting_degree(compiled.result_type)
    if len(statements) > 1:  # some bag's index must be numbered
        assert any("ROW_NUMBER" in statement.sql for statement in statements)
    params = PARAMS.get(name)
    assert compiled.run(keyless_db, params=params) is not None
