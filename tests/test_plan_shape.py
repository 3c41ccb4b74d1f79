"""Plan shape as a host-independent work bar.

When every table declares a key the compiler emits key-indexed plans:
plain joins — no ``ROW_NUMBER``, no CTE — that SQLite evaluates without
materialising or sorting anything, one statement per nesting level; where
a declared reference pins a bag to its join column, its statement reads
one table per branch.  A
schema with a single keyless table falls back to the let-inserted
``ROW_NUMBER`` form.  Under either form every base-table lookup reads a
covering advisory index, never the table row — a range filter's column
included, so a filtered table is entered through its index.  Counted in
SQL text, ``EXPLAIN QUERY PLAN`` nodes and SQLite VM steps, never in
milliseconds.
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


#: Fig. 11's statements a declared reference pins (6 of Q1–Q6's 14).
PINNED = {
    ("Q1", "↓.contacts"),
    ("Q1", "↓.employees"),
    ("Q1", "↓.employees.↓.tasks"),
    ("Q3", "↓.tasks"),
    ("Q4", "↓.employees"),
    ("Q6", "↓.people"),
}


def test_pinned_statements_read_one_table_per_branch(keyed_db):
    """A pinned child stops re-joining its ancestors; Q6's ``people.tasks``
    (natural keys below a filtered parent) still drops ``departments``."""
    statements = 0
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        compiled = _compile(name, keyed_db)
        for path, statement in annotations(compiled.sql_package):
            statements += 1
            tables = [len(core.from_items) for core in statement.statement.selects]
            if (name, str(path)) in PINNED:
                assert tables == [1] * len(tables), (name, str(path))
            if (name, str(path)) == ("Q6", "↓.people.↓.tasks"):
                assert tables == [2, 1]
                assert '"departments"' not in statement.sql
    assert statements == 14


@pytest.mark.parametrize("name", ["Q2", "Q5", "dept_staff", "staff_above"])
def test_unpinned_queries_compile_as_without_references(name, keyed_db):
    """Nothing qualifies in these (no nesting, a reverse reference, a
    parameter on the top level): their plans are the reference-free ones."""
    bare = keyed_db.schema.without_references()
    term = REGISTRY.lookup(name).term
    assert [
        statement.sql
        for _path, statement in annotations(_compile(name, keyed_db).sql_package)
    ] == [
        statement.sql
        for _path, statement in annotations(
            ShreddingPipeline(bare).compile(term).sql_package
        )
    ]


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


#: Q6's statements that filter ``employees`` by the paper's "outliers"
#: range (``salary > 1000000 ∨ salary < 1000``).
OUTLIER_STATEMENTS = ("↓.people", "↓.people.↓.tasks")


@pytest.fixture(scope="module")
def fig11_db() -> Database:
    """Fig. 11's largest store (64 departments × 100), every Q1–Q6 plan
    run once, so its advisory indexes exist and ``ANALYZE`` has run."""
    db = scaled_database(64, 0, 100)
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        _compile(name, db).run(db, engine="batched")
    return db


def _steps(db: Database, statement, params=None) -> int:
    """SQLite VM steps to write ``statement``'s column table — a
    deterministic count of the work, whatever the host's speed."""
    steps = 0

    def tally() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection = db.connection()
    connection.set_progress_handler(tally, 1)
    try:
        connection.execute(statement.column_table_sql, params or {}).fetchall()
    finally:
        connection.set_progress_handler(None, 1)
    return steps


def _range_searches(db: Database, statement, params=None) -> set[str]:
    """``table(column op ?)`` for every covering-index range ``SEARCH`` in
    ``statement``'s plan."""
    tables = {alias: table for table, alias in re.findall(r'"(\w+)" AS "(\w+)"', statement.sql)}
    found = set()
    for (*_ids, detail) in db.execute_sql("EXPLAIN QUERY PLAN " + statement.sql, params or {}):
        match = re.fullmatch(r"SEARCH (\w+) USING COVERING INDEX \w+ \((\w+[<>]=?\?)\)", detail)
        if match:
            found.add(f"{tables[match.group(1)]}({match.group(2)})")
    return found


def test_the_outlier_filter_enters_employees_through_its_index(fig11_db):
    """Q6's two filtered statements start from the ≈ 40 outliers — a
    ``MULTI-INDEX OR`` over the covering index on ``salary`` — rather
    than probing ``employees`` once per task; each writes its column
    table in ≤ 25 000 VM steps."""
    compiled = _compile("Q6", fig11_db)
    statements = {str(path): sql for path, sql in annotations(compiled.sql_package)}
    for path in OUTLIER_STATEMENTS:
        statement = statements[path]
        assert _range_searches(fig11_db, statement) == {
            "employees(salary>?)",
            "employees(salary<?)",
        }, path
        assert _steps(fig11_db, statement) <= 25_000, path


def test_the_fig11_round_stays_under_its_step_budget(fig11_db):
    """Q1–Q6's 14 statements write their column tables in ≤ 380 000 VM
    steps together."""
    statements = [
        statement
        for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
        for _path, statement in annotations(_compile(name, fig11_db).sql_package)
    ]
    assert len(statements) == 14
    assert sum(_steps(fig11_db, statement) for statement in statements) <= 380_000


@pytest.mark.parametrize("scheme", [None, "flat"])
def test_staff_above_searches_its_range_index(scheme, keyed_db):
    options = SqlOptions() if scheme is None else SqlOptions(scheme=scheme)
    compiled = ShreddingPipeline(keyed_db.schema, options=options).compile(
        REGISTRY.lookup("staff_above").term
    )
    params = PARAMS["staff_above"]
    compiled.run(keyed_db, engine="batched", params=params)
    ((_path, statement),) = annotations(compiled.sql_package)
    assert _range_searches(keyed_db, statement, params) == {"employees(salary>?)"}
