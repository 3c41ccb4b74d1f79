"""The batched engine in process reads column tables, as shards do.

Every statement of a batched run is its
:attr:`~repro.sql.codegen.CompiledSql.column_table_sql` — SQLite's JSON1
writes the row count and one JSON array per column, one fetch per
statement.  What that rests on, and where it stops:

* **row order** — ``collection="list"`` needs the table's cells in the
  statement's ``ORDER BY`` order, which SQLite documents as unspecified
  for aggregates before 3.44: pinned against ``fetchall`` here;
* **no JSON1** — every engine reads column tables, so a store whose
  SQLite lacks it refuses to open, before any statement runs;
* **SQLite's length limit** — a table longer than it fails every engine
  alike, before anything is folded;
* **the on-loop step budget** — a served point lookup stays far inside it.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api import connect
from repro.backend.database import Database
from repro.backend.executor import DEFAULT_POOL_SIZE
from repro.data.generator import scaled_database
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError, MissingSqlFunctionError, ServiceError
from repro.service.core import ServerCore
from repro.service.registry import paper_registry
from repro.service.server import INLINE_STEP_BUDGET
from repro.shred.packages import annotations
from repro.sql.codegen import CompiledSql, SqlOptions

REGISTRY = paper_registry()
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 900}}


def test_an_ordered_statements_table_keeps_its_order():
    """SQLite consumes the ``ORDER BY`` subquery under the aggregate in
    order: per statement the table's rows are ``fetchall()``'s, in
    ``fetchall()``'s order, and the list-semantics result of the batched
    engine is the per-path engine's, as a list."""
    db = scaled_database(6, 3, 20)
    session = connect(db, options=SqlOptions(ordered=True))
    for name in REGISTRY.names():
        term, params = REGISTRY.lookup(name).term, PARAMS.get(name)
        compiled = session.compile(term)
        for path, statement in annotations(compiled.sql_package):
            assert statement.statement.order_by, path
            rows = db.execute_sql(statement.sql, params or {})
            ((count, blob),) = db.execute_sql(statement.column_table_sql, params or {})
            width = len(statement.columns)
            assert count == len(rows)
            assert list(zip(*json.loads(blob))) == [row[:width] for row in rows], (name, path)
        listed = session.query(term).run(engine="batched", collection="list", params=params)
        reference = session.query(term).run(engine="per-path", collection="list", params=params)
        assert listed.value == reference.value, name


class _NoJson1:
    """A connection whose SQLite was built without JSON1; it logs every
    statement it is asked to run."""

    def __init__(self, connection, log: list) -> None:
        self._connection, self._log = connection, log

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def execute(self, sql, *args):
        self._log.append(sql)
        if "json_group_array" in sql:
            raise sqlite3.OperationalError("no such function: json_group_array")
        return self._connection.execute(sql, *args)


def test_a_store_without_json1_refuses_to_open(monkeypatch, tmp_path):
    """Durable stores open at construction, in-memory ones on first use:
    either way the JSON1 check is the first statement and the last, and a
    server answers with a structured ``MissingSqlFunction`` error."""
    log: list = []
    connect_sqlite = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda *a, **k: _NoJson1(connect_sqlite(*a, **k), log)
    )
    with pytest.raises(MissingSqlFunctionError, match="json_group_array") as refused:
        Database(ORGANISATION_SCHEMA, path=tmp_path / "store.db")
    assert refused.value.kind == "MissingSqlFunction"
    assert log == ["SELECT json_group_array(1)"]
    session = connect(figure3_database())
    term = NESTED_QUERIES["Q4"]
    assert session.resolve_engine(None, session.compile(term)) == "batched"
    for engine in ("auto", "per-path", "batched", "parallel"):
        with pytest.raises(MissingSqlFunctionError, match="json_group_array"):
            session.run(term, engine=engine)
    core = ServerCore(session, REGISTRY)
    assert core.handle({"op": "prepare", "query": "Q4"})["engine"] == "batched"
    for request in ({}, {"engine": "per-path"}, {"result": "shredded"}):
        with pytest.raises(ServiceError, match="json_group_array") as answered:
            core.handle({"op": "execute", "query": "Q4", **request})
        assert answered.value.kind == "MissingSqlFunction"
    assert set(log) == {"SELECT json_group_array(1)"}


def test_a_table_over_sqlites_length_limit_fails_every_engine(monkeypatch):
    """Every engine reads the same column tables, so every one raises the
    same error naming the limit — and the batched engines, which read the
    whole package first, fold nothing."""
    db = figure3_database()
    session = connect(db)
    term = NESTED_QUERIES["Q1"]
    session.run(term)  # indexes advised, statistics in
    for connection in (db.connection(), *db.read_connections(DEFAULT_POOL_SIZE)):
        connection.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, 64)
    folds: list = []
    fold = CompiledSql.fold
    monkeypatch.setattr(CompiledSql, "fold", lambda self: folds.append(self) or fold(self))
    for engine in ("per-path", "batched", "parallel"):
        with pytest.raises(BackendError, match=r"length limit \(SQLITE_LIMIT_LENGTH: .*too big"):
            session.run(term, engine=engine)
    assert folds == []


def test_a_point_lookup_stays_far_inside_the_on_loop_budget():
    """``dept_staff`` served from the event loop runs under a step guard
    of :data:`INLINE_STEP_BUDGET` SQLite instructions; as column tables it
    takes well under a hundredth of it on every department."""
    db = figure3_database()
    session = connect(db)
    prepared = session.prepare(REGISTRY.lookup("dept_staff").term)
    (lease,) = db.dedicated_read_connections(1)
    for dept in ("Product", "Quality", "Research", "Sales"):
        prepared.run(params={"dept": dept}, connection=lease)
        steps = []
        lease.set_progress_handler(lambda: steps.append(1), 1)
        try:
            result = prepared.run(params={"dept": dept}, connection=lease)
        finally:
            lease.set_progress_handler(None, 0)
        assert result.engine == "batched"
        assert 0 < len(steps) < INLINE_STEP_BUDGET / 100, dept
