"""The batched engine in process reads column tables, as shards do.

Every statement of a batched run is its
:attr:`~repro.sql.codegen.CompiledSql.column_table_sql` — SQLite's JSON1
writes the row count and one JSON array per column, one fetch per
statement.  What that rests on, and where it stops:

* **row order** — ``collection="list"`` needs the table's cells in the
  statement's ``ORDER BY`` order, which SQLite documents as unspecified
  for aggregates before 3.44: pinned against ``fetchall`` here;
* **no JSON1** — ``auto`` resolves to the per-path engine, an explicit
  batched/parallel run says why it cannot run;
* **SQLite's length limit** — a table longer than it names ``per-path``;
* **the on-loop step budget** — a served point lookup stays far inside it.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api import connect
from repro.data.generator import scaled_database
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError, MissingSqlFunctionError
from repro.nrc.semantics import evaluate
from repro.service.core import ServerCore
from repro.service.registry import paper_registry
from repro.service.server import INLINE_STEP_BUDGET
from repro.shred.packages import annotations
from repro.sql.codegen import SqlOptions
from repro.values import assert_bag_equal

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
    """A connection whose SQLite was built without JSON1."""

    def execute(self, sql):
        raise sqlite3.OperationalError("no such function: json_group_array")


def test_without_json1_auto_is_per_path_and_batched_says_why():
    session = connect(figure3_database())
    assert session.db.has_json1(_NoJson1()) is False  # probed once, remembered
    term = NESTED_QUERIES["Q4"]
    compiled = session.compile(term)
    assert session.resolve_engine(None, compiled) == "per-path"
    assert session.resolve_engine("auto", compiled) == "per-path"
    result = session.run(term)
    assert result.engine == "per-path"
    assert_bag_equal(result.value, evaluate(term, figure3_database()))
    for engine in ("batched", "parallel"):
        with pytest.raises(MissingSqlFunctionError, match="json_group_array") as refused:
            session.run(term, engine=engine)
        assert refused.value.kind == "MissingSqlFunction"
    core = ServerCore(session, REGISTRY)
    assert core.handle({"op": "prepare", "query": "Q4"})["engine"] == "per-path"
    assert core.handle({"op": "execute", "query": "Q4"})["engine"] == "per-path"


def test_a_table_over_sqlites_length_limit_names_per_path():
    db = figure3_database()
    session = connect(db)
    term = NESTED_QUERIES["Q1"]
    session.run(term)  # indexes advised, statistics in
    db.connection().setlimit(sqlite3.SQLITE_LIMIT_LENGTH, 64)
    with pytest.raises(BackendError, match="engine='per-path'"):
        session.run(term, engine="batched")
    assert_bag_equal(session.run(term, engine="per-path").value, evaluate(term, figure3_database()))


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
