"""Tests for the Links-default flat pipeline (Fig. 1a) and the Fig. 8 SQL."""

from __future__ import annotations

import pytest

from repro.data import queries
from repro.errors import NotNormalisableError
from repro.nrc import builders as b
from repro.nrc.semantics import evaluate
from repro.pipeline.flat import compile_flat_query, run_flat, run_raw_sql
from repro.values import assert_bag_equal, bag_equal, dedup_nested


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(queries.FLAT_QUERIES))
    def test_matches_semantics(self, name, schema, db):
        query = queries.FLAT_QUERIES[name]
        assert bag_equal(run_flat(query, db), evaluate(query, db)), name

    @pytest.mark.parametrize("name", sorted(queries.FLAT_QUERIES))
    def test_matches_semantics_random(self, name, schema, small_random_db):
        query = queries.FLAT_QUERIES[name]
        assert bag_equal(
            run_flat(query, small_random_db), evaluate(query, small_random_db)
        ), name

    def test_q2_is_flat_despite_nested_source(self, schema, db):
        # Q2 consumes the nested Q1 but produces a flat result, so the
        # default pipeline handles it after normalisation (§2.2).
        out = run_flat(queries.Q2, db)
        assert bag_equal(out, evaluate(queries.Q2, db))
        assert sorted(r["dept"] for r in out) == ["Quality", "Research"]

    def test_empty_normal_form(self, schema, db):
        """``where false`` normalises to ∅, which erases the element type:
        the result type comes from the original term, and the statement
        returns no rows."""
        query = b.for_(
            "x",
            b.table("employees"),
            lambda x: b.where(b.const(False), b.ret(b.record(name=x["name"]))),
        )
        compiled = compile_flat_query(query, schema)
        assert compiled.columns == ("name",)
        assert run_flat(query, db) == []

    def test_single_statement(self, schema):
        compiled = compile_flat_query(queries.QF4, schema)
        assert compiled.sql.count("UNION ALL") == 1
        assert "ROW_NUMBER" not in compiled.sql


class TestRejection:
    def test_nested_query_rejected(self, schema):
        with pytest.raises(NotNormalisableError):
            compile_flat_query(queries.Q1, schema)

    def test_nested_field_rejected(self, schema):
        with pytest.raises(NotNormalisableError):
            compile_flat_query(queries.Q4, schema)


class TestRawFig8Sql:
    """The hand-written Fig. 8 SQL agrees with the λNRC versions (set-wise
    for QF5/QF6, whose MINUS is set-difference; see data/queries.py)."""

    @pytest.mark.parametrize("name", ["QF1", "QF2", "QF3", "QF4"])
    def test_bag_agreement(self, name, db):
        raw = run_raw_sql(db, queries.QF_SQL[name], _columns(name))
        ours = run_flat(queries.FLAT_QUERIES[name], db)
        assert bag_equal(raw, ours), name

    @pytest.mark.parametrize("name", ["QF5", "QF6"])
    def test_set_agreement(self, name, db):
        # Fig. 8's MINUS is set-difference while the λNRC anti-join keeps
        # bag multiplicities, so QF5/QF6 agree as *sets* (see queries.py).
        raw = run_raw_sql(db, queries.QF_SQL[name], _columns(name))
        ours = run_flat(queries.FLAT_QUERIES[name], db)
        assert_bag_equal(dedup_nested(raw), dedup_nested(ours), name)

    def test_expected_rows_on_fig3(self, db):
        assert len(run_raw_sql(db, queries.QF_SQL["QF1"], ("emp",))) == 5
        assert len(run_raw_sql(db, queries.QF_SQL["QF2"], ("emp", "tsk"))) == 14
        assert run_raw_sql(db, queries.QF_SQL["QF3"], ("emp1", "emp2")) == []
        assert len(run_raw_sql(db, queries.QF_SQL["QF4"], ("emp",))) == 5
        assert run_raw_sql(db, queries.QF_SQL["QF5"], ("emp",)) == [
            {"emp": "Cora"}
        ]
        assert run_raw_sql(db, queries.QF_SQL["QF6"], ("emp",)) == []


class TestScalarResults:
    def test_bag_of_base(self, db):
        query = b.for_("d", b.table("departments"), lambda d: b.ret(d["name"]))
        out = run_flat(query, db)
        assert sorted(out) == ["Product", "Quality", "Research", "Sales"]


def _columns(name: str) -> tuple[str, ...]:
    return {
        "QF1": ("emp",),
        "QF2": ("emp", "tsk"),
        "QF3": ("emp1", "emp2"),
        "QF4": ("emp",),
        "QF5": ("emp",),
        "QF6": ("emp",),
    }[name]
