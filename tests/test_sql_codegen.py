"""Tests for SQL generation (§7) and rendering."""

from __future__ import annotations

import pytest

from repro.data import queries
from repro.errors import SqlGenerationError
from repro.normalise import normalise
from repro.nrc.typecheck import infer
from repro.nrc.types import BagType
from repro.shred.paths import paths, type_at
from repro.shred.translate import shred_query
from repro.sql.ast import (
    BinOp,
    Col,
    Lit,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    SelectItem,
    Statement,
    TableRef,
)
from repro.sql.codegen import SqlOptions, compile_shredded
from repro.sql.render import render_expr, render_select, render_statement


FLAT = SqlOptions(scheme="flat")


def _compile_all(query, schema, options=SqlOptions()):
    nf = normalise(query, schema)
    a = infer(query, schema)
    out = []
    for path in paths(a):
        bag = type_at(a, path)
        assert isinstance(bag, BagType)
        out.append(
            compile_shredded(shred_query(nf, path), bag.element, schema, options)
        )
    return out


class TestRender:
    def test_literals(self):
        assert render_expr(Lit(1)) == "1"
        assert render_expr(Lit("o'brien")) == "'o''brien'"
        assert render_expr(Lit(True)) == "1"
        assert render_expr(Lit(None)) == "NULL"

    def test_col_and_binop(self):
        e = BinOp("=", Col("x", "name"), Lit("a"))
        assert render_expr(e) == "(\"x\".\"name\" = 'a')"

    def test_not(self):
        assert render_expr(NotOp(Lit(True))) == "(NOT 1)"

    def test_row_number(self):
        e = RowNumber((Col("x", "id"),))
        assert render_expr(e) == 'ROW_NUMBER() OVER (ORDER BY "x"."id")'
        assert render_expr(RowNumber(())) == "ROW_NUMBER() OVER ()"

    def test_not_exists(self):
        core = SelectCore((), (TableRef("t", "x"),), Lit(True))
        assert render_expr(NotExists(core)) == (
            '(NOT EXISTS (SELECT 1 FROM "t" AS "x" WHERE 1))'
        )

    def test_select_without_from(self):
        core = SelectCore((SelectItem(Lit(1), "one"),), (), None)
        assert render_select(core) == 'SELECT 1 AS "one"'

    def test_statement_with_cte_and_union(self):
        core = SelectCore((SelectItem(Lit(1), "c"),), (), None)
        statement = Statement((("q1", core),), (core, core), ("c",))
        text = render_statement(statement, pretty=False)
        assert text.startswith('WITH "q1" AS (')
        assert "UNION ALL" in text

    def test_empty_statement_rejected(self):
        with pytest.raises(SqlGenerationError):
            render_statement(Statement((), (), ()))


class TestFlatCodegen:
    """The let-inserted ``ROW_NUMBER`` form (§6.2/§7) — forced here; it is
    also what a schema with a keyless table resolves to."""

    def test_q6_produces_three_statements(self, schema):
        compiled = _compile_all(queries.Q6, schema, FLAT)
        assert len(compiled) == 3

    def test_leaf_query_has_no_rownumber_item(self, schema):
        compiled = _compile_all(queries.Q6, schema, FLAT)
        # The innermost query (tasks) has no nested bags below it, so no
        # ROW_NUMBER appears in its SELECT items (only in its CTEs).
        innermost = compiled[2]
        for select in innermost.statement.selects:
            for item in select.items:
                assert not isinstance(item.expr, RowNumber)

    def test_non_leaf_query_numbers_rows(self, schema):
        compiled = _compile_all(queries.Q6, schema, FLAT)
        top = compiled[0]
        kinds = [
            type(item.expr)
            for select in top.statement.selects
            for item in select.items
        ]
        assert RowNumber in kinds

    def test_union_branches_share_columns(self, schema):
        compiled = _compile_all(queries.Q6, schema, FLAT)
        for c in compiled:
            alias_lists = [
                tuple(item.alias for item in select.items)
                for select in c.statement.selects
            ]
            assert len(set(alias_lists)) == 1

    def test_inline_with_removes_ctes(self, schema):
        inline = SqlOptions(scheme="flat", inline_with=True)
        compiled = _compile_all(queries.Q6, schema, inline)
        for c in compiled:
            assert c.statement.ctes == ()
        # Still executable and equivalent (checked in pipeline tests).

    def test_order_by_keys_reduces_order_columns(self, schema):
        default = _compile_all(queries.Q6, schema, FLAT)[2]
        keyed = _compile_all(
            queries.Q6, schema, SqlOptions(scheme="flat", order_by_keys=True)
        )[2]
        assert len(keyed.sql) < len(default.sql)
        assert "ORDER BY" in keyed.sql

    def test_empty_probe_renders_not_exists(self, schema):
        compiled = _compile_all(queries.QF5, schema)[0]
        assert "NOT EXISTS" in compiled.sql

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SqlGenerationError):
            SqlOptions(scheme="bogus")


class TestNaturalCodegen:
    def test_no_row_number_anywhere(self, schema):
        compiled = _compile_all(
            queries.Q6, schema, SqlOptions(scheme="natural")
        )
        for c in compiled:
            assert "ROW_NUMBER" not in c.sql
            assert c.statement.ctes == ()

    def test_null_padding_for_uneven_branches(self, schema):
        # §6.1: "the need to pad some subqueries with null columns" — a
        # union whose branches bind 3 vs 2 generators at the same level.
        # (tests/test_property_pipeline.py runs it against the oracle.)
        from .strategies import asymmetric_union_query

        compiled = _compile_all(asymmetric_union_query(), schema)
        middle = compiled[1]  # the `people` query: 3 vs 2 generators
        assert middle.natural and "NULL" in middle.sql
        assert [
            sum(isinstance(item.expr, Col) for item in select.items
                if item.alias.startswith("item_stuff_dyn"))
            for select in middle.statement.selects
        ] == [3, 2]

    def test_key_columns_in_select(self, schema):
        compiled = _compile_all(
            queries.Q6, schema, SqlOptions(scheme="natural")
        )[1]
        assert '"id"' in compiled.sql


class TestDecodeRows:
    def test_decode_round_trip(self, schema, db):
        compiled = _compile_all(queries.Q6, schema, FLAT)[1]
        pairs = compiled.decode_rows(db.execute_sql(compiled.sql))
        from repro.shred.indexes import FlatIndex

        assert all(isinstance(outer, FlatIndex) for outer, _ in pairs)
        names = sorted(value["name"] for _, value in pairs)
        assert names == ["Bert", "Erik", "Fred", "Pat", "Sue"]

    def test_decode_natural(self, schema, db):
        compiled = _compile_all(
            queries.Q6, schema, SqlOptions(scheme="natural")
        )[1]
        pairs = compiled.decode_rows(db.execute_sql(compiled.sql))
        from repro.shred.indexes import NaturalIndex

        assert all(isinstance(outer, NaturalIndex) for outer, _ in pairs)
        # §3: Bert's tasks index carries the two ids ⟨1, 2⟩.
        bert = next(v for _, v in pairs if v["name"] == "Bert")
        assert bert["tasks"] == NaturalIndex("b", (1, 2))
