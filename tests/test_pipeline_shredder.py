"""End-to-end tests of the shredding pipeline (Fig. 1c) against SQLite."""

from __future__ import annotations

import itertools

import pytest

from repro.backend.executor import ExecutionStats
from repro.data import queries
from repro.errors import ShreddingError
from repro.nrc import builders as b
from repro.nrc.semantics import evaluate
from repro.nrc.types import nesting_degree
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

from .conftest import run_per_path

ALL_QUERIES = {**queries.FLAT_QUERIES, **queries.NESTED_QUERIES}


class TestFixedNumberOfQueries:
    """§1: shredding issues exactly nesting_degree(A) queries, independent of
    the data — the headline claim against the N+1 problem."""

    @pytest.mark.parametrize("name", sorted(queries.NESTED_QUERIES))
    def test_query_count(self, name, schema, db):
        pipeline = ShreddingPipeline(schema)
        compiled = pipeline.compile(queries.NESTED_QUERIES[name])
        assert compiled.query_count == nesting_degree(compiled.result_type)
        stats = ExecutionStats()
        compiled.run(db, stats=stats)
        assert stats.queries == compiled.query_count

    def test_count_does_not_grow_with_data(self, schema):
        from repro.data.generator import generate_organisation

        pipeline = ShreddingPipeline(schema)
        compiled = pipeline.compile(queries.Q6)
        for departments in (1, 4):
            db = generate_organisation(departments, 3, 2, seed=1)
            stats = ExecutionStats()
            compiled.run(db, stats=stats)
            assert stats.queries == 3


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_sql_matches_semantics_fig3(self, name, schema, db):
        query = ALL_QUERIES[name]
        assert bag_equal(run_per_path(query, db), evaluate(query, db)), name

    @pytest.mark.parametrize("name", sorted(queries.NESTED_QUERIES))
    def test_sql_matches_semantics_random(self, name, schema, small_random_db):
        query = queries.NESTED_QUERIES[name]
        assert bag_equal(
            run_per_path(query, small_random_db), evaluate(query, small_random_db)
        ), name

    @pytest.mark.parametrize("name", ["Q1", "Q4", "Q6"])
    def test_empty_database(self, name, empty_db):
        assert run_per_path(queries.NESTED_QUERIES[name], empty_db) == []

    @pytest.mark.parametrize(
        "scheme,inline,keys",
        [
            p
            for p in itertools.product(
                ["flat", "natural"], [False, True], [False, True]
            )
            if not (p[0] == "natural" and (p[1] or p[2]))
        ],
    )
    def test_all_option_combinations_on_q6(self, scheme, inline, keys, db):
        options = SqlOptions(
            scheme=scheme, inline_with=inline, order_by_keys=keys
        )
        out = run_per_path(queries.Q6, db, options)
        assert bag_equal(out, evaluate(queries.Q6, db))

    def test_in_memory_matches_sql(self, schema, db):
        pipeline = ShreddingPipeline(schema)
        compiled = pipeline.compile(queries.Q6)
        via_sql = compiled.run(db)
        for scheme in ("canonical", "natural", "flat"):
            via_memory = compiled.run_in_memory(db, scheme)
            assert bag_equal(via_sql, via_memory), scheme


class TestApi:
    def test_session_sql_returns_pairs(self, schema):
        from repro.api import connect

        pairs = connect(schema=schema, cache=False).sql(queries.Q6)
        assert [p for p, _ in pairs] == ["ε", "↓.people", "↓.people.↓.tasks"]
        assert all("SELECT" in sql for _, sql in pairs)

    def test_lazy_export_from_top_package(self):
        import repro

        assert repro.ShreddingPipeline is ShreddingPipeline
        with pytest.raises(AttributeError):
            repro.nonexistent_name

    def test_non_bag_query_rejected(self, schema):
        pipeline = ShreddingPipeline(schema)
        with pytest.raises(Exception):
            pipeline.compile(b.const(1))

    def test_compiled_is_reusable_across_databases(self, schema, db, empty_db):
        compiled = ShreddingPipeline(schema).compile(queries.Q4)
        full = compiled.run(db)
        empty = compiled.run(empty_db)
        assert len(full) == 4 and empty == []


class TestEdgeCases:
    def test_constant_query(self, db):
        query = b.ret(b.record(answer=b.const(42)))
        assert run_per_path(query, db) == [{"answer": 42}]

    def test_constant_nested_query(self, db):
        query = b.ret(b.record(xs=b.bag_of(b.const(1), b.const(2))))
        out = run_per_path(query, db)
        assert bag_equal(out, [{"xs": [1, 2]}])

    def test_empty_bag_query(self, db):
        from repro.nrc.types import INT

        query = b.empty_bag(INT)
        assert run_per_path(query, db) == []

    def test_union_of_literal_bags(self, db):
        query = b.union(
            b.ret(b.record(n=b.const(1))), b.ret(b.record(n=b.const(2)))
        )
        assert bag_equal(run_per_path(query, db), [{"n": 1}, {"n": 2}])

    def test_deeply_nested_constant(self, db):
        query = b.ret(
            b.record(level1=b.ret(b.record(level2=b.ret(b.const("deep")))))
        )
        out = run_per_path(query, db)
        assert out == [{"level1": [{"level2": ["deep"]}]}]

    def test_boolean_columns_round_trip(self, db):
        query = b.for_(
            "c",
            b.table("contacts"),
            lambda c: b.ret(b.record(name=c["name"], client=c["client"])),
        )
        out = run_per_path(query, db)
        assert {row["name"]: row["client"] for row in out}["Pat"] is True

    def test_emptiness_in_result_field(self, db):
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.ret(
                b.record(
                    name=d["name"],
                    has_emps=b.not_(
                        b.is_empty(
                            b.for_(
                                "e",
                                b.table("employees"),
                                lambda e: b.where(
                                    b.eq(e["dept"], d["name"]),
                                    b.ret(b.record()),
                                ),
                            )
                        )
                    ),
                )
            ),
        )
        out = run_per_path(query, db)
        flags = {row["name"]: row["has_emps"] for row in out}
        assert flags == {
            "Product": True,
            "Quality": False,
            "Research": True,
            "Sales": True,
        }


class TestExplain:
    def test_explain_contains_all_sections(self, schema):
        from repro.data.queries import Q6

        report = ShreddingPipeline(schema).compile(Q6).explain()
        assert "result type" in report
        assert "nesting degree : 3" in report
        assert "return^a" in report  # the normal form
        assert report.count("── query at") == 3
        assert '"x2"."id"' in report  # key-indexed SQL (employees, below the pin)

    def test_explain_says_which_scheme_runs_and_why(self, schema):
        from repro.data.queries import Q4
        from repro.sql.codegen import SqlOptions

        from .strategies import without_key

        def scheme_line(schema, options=None):
            report = ShreddingPipeline(schema, options).compile(Q4).explain()
            return next(
                line for line in report.splitlines() if "index scheme" in line
            )

        assert scheme_line(schema) == "index scheme   : natural: keys"
        assert scheme_line(schema, SqlOptions(scheme="flat")) == (
            "index scheme   : flat: forced by options"
        )
        assert scheme_line(without_key(schema, "tasks")) == (
            "index scheme   : flat: table 'tasks' declares no key"
        )
