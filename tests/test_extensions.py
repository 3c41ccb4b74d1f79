"""Tests for the §9 extensions: set/list semantics and CTE deduplication."""

from __future__ import annotations

import pytest

from repro.data import queries
from repro.errors import ShreddingError, SqlGenerationError
from repro.nrc.semantics import evaluate
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal, dedup_nested


class TestDedupNested:
    def test_flat_dedup(self):
        assert dedup_nested([1, 1, 2]) == [1, 2]

    def test_hereditary(self):
        # Inner bags dedup first, making the two outer elements equal.
        value = [{"xs": [1, 1]}, {"xs": [1]}]
        assert dedup_nested(value) == [{"xs": [1]}]

    def test_order_of_first_occurrence_kept(self):
        assert dedup_nested([3, 1, 3, 1, 2]) == [3, 1, 2]

    def test_scalar_passthrough(self):
        assert dedup_nested(5) == 5


class TestSetSemantics:
    def test_duplicates_eliminated(self, schema, db):
        compiled = ShreddingPipeline(schema).compile(queries.QF4)
        bag = compiled.run(db)
        as_set = compiled.run(db, collection="set")
        assert len(as_set) < len(bag)  # Drew appears twice in the bag
        assert bag_equal(as_set, dedup_nested(bag))

    def test_nested_set_semantics(self, schema, db):
        compiled = ShreddingPipeline(schema).compile(queries.Q6)
        as_set = compiled.run(db, collection="set")
        assert bag_equal(as_set, dedup_nested(evaluate(queries.Q6, db)))

    def test_unknown_collection_rejected(self, schema, db):
        compiled = ShreddingPipeline(schema).compile(queries.Q4)
        with pytest.raises(ShreddingError):
            compiled.run(db, collection="tree")


class TestListSemantics:
    @pytest.mark.parametrize("name", ["Q1", "Q4", "Q6"])
    def test_matches_list_semantics_exactly(self, name, schema, db):
        """Ordered shredding reproduces N⟦−⟧'s *list* (not just multiset)."""
        query = queries.NESTED_QUERIES[name]
        pipeline = ShreddingPipeline(schema, SqlOptions(ordered=True))
        out = pipeline.compile(query).run(db, collection="list")
        assert out == evaluate(query, db)

    def test_deterministic_across_runs(self, schema, db):
        compiled = ShreddingPipeline(schema, SqlOptions(ordered=True)).compile(
            queries.Q6
        )
        assert compiled.run(db, collection="list") == compiled.run(
            db, collection="list"
        )

    def test_list_mode_requires_ordered_compilation(self, schema, db):
        compiled = ShreddingPipeline(schema).compile(queries.Q4)
        with pytest.raises(ShreddingError):
            compiled.run(db, collection="list")

    def test_ordered_requires_flat_scheme(self):
        with pytest.raises(SqlGenerationError):
            SqlOptions(scheme="natural", ordered=True)

    def test_ordering_columns_in_sql(self, schema):
        compiled = ShreddingPipeline(schema, SqlOptions(ordered=True)).compile(
            queries.Q4
        )
        for _, sql in compiled.sql_by_path:
            assert "__branch" in sql and "ORDER BY" in sql

    def test_bag_mode_still_correct_when_ordered(self, schema, db):
        pipeline = ShreddingPipeline(schema, SqlOptions(ordered=True))
        out = pipeline.run(queries.Q6, db)
        assert bag_equal(out, evaluate(queries.Q6, db))


class TestCteDedup:
    def test_identical_ctes_shared(self, schema):
        plain = ShreddingPipeline(
            schema, SqlOptions(scheme="flat")
        ).compile(queries.Q6)
        deduped = ShreddingPipeline(
            schema, SqlOptions(scheme="flat", optimize=True)
        ).compile(queries.Q6)
        people = "↓.people"
        assert dict(plain.sql_by_path)[people].count(" AS (SELECT") == 2
        assert dict(deduped.sql_by_path)[people].count(" AS (SELECT") == 1

    def test_results_unchanged(self, schema, db):
        deduped = ShreddingPipeline(
            schema, SqlOptions(scheme="flat", optimize=True)
        )
        for name, query in queries.NESTED_QUERIES.items():
            assert bag_equal(
                deduped.run(query, db), evaluate(query, db)
            ), name

    def test_distinct_ctes_not_merged(self, schema, db):
        # Q1's employees and contacts levels share the departments CTE, but
        # the tasks level needs departments×employees — a different body.
        deduped = ShreddingPipeline(
            schema, SqlOptions(scheme="flat", optimize=True)
        ).compile(queries.Q1)
        tasks_sql = dict(deduped.sql_by_path)["↓.employees.↓.tasks"]
        assert "employees" in tasks_sql
        assert bag_equal(deduped.run(db), evaluate(queries.Q1, db))
