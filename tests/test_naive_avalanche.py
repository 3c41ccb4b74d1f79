"""Tests for the naive N+1 evaluator (the §1 query-avalanche behaviour)."""

from __future__ import annotations

import pytest

from repro.backend.executor import ExecutionStats
from repro.baselines.naive import AvalanchePipeline, avalanche_run
from repro.data import queries
from repro.data.generator import generate_organisation
from repro.nrc import builders as b
from repro.nrc.semantics import evaluate
from repro.pipeline.shredder import ShreddingPipeline
from repro.values import bag_equal


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(queries.NESTED_QUERIES))
    def test_matches_semantics(self, name, schema, db):
        query = queries.NESTED_QUERIES[name]
        assert bag_equal(avalanche_run(query, db), evaluate(query, db)), name

    def test_empty_database(self, empty_db):
        assert avalanche_run(queries.Q4, empty_db) == []

    def test_empty_normal_form(self, db):
        """``where false`` normalises to ∅: the result type comes from the
        original term, as in the shredding pipeline, and the answer is
        empty."""
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.const(False),
                b.ret(
                    b.record(
                        name=d["name"],
                        staff=b.for_(
                            "e",
                            b.table("employees"),
                            lambda e: b.where(
                                b.eq(e["dept"], d["name"]), b.ret(e["name"])
                            ),
                        ),
                    )
                ),
            ),
        )
        assert avalanche_run(query, db) == []
        assert ShreddingPipeline(db.schema).run(query, db) == []

    def test_matches_shredding(self, small_random_db):
        for name in ("Q1", "Q6"):
            query = queries.NESTED_QUERIES[name]
            assert bag_equal(
                avalanche_run(query, small_random_db),
                ShreddingPipeline(small_random_db.schema).run(
                    query, small_random_db
                ),
            )


class TestAvalancheBehaviour:
    """The point of the baseline: query count grows with the data."""

    def test_query_count_grows_with_departments(self, schema):
        compiled = AvalanchePipeline(schema).compile(queries.Q4)
        counts = []
        for departments in (2, 4, 8):
            db = generate_organisation(departments, 3, 2, seed=5)
            stats = ExecutionStats()
            compiled.run(db, stats=stats)
            counts.append(stats.queries)
        assert counts[0] < counts[1] < counts[2]
        # Q4: 1 outer query + one per department.
        assert counts == [3, 5, 9]

    def test_shredding_stays_constant_on_same_data(self, schema):
        pipeline = ShreddingPipeline(schema)
        compiled = pipeline.compile(queries.Q4)
        for departments in (2, 4, 8):
            db = generate_organisation(departments, 3, 2, seed=5)
            stats = ExecutionStats()
            compiled.run(db, stats=stats)
            assert stats.queries == 2  # nesting degree of Q4

    def test_three_level_avalanche(self, db):
        """Q6 on Fig. 3: 1 + 4 (departments) + 5 (people) = 10 queries."""
        stats = ExecutionStats()
        avalanche_run(queries.Q6, db, stats)
        assert stats.queries == 10

    def test_row_traffic_recorded(self, db):
        stats = ExecutionStats()
        avalanche_run(queries.Q1, db, stats)
        assert stats.rows_fetched > 0
        assert len(stats.per_query_rows) == stats.queries
