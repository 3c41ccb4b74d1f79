"""Integration on a non-organisation schema: the social-feed example
(4-level nesting), end to end across systems."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))

from social_feed import SOCIAL_SCHEMA, feed_query, sample_database  # noqa: E402

from repro.api import connect
from repro.baselines.looplifting import LoopLiftingPipeline
from repro.baselines.naive import AvalanchePipeline
from repro.nrc.semantics import evaluate
from repro.nrc.types import nesting_degree
from repro.nrc.typecheck import infer
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal


@pytest.fixture(scope="module")
def social_db():
    return sample_database()


@pytest.fixture(scope="module")
def query():
    # The example builds the feed with the fluent façade; lowering it to a
    # λNRC term lets every baseline system below consume the same query.
    return feed_query(connect(schema=SOCIAL_SCHEMA)).term()


class TestFeed:
    def test_nesting_degree_four(self, query):
        assert nesting_degree(infer(query, SOCIAL_SCHEMA)) == 4

    def test_expected_content(self, social_db, query):
        result = evaluate(query, social_db)
        edinburgh = next(r for r in result if r["city"] == "Edinburgh")
        ada = next(p for p in edinburgh["people"] if p["user"] == "ada")
        shredding_post = next(
            p for p in ada["posts"] if p["title"] == "On shredding"
        )
        assert sorted(shredding_post["comments"]) == ["+1", "nice"]
        brendan = next(p for p in edinburgh["people"] if p["user"] == "brendan")
        assert brendan["posts"] == []

    def test_shredding_four_queries(self, social_db, query):
        compiled = ShreddingPipeline(
            SOCIAL_SCHEMA, SqlOptions(verify=True)
        ).compile(query)
        assert compiled.query_count == 4
        assert bag_equal(compiled.run(social_db), evaluate(query, social_db))

    @pytest.mark.parametrize(
        "options",
        [SqlOptions(), SqlOptions(scheme="natural"), SqlOptions(optimize=True)],
        ids=["flat", "natural", "dedup-cte"],
    )
    def test_sql_variants(self, social_db, query, options):
        out = ShreddingPipeline(SOCIAL_SCHEMA, options).run(query, social_db)
        assert bag_equal(out, evaluate(query, social_db))

    def test_loop_lifting(self, social_db, query):
        out = LoopLiftingPipeline(SOCIAL_SCHEMA).run(query, social_db)
        assert bag_equal(out, evaluate(query, social_db))

    def test_avalanche(self, social_db, query):
        out = AvalanchePipeline(SOCIAL_SCHEMA).run(query, social_db)
        assert bag_equal(out, evaluate(query, social_db))

    def test_list_semantics(self, social_db, query):
        pipeline = ShreddingPipeline(SOCIAL_SCHEMA, SqlOptions(ordered=True))
        out = pipeline.compile(query).run(social_db, collection="list")
        assert out == evaluate(query, social_db)

    def test_integer_join_keys(self, social_db, query):
        """comments join posts on an *integer* column (post_id = p.id) —
        exercises non-string equality through every translation stage."""
        result = ShreddingPipeline(SOCIAL_SCHEMA).run(query, social_db)
        totals = sum(
            len(post["comments"])
            for city in result
            for person in city["people"]
            for post in person["posts"]
        )
        assert totals == 3
