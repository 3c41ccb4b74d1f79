"""Result surface edge cases: ``to_dicts``/``sorted_by`` on deep nesting
and empty results — the wire protocol serialises through them, so their
shapes are a compatibility contract."""

from __future__ import annotations

import json

import pytest

from repro.api import connect
from repro.nrc import builders as b
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.types import INT, STRING


@pytest.fixture
def deep_session():
    """Three-level nesting: regions ▷ departments ▷ employees."""
    schema = Schema(
        (
            TableSchema("regions", (("name", STRING),)),
            TableSchema("depts", (("name", STRING), ("region", STRING))),
            TableSchema("staff", (("name", STRING), ("dept", STRING), ("pay", INT))),
        )
    )
    return connect(
        schema=schema,
        tables={
            "regions": [{"name": "east"}, {"name": "west"}],
            "depts": [
                {"name": "sales", "region": "east"},
                {"name": "rnd", "region": "east"},
                {"name": "ops", "region": "west"},
            ],
            "staff": [
                {"name": "ann", "dept": "sales", "pay": 10},
                {"name": "bob", "dept": "sales", "pay": 20},
                {"name": "cat", "dept": "rnd", "pay": 30},
            ],
        },
        cache=False,
    )


def _deep_query(session):
    return (
        session.table("regions", alias="r")
        .select(region="name")
        .nest(
            departments=lambda r: session.table("depts", alias="d")
            .where(lambda d: d.region == r.name)
            .select(department="name")
            .nest(
                members=lambda d: session.table("staff", alias="s")
                .where(lambda s: s.dept == d.name)
                .select("name", "pay")
            )
        )
    )


class TestToDicts:
    def test_three_levels_of_plain_containers(self, deep_session):
        rows = _deep_query(deep_session).run().to_dicts()
        by_region = {row["region"]: row for row in rows}
        assert set(by_region) == {"east", "west"}
        east = sorted(
            by_region["east"]["departments"], key=lambda d: d["department"]
        )
        assert [d["department"] for d in east] == ["rnd", "sales"]
        sales = next(d for d in east if d["department"] == "sales")
        assert sorted(m["name"] for m in sales["members"]) == ["ann", "bob"]
        # Leaves are plain base values; every container is list/dict.
        assert all(
            isinstance(member["pay"], int)
            for row in rows
            for dept in row["departments"]
            for member in dept["members"]
        )

    def test_deep_result_is_json_serialisable(self, deep_session):
        # The wire protocol's exact requirement.
        rows = _deep_query(deep_session).run().to_dicts()
        assert json.loads(json.dumps(rows)) == rows

    def test_empty_top_level(self, deep_session):
        rows = (
            deep_session.table("regions")
            .where(lambda r: r.name == "nowhere")
            .select("name")
            .run()
            .to_dicts()
        )
        assert rows == []

    def test_empty_inner_bags_are_empty_lists(self, deep_session):
        rows = _deep_query(deep_session).run().to_dicts()
        west = next(row for row in rows if row["region"] == "west")
        ops = west["departments"][0]
        assert ops["members"] == []

    def test_empty_literal_query(self, deep_session):
        from repro.nrc.types import bag, record_type

        result = deep_session.run(
            b.empty_bag(record_type(n=bag(record_type(k=INT))))
        )
        assert result.to_dicts() == []
        assert len(result) == 0
        assert list(result) == []


class TestSortedBy:
    def test_sorts_by_single_and_multiple_labels(self, deep_session):
        result = deep_session.table("staff").select("name", "pay").run()
        assert [row["name"] for row in result.sorted_by("name")] == [
            "ann",
            "bob",
            "cat",
        ]
        by_pay_desc = result.sorted_by("pay")
        assert [row["pay"] for row in by_pay_desc] == [10, 20, 30]
        two_keys = (
            deep_session.table("depts").select("region", "name").run()
        )
        assert [
            (row["region"], row["name"])
            for row in two_keys.sorted_by("region", "name")
        ] == [("east", "rnd"), ("east", "sales"), ("west", "ops")]

    def test_sorted_by_on_empty_result(self, deep_session):
        result = (
            deep_session.table("staff")
            .where(lambda s: s.pay > 1000)
            .select("name", "pay")
            .run()
        )
        assert result.sorted_by("name") == []
        assert result.sorted_by("pay", "name") == []

    def test_sorted_by_nested_rows(self, deep_session):
        result = _deep_query(deep_session).run()
        regions = [row["region"] for row in result.sorted_by("region")]
        assert regions == ["east", "west"]

    def test_sorted_by_unknown_label_raises_key_error(self, deep_session):
        result = deep_session.table("staff").select("name").run()
        with pytest.raises(KeyError):
            result.sorted_by("salary")


class TestResultMisc:
    def test_indexing_and_render_survive_empties(self, deep_session):
        result = (
            deep_session.table("regions")
            .where(lambda r: r.name == "nowhere")
            .select("name")
            .run()
        )
        assert result.render() == "∅"
        with pytest.raises(IndexError):
            result[0]

    def test_stats_requires_a_run(self, deep_session):
        # A run's counters ride on its Result: a prepared query holds none,
        # and each run's Result carries its own.
        prepared = deep_session.table("staff").select("name").prepare()
        assert not hasattr(prepared, "stats")
        first, second = prepared.run(), prepared.run()
        assert first.stats is not second.stats
        assert first.stats.queries == second.stats.queries == prepared.query_count
        assert first.stats.rows_fetched == len(first) == 3
