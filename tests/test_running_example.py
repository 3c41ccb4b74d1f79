"""The §3/§7 running example, pinned end to end (experiment E1).

Covers: the composed query Q(Qorg), Qcomp's shape, the generated SQL's
q′1/q′2 structure, and the final stitched value on the Fig. 3 instance.
"""

from __future__ import annotations

import pytest

from repro.data.queries import Q6, q_org, q_people
from repro.nrc.semantics import evaluate
from repro.pipeline.shredder import ShreddingPipeline
from repro.values import bag_equal

EXPECTED_RESULT = [
    {
        "department": "Product",
        "people": [
            {"name": "Bert", "tasks": ["build"]},
            {"name": "Pat", "tasks": ["buy"]},
        ],
    },
    {"department": "Quality", "people": []},
    {"department": "Research", "people": []},
    {
        "department": "Sales",
        "people": [
            {"name": "Erik", "tasks": ["call", "enthuse"]},
            {"name": "Fred", "tasks": ["call"]},
            {"name": "Sue", "tasks": ["buy"]},
        ],
    },
]


class TestComposition:
    def test_q6_is_q_composed_with_qorg(self, db):
        composed = q_people(q_org())
        assert bag_equal(evaluate(composed, db), evaluate(Q6, db))

    def test_direct_evaluation_matches_paper(self, db):
        assert bag_equal(evaluate(Q6, db), EXPECTED_RESULT)


class TestGeneratedSql:
    """§7's let-inserted ``ROW_NUMBER`` form of the running example (forced:
    the organisation schema's keys resolve to key-indexed plans by default;
    ``tests/test_plan_shape.py`` covers those)."""

    @pytest.fixture
    def compiled(self, schema):
        from repro.sql.codegen import SqlOptions

        return ShreddingPipeline(schema, SqlOptions(scheme="flat")).compile(Q6)

    @pytest.fixture
    def sql(self, compiled):
        return dict(compiled.sql_by_path)

    def test_three_queries(self, sql):
        assert set(sql) == {"ε", "↓.people", "↓.people.↓.tasks"}

    def test_q1_prime_shape(self, sql):
        """§7's q′1: a single SELECT over departments with one ROW_NUMBER."""
        q1 = sql["ε"]
        assert q1.count("SELECT") == 1
        assert q1.count("ROW_NUMBER") == 1
        assert "departments" in q1 and "UNION ALL" not in q1

    def test_q2_prime_shape(self, sql, compiled):
        """§7's q′2: WITH-bound department numbering, two UNION ALL branches
        (employees outliers ⊎ client contacts), static tags as literals —
        except the outer tag a, which both branches share: it is not
        projected, the decoder closes over it."""
        from repro.shred.paths import paths

        q2 = sql["↓.people"]
        assert q2.startswith("WITH")
        assert q2.count("UNION ALL") == 1
        assert "'b'" in q2 and "'d'" in q2 and "'a'" not in q2
        people = compiled.sql_at(paths(compiled.result_type)[1])
        assert dict(people.constants) == {"outer_tag": "a"}
        assert "employees" in q2 and "contacts" in q2
        assert "salary" in q2 and "1000000" in q2

    def test_q3_prime_buy_branch(self, sql):
        """The innermost query: the contacts branch returns the literal
        'buy' with no task generator."""
        q3 = sql["↓.people.↓.tasks"]
        assert "'buy'" in q3
        assert q3.count("UNION ALL") == 1

    def test_row_numbers_delayed_to_last_stage(self, sql):
        """The paper's design point: OLAP only where an inner index is
        needed — the innermost query's SELECT has no ROW_NUMBER item."""
        q3 = sql["↓.people.↓.tasks"]
        final_select = q3.rsplit("UNION ALL", 1)[1]
        assert "ROW_NUMBER" not in final_select


class TestEndToEnd:
    def test_stitched_result_matches_paper(self, schema, db):
        out = ShreddingPipeline(schema).run(Q6, db)
        assert bag_equal(out, EXPECTED_RESULT)

    def test_every_system_agrees(self, schema, db):
        from repro.baselines.looplifting import loop_lift_run
        from repro.baselines.naive import avalanche_run
        from repro.sql.codegen import SqlOptions

        outputs = {
            "shredding": ShreddingPipeline(schema).run(Q6, db),
            "shredding-flat": ShreddingPipeline(
                schema, SqlOptions(scheme="flat")
            ).run(Q6, db),
            "shredding-natural": ShreddingPipeline(
                schema, SqlOptions(scheme="natural")
            ).run(Q6, db),
            "loop-lifting": loop_lift_run(Q6, db),
            "avalanche": avalanche_run(Q6, db),
        }
        for name, out in outputs.items():
            assert bag_equal(out, EXPECTED_RESULT), name
