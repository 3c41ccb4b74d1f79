"""Tests for the optimizer's fired-rule trace.

``CompiledSql.fired_rules`` records which optimizer rules actually changed
each statement; ``CompiledQuery.fired_rules`` aggregates them per package;
``Prepared.explain()`` and ``ExecutionStats.rules_fired`` surface them.
The census below pins, per registry query and plan shape, which rules fire
and the SQL they leave behind.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import connect
from repro.backend.executor import ExecutionStats
from repro.data.organisation import figure3_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.pipeline.shredder import ShreddingPipeline
from repro.service.registry import paper_registry
from repro.sql.codegen import SqlOptions

from repro.data.organisation import ORGANISATION_SCHEMA as SCHEMA

ALL_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}
REGISTRY = paper_registry()

#: The CTE rules (dedup, prune) work on the let-inserted flat form; the
#: organisation schema's default is key-indexed and CTE-free.
OPT = SqlOptions(scheme="flat", optimize=True)

PRUNE = ("opt_prune",)
#: The measured census: plan shape → registry query → (rules fired, first
#: 16 hex digits of the sha256 of the package's statements joined by
#: newlines).  Key-indexed plans have no CTE, so only Q2's ``NOT NOT``
#: gives a rule anything to do; on the ``ROW_NUMBER`` form prune narrows
#: every outer CTE and Q6's sibling branches share one.  A deliberate
#: change to the generated SQL updates the digests here.
CENSUS = {
    SqlOptions(): {
        "Q1": ((), "5eb2b1a2d1d1e48d"),
        "Q2": ((), "391e94431991585d"),
        "Q3": ((), "5ca2528e6b06f562"),
        "Q4": ((), "fea18f3b60d5f009"),
        "Q5": ((), "e771c79825a8759b"),
        "Q6": ((), "3cbc1d8433abdecb"),
        "dept_staff": ((), "70160c7696d786c2"),
        "staff_above": ((), "4442a0edb2a0dd62"),
    },
    SqlOptions(scheme="flat"): {
        "Q1": ((), "2bf131e32538f37a"),
        "Q2": ((), "391e94431991585d"),
        "Q3": ((), "4042b491adb64f16"),
        "Q4": ((), "d10ca3d116445d63"),
        "Q5": ((), "687f031cfdfd0a08"),
        "Q6": ((), "b0cf352be626d296"),
        "dept_staff": ((), "5335091b8181146a"),
        "staff_above": ((), "4442a0edb2a0dd62"),
    },
    SqlOptions(optimize=True): {
        "Q1": ((), "5eb2b1a2d1d1e48d"),
        "Q2": (("opt_fold",), "0e20f79149a347bd"),
        "Q3": ((), "5ca2528e6b06f562"),
        "Q4": ((), "fea18f3b60d5f009"),
        "Q5": ((), "e771c79825a8759b"),
        "Q6": ((), "3cbc1d8433abdecb"),
        "dept_staff": ((), "70160c7696d786c2"),
        "staff_above": ((), "4442a0edb2a0dd62"),
    },
    OPT: {
        "Q1": (PRUNE, "c796e1ea6becb1f2"),
        "Q2": (("opt_fold",), "0e20f79149a347bd"),
        "Q3": (PRUNE, "9be53ab604df8cac"),
        "Q4": (PRUNE, "32021b3fdae2bce0"),
        "Q5": (PRUNE, "cf00a2e5ebe4d576"),
        "Q6": (("opt_dedup", "opt_prune"), "31bf3b74887edba7"),
        "dept_staff": (PRUNE, "9b89d5adfd9c2768"),
        "staff_above": ((), "4442a0edb2a0dd62"),
    },
}


class TestFiredRuleTrace:
    @pytest.mark.parametrize(
        "options",
        list(CENSUS),
        ids=["default", "flat", "default+optimize", "flat+optimize"],
    )
    def test_census_of_fired_rules_and_generated_sql(self, options):
        assert sorted(CENSUS[options]) == REGISTRY.names()
        for name, (fired, digest) in CENSUS[options].items():
            compiled = ShreddingPipeline(SCHEMA, options).compile(
                REGISTRY.lookup(name).term
            )
            assert compiled.fired_rules == fired, name
            sql = "\n".join(sql for _path, sql in compiled.sql_by_path)
            assert hashlib.sha256(sql.encode()).hexdigest()[:16] == digest, name

    def test_optimizer_off_traces_nothing(self):
        compiled = ShreddingPipeline(SCHEMA, SqlOptions()).compile(
            NESTED_QUERIES["Q6"]
        )
        assert compiled.fired_rules == ()

    def test_q6_fires_dedup_and_prune(self):
        compiled = ShreddingPipeline(
            SCHEMA, OPT
        ).compile(NESTED_QUERIES["Q6"])
        assert "opt_dedup" in compiled.fired_rules
        assert "opt_prune" in compiled.fired_rules

    def test_key_indexed_default_gives_the_cte_rules_nothing(self):
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(optimize=True)
        ).compile(NESTED_QUERIES["Q6"])
        assert compiled.index_scheme == "natural: keys"
        assert compiled.fired_rules == ()

    def test_trace_order_follows_rule_order(self):
        from repro.sql.optimizer import statement_rule_names

        order = [name for name, _ in statement_rule_names]
        for name, query in ALL_QUERIES.items():
            compiled = ShreddingPipeline(
                SCHEMA, OPT
            ).compile(query)
            fired = list(compiled.fired_rules)
            assert fired == sorted(fired, key=order.index), name


class TestExplainAndStats:
    def test_explain_shows_fired_rules(self):
        with connect(figure3_database(), options=OPT) as s:
            report = s.explain(NESTED_QUERIES["Q6"])
        assert "rules fired" in report
        assert "opt_dedup" in report

    def test_explain_shows_inert_optimizer(self):
        # Flat single-statement queries give the optimizer nothing to do.
        flat = FLAT_QUERIES["QF2"]
        with connect(figure3_database(), options=OPT) as s:
            compiled = s.compile(flat)
            report = s.explain(flat)
        assert compiled.fired_rules == ()
        assert "none (all inert)" in report

    def test_explain_omits_rules_when_optimizer_off(self):
        with connect(figure3_database()) as s:
            report = s.explain(NESTED_QUERIES["Q6"])
        assert "rules fired" not in report

    def test_session_stats_accumulate_rules(self):
        with connect(
            figure3_database(), options=OPT, cache=False
        ) as s:
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            once = dict(s.stats.rules_fired)
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            twice = dict(s.stats.rules_fired)
        assert once.get("opt_dedup", 0) >= 1
        assert twice["opt_dedup"] == 2 * once["opt_dedup"]

    def test_cache_hits_still_record_rules(self):
        from repro.pipeline.plan_cache import PlanCache

        with connect(
            figure3_database(),
            options=OPT,
            cache=PlanCache(),
        ) as s:
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            assert s.stats.cache_hits >= 1
            assert s.stats.rules_fired.get("opt_dedup", 0) >= 2

    def test_stats_merge_sums_rule_counts(self):
        left = ExecutionStats()
        left.rules_fired = {"opt_fold": 1, "opt_prune": 2}
        right = ExecutionStats()
        right.rules_fired = {"opt_fold": 2}
        left.merge(right)
        assert left.rules_fired == {"opt_fold": 3, "opt_prune": 2}
