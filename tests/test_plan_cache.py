"""Plan-cache correctness: hits are value-identical to cold compiles, and
every compilation input participates in the key.

Covers the cache key machinery (term/schema fingerprints), LRU behaviour,
stats plumbing, the batched execution engine a cached plan typically runs
under, and — via Hypothesis over :mod:`tests.strategies` — the property
that its fold equals decode + stitch.  That a plan served warm from cache
answers like the semantics is one axis of ``tests/test_oracle_matrix.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.backend.executor import ExecutionStats
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.nrc import ast
from repro.nrc.ast import term_fingerprint
from repro.nrc.builders import for_, ret, table
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.types import INT, STRING
from repro.pipeline.plan_cache import PlanCache, plan_key, shared_plan_cache
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

from .strategies import queries_with_nesting

Q4 = NESTED_QUERIES["Q4"]
Q6 = NESTED_QUERIES["Q6"]


class TestFingerprints:
    def test_structurally_identical_terms_share_fingerprints(self):
        one = for_("x", table("departments"), ret(ast.Var("x")["name"]))
        two = for_("x", table("departments"), ret(ast.Var("x")["name"]))
        assert one is not two
        assert term_fingerprint(one) == term_fingerprint(two)

    def test_alpha_variants_fingerprint_apart(self):
        one = for_("x", table("departments"), ret(ast.Var("x")["name"]))
        two = for_("y", table("departments"), ret(ast.Var("y")["name"]))
        assert term_fingerprint(one) != term_fingerprint(two)

    def test_constants_of_different_types_fingerprint_apart(self):
        assert term_fingerprint(ast.Const(1)) != term_fingerprint(ast.Const("1"))
        assert term_fingerprint(ast.Const(True)) != term_fingerprint(ast.Const(1))

    def test_fingerprint_is_memoised_on_the_instance(self):
        term = for_("x", table("departments"), ret(ast.Var("x")["name"]))
        assert term_fingerprint(term) is term_fingerprint(term)

    def test_interning_shares_one_instance_per_structure(self):
        from repro.nrc.ast import intern_term

        one = intern_term(
            for_("x", table("departments"), ret(ast.Var("x")["name"]))
        )
        two = intern_term(
            for_("x", table("departments"), ret(ast.Var("x")["name"]))
        )
        assert one is two

    def test_schema_fingerprint_distinguishes_schemas(self):
        base = Schema((TableSchema("t", (("id", INT),), key=("id",)),))
        wider = Schema(
            (TableSchema("t", (("id", INT), ("s", STRING)), key=("id",)),)
        )
        rekeyed = Schema((TableSchema("t", (("id", INT),), key=()),))
        fingerprints = {
            base.fingerprint(),
            wider.fingerprint(),
            rekeyed.fingerprint(),
        }
        assert len(fingerprints) == 3
        assert base.fingerprint() == Schema(
            (TableSchema("t", (("id", INT),), key=("id",)),)
        ).fingerprint()


class TestCacheBehaviour:
    def test_repeat_compile_is_a_hit_returning_the_same_plan(self):
        cache = PlanCache()
        pipeline = ShreddingPipeline(ORGANISATION_SCHEMA, cache=cache)
        stats = ExecutionStats()
        first = pipeline.compile(Q4, stats=stats)
        second = pipeline.compile(Q4, stats=stats)
        assert first is second
        assert (stats.cache_misses, stats.cache_hits) == (1, 1)
        assert cache.stats()["hit_rate"] == 0.5

    def test_hit_results_are_value_identical_to_cold_compile(self, db):
        cache = PlanCache()
        pipeline = ShreddingPipeline(db.schema, cache=cache)
        cold = ShreddingPipeline(db.schema).compile(Q6).run(db)
        pipeline.compile(Q6)  # miss
        hit = pipeline.compile(Q6)  # hit
        assert bag_equal(hit.run(db), cold)
        assert bag_equal(hit.run(db, engine="batched"), cold)

    def test_differing_sql_options_miss(self):
        cache = PlanCache()
        flat = ShreddingPipeline(ORGANISATION_SCHEMA, cache=cache)
        natural = ShreddingPipeline(
            ORGANISATION_SCHEMA, SqlOptions(scheme="natural"), cache=cache
        )
        a = flat.compile(Q4)
        b = natural.compile(Q4)
        assert a is not b
        assert cache.hits == 0 and cache.misses == 2

    def test_differing_validate_flag_misses(self):
        cache = PlanCache()
        plain = ShreddingPipeline(ORGANISATION_SCHEMA, cache=cache)
        checked = ShreddingPipeline(
            ORGANISATION_SCHEMA, SqlOptions(verify=True), cache=cache
        )
        assert plain.compile(Q4) is not checked.compile(Q4)
        assert cache.misses == 2

    def test_schema_change_misses(self):
        # Same cache, same term, a schema with one extra table: distinct key.
        extended = Schema(
            ORGANISATION_SCHEMA.tables
            + (TableSchema("extra", (("id", INT),), key=("id",)),)
        )
        cache = PlanCache()
        ShreddingPipeline(ORGANISATION_SCHEMA, cache=cache).compile(Q4)
        ShreddingPipeline(extended, cache=cache).compile(Q4)
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 2

    def test_alpha_equivalent_but_distinct_terms_miss(self, db):
        one = for_("x", table("departments"), ret(ast.Var("x")["name"]))
        two = for_("y", table("departments"), ret(ast.Var("y")["name"]))
        key = plan_key(one, db.schema, SqlOptions())
        assert key != plan_key(two, db.schema, SqlOptions())

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        pipeline = ShreddingPipeline(ORGANISATION_SCHEMA, cache=cache)
        q1, q2, q3 = (NESTED_QUERIES[n] for n in ("Q1", "Q3", "Q4"))
        pipeline.compile(q1)
        pipeline.compile(q2)
        pipeline.compile(q1)  # refresh q1: q2 is now least recent
        pipeline.compile(q3)  # evicts q2
        assert len(cache) == 2
        assert cache.evictions == 1
        assert plan_key(q2, ORGANISATION_SCHEMA, SqlOptions()) not in cache
        assert plan_key(q1, ORGANISATION_SCHEMA, SqlOptions()) in cache

    def test_shared_cache_via_true(self):
        pipeline = ShreddingPipeline(ORGANISATION_SCHEMA, cache=True)
        assert pipeline.cache is shared_plan_cache()

    def test_cache_false_means_no_cache(self):
        pipeline = ShreddingPipeline(ORGANISATION_SCHEMA, cache=False)
        assert pipeline.cache is None
        compiled = pipeline.compile(Q4)
        assert pipeline.compile(Q4) is not compiled

    def test_the_key_is_term_schema_and_options(self):
        from dataclasses import fields

        from repro.pipeline.plan_cache import PlanKey

        assert [f.name for f in fields(PlanKey)] == ["term_fp", "schema_fp", "options"]
        assert plan_key(Q4, ORGANISATION_SCHEMA, SqlOptions()).term_fp == term_fingerprint(Q4)


class TestFlatPipelineCache:
    """The flat compiler keeps no cache: a shared plan cache holds only
    the shredding pipeline's plans."""

    def test_shared_cache_keeps_pipelines_apart(self, db):
        from repro.data.queries import FLAT_QUERIES
        from repro.pipeline.flat import FlatCompiled, compile_flat_query

        qf = FLAT_QUERIES["QF1"]
        cache = PlanCache()
        shredded = ShreddingPipeline(db.schema, cache=cache).compile(qf)
        flat = compile_flat_query(qf, db.schema)
        assert isinstance(flat, FlatCompiled)
        assert len(cache) == 1
        assert ShreddingPipeline(db.schema, cache=cache).compile(qf) is shredded
        with pytest.raises(TypeError):
            compile_flat_query(qf, db.schema, cache=cache)
        rows = flat.decode_rows(db.execute_sql(flat.sql))
        assert rows  # the Fig. 3 instance has departments


def _flat_key(value):
    """An App. E index object in the batched engine's flat-tuple
    representation: ``(tag, key…)``."""
    from repro.shred.indexes import FlatIndex, NaturalIndex

    if isinstance(value, FlatIndex):
        return (value.tag, value.position)
    if isinstance(value, NaturalIndex):
        return (value.tag, *value.keys)
    raise AssertionError(f"not an index: {value!r}")


def _fold_key(statement, outer):
    """The key ``statement``'s fold files a row of outer index ``outer``
    under: bare (the dynamic parts alone) on an edge ``key_edges`` made
    bare, else the flat ``(tag, key…)`` tuple."""
    key = _flat_key(outer)
    if ("outer",) not in statement.bare_keys:
        return key
    return key[1] if len(key) == 2 else key[1:]


@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(query=queries_with_nesting())
def test_property_fold_matches_reference(query):
    """The batched engine's fold ≡ App. E ``decode_rows`` + §5.2 ``stitch``
    on every package, under both plan shapes, whichever way the rows reach
    it — the engine's column tables, or ``fold_package`` fed ``fetchall``
    rows directly: the same nested value in the same order, and per
    statement the same outer keys over the same number of rows (a
    statement with no rows folds nothing)."""
    from repro.backend.executor import execute_package_batched, fold_package
    from repro.shred.packages import annotations, pmap
    from repro.shred.stitch import stitch, stitch_grouped
    from repro.sql.codegen import SqlOptions

    db = figure3_database()
    for options in (SqlOptions(), SqlOptions(scheme="flat")):
        try:
            compiled = ShreddingPipeline(db.schema, options).compile(query)
        except Exception:
            return
        package = compiled.sql_package
        reference = pmap(lambda sql: sql.decode_rows(db.execute_sql(sql.sql)), package)
        expected = stitch(reference, compiled._top_index_fn())

        def fetched(statement):
            rows = db.execute_sql(statement.sql)
            width = len(statement.columns)
            return len(rows), [[row[i] for row in rows] for i in range(width)]

        sources = {
            "tables": execute_package_batched(db, package, create_indexes=False),
            "fetchall": fold_package(package, fetched),
        }
        for source, results in sources.items():
            where = (options.scheme, source)
            assert stitch_grouped(results, compiled._top_key()) == expected, where
            for (_path, grouped), (_path, pairs), (_path, statement) in zip(
                annotations(results), annotations(reference), annotations(package)
            ):
                sizes: dict = {}
                for outer, _item in pairs:
                    key = _fold_key(statement, outer)
                    sizes[key] = sizes.get(key, 0) + 1
                assert {k: len(v) for k, v in grouped.items()} == sizes, where


class TestBatchedEngine:
    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_batched_equals_per_path(self, db, name):
        compiled = ShreddingPipeline(db.schema).compile(NESTED_QUERIES[name])
        assert bag_equal(
            compiled.run(db, engine="batched"), compiled.run(db)
        )

    def test_batched_engine_records_stats(self, db):
        compiled = ShreddingPipeline(db.schema).compile(Q6)
        stats = ExecutionStats()
        compiled.run(db, engine="batched", stats=stats)
        assert stats.queries == compiled.query_count
        assert len(stats.per_query_millis) == stats.queries
        assert all(millis >= 0.0 for millis in stats.per_query_millis)

    def test_batched_creates_reusable_indexes(self, db):
        compiled = ShreddingPipeline(db.schema).compile(Q6)
        first, second = ExecutionStats(), ExecutionStats()
        compiled.run(db, engine="batched", stats=first)
        compiled.run(db, engine="batched", stats=second)
        assert first.indexes_created >= 1
        assert second.indexes_created == 0  # reused, not recreated

    def test_warm_run_never_consults_the_schema(self, db):
        """Regression: ``ensure_index`` re-validated table and columns
        against the schema on every run before its "O(1)" remembered-index
        hit; a warm plan's second run must look nothing up."""
        from repro.backend.executor import execute_package_batched
        from repro.service.registry import paper_registry

        class SchemaSpy:
            def __init__(self):
                self.touched = []

            def __contains__(self, table):
                self.touched.append(("in", table))
                return table in schema

            def __getattr__(self, name):
                self.touched.append(name)
                return getattr(schema, name)

        schema = db.schema
        term = paper_registry().lookup("dept_staff").term
        package = ShreddingPipeline(schema).compile(term).sql_package
        params = {"dept": "Product"}
        execute_package_batched(db, package, params=params)  # builds indexes
        db.schema = spy = SchemaSpy()
        execute_package_batched(db, package, params=params)
        assert spy.touched == []
        db.ensure_index("employees", ("salary",))  # the spy does see lookups
        assert spy.touched

    @pytest.mark.parametrize("name", ["dept_staff", "Q1"])
    def test_warm_run_walks_the_plan_not_its_type(self, db, name, count_calls):
        """An immutable plan is walked as it is: a warm ``Prepared.run()``
        neither erases the package to a type nor enumerates that type's
        paths to find its statements."""
        from repro.api import connect
        from repro.service.registry import paper_registry
        from repro.shred.packages import erase
        from repro.shred.paths import paths

        prepared = connect(db).prepare(paper_registry().lookup(name).term)
        params = {"dept": "Product"} if name == "dept_staff" else None
        expected = prepared.run(params=params).value
        erasures = count_calls(erase)
        enumerations = count_calls(paths)
        assert prepared.run(params=params).value == expected
        assert erasures == [] and enumerations == []
        assert prepared.query_count and enumerations  # the spy does see calls

    def test_unknown_engine_rejected(self, db):
        from repro.errors import ShreddingError

        compiled = ShreddingPipeline(db.schema).compile(Q4)
        with pytest.raises(ShreddingError):
            compiled.run(db, engine="warp")
