"""The `repro.api` façade: Session, fluent Query builder, engines, results.

Paper queries Q1–Q6 run end-to-end through `repro.api` only (no direct
pipeline construction), on every engine including the ``"auto"`` policy;
the fluent builder is checked against the hand-built λNRC terms it mirrors.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Session, connect
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import NESTED_QUERIES, QF4, QF5, Q1
from repro.errors import ShreddingError, UnknownTableError
from repro.nrc import builders as b
from repro.nrc.semantics import evaluate
from repro.values import assert_bag_equal, bag_equal

from .strategies import queries_with_nesting


@pytest.fixture
def session(db) -> Session:
    return connect(db)


class TestPaperQueriesEndToEnd:
    """Q1–Q6 through the façade only, all engines agreeing."""

    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_auto_engine_matches_semantics(self, session, db, name):
        term = NESTED_QUERIES[name]
        result = session.query(term).run()
        assert bag_equal(result.value, evaluate(term, db)), name

    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    @pytest.mark.parametrize("engine", ["per-path", "batched", "parallel"])
    def test_every_engine_matches_auto(self, session, name, engine):
        term = NESTED_QUERIES[name]
        auto = session.query(term).run()
        explicit = session.query(term).run(engine=engine)
        assert bag_equal(auto.value, explicit.value), (name, engine)

    def test_auto_resolution_follows_package_shape(self, session):
        """``auto`` is the batched engine whatever the package's shape —
        it never picks threads; ``parallel`` runs only when named."""
        degrees = [session.query(t).query_count for t in NESTED_QUERIES.values()]
        assert max(degrees) >= 3  # the shapes the old policy gave threads
        for name, term in NESTED_QUERIES.items():
            prepared = session.query(term)
            assert prepared.run().engine == "batched", name
            assert session.resolve_engine(None, prepared.compiled) == "batched"
            assert prepared.run(engine="parallel").engine == "parallel", name


class TestFluentBuilder:
    def test_nested_select_matches_builder_term(self, session, db):
        fluent = (
            session.table("departments", alias="d")
            .select(department="name")
            .nest(
                staff=lambda d: session.table("employees", alias="e")
                .where(lambda e: e.dept == d.name)
                .select("name", "salary")
            )
        )
        builder = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.ret(
                b.record(
                    department=d["name"],
                    staff=b.for_(
                        "e",
                        b.table("employees"),
                        lambda e: b.where(
                            b.eq(e["dept"], d["name"]),
                            b.ret(
                                b.record(name=e["name"], salary=e["salary"])
                            ),
                        ),
                    ),
                )
            ),
        )
        assert bag_equal(fluent.run().value, evaluate(builder, db))

    def test_where_conjoins_and_operators_build_primitives(self, session, db):
        fluent = (
            session.table("employees")
            .where(lambda e: e.salary > 1000)
            .where(lambda e: (e.dept == "Sales") | (e.dept == "Research"))
            .select("name")
        )
        rows = fluent.run().to_dicts()
        expected = [
            {"name": row["name"]}
            for row in db.rows("employees")
            if row["salary"] > 1000 and row["dept"] in ("Sales", "Research")
        ]
        assert bag_equal(rows, expected)

    def test_scalar_select(self, session, db):
        names = session.table("employees").select(lambda e: e.name).run()
        assert bag_equal(
            names.value, [row["name"] for row in db.rows("employees")]
        )

    def test_computed_field_arithmetic(self, session, db):
        doubled = (
            session.table("employees")
            .select(name="name", double=lambda e: e.salary + e.salary)
            .run()
        )
        expected = [
            {"name": row["name"], "double": 2 * row["salary"]}
            for row in db.rows("employees")
        ]
        assert bag_equal(doubled.value, expected)

    def test_nest_without_select_keeps_all_columns(self, session):
        rows = (
            session.table("departments")
            .nest(
                staff=lambda d: session.table("employees")
                .where(lambda e: e.dept == d.name)
                .select("name")
            )
            .run()
            .to_dicts()
        )
        assert {"id", "name", "staff"} <= set(rows[0])

    def test_union_matches_builder_qf4(self, session, db):
        fluent = (
            session.table("tasks", alias="t")
            .where(lambda t: t.task == "abstract")
            .select(emp="employee")
            .union(
                session.table("employees", alias="e")
                .where(lambda e: e.salary > 50000)
                .select(emp="name")
            )
        )
        assert bag_equal(fluent.run().value, evaluate(QF4, db))

    def test_is_empty_anti_join_matches_builder_qf5(self, session, db):
        fluent = (
            session.table("tasks", alias="t")
            .where(lambda t: t.task == "abstract")
            .select(emp="employee")
        )
        probe = lambda m: (  # noqa: E731 - reads better inline
            session.table("employees", alias="e")
            .where(lambda e: (e.salary > 50000) & (e.name == m.emp))
            .select(lambda e: e.name)
        )
        anti = session.from_(fluent, alias="m").where(
            lambda m: probe(m).is_empty()
        )
        assert bag_equal(anti.run().value, evaluate(QF5, db))

    def test_exists_semi_join(self, session, db):
        with_tasks = (
            session.table("employees", alias="e")
            .where(
                lambda e: session.table("tasks", alias="t")
                .where(lambda t: t.employee == e.name)
                .exists()
            )
            .select("name")
        )
        employees_with_tasks = {
            row["employee"] for row in db.rows("tasks")
        }
        expected = [
            {"name": row["name"]}
            for row in db.rows("employees")
            if row["name"] in employees_with_tasks
        ]
        assert bag_equal(with_tasks.run().value, expected)

    def test_same_table_nesting_never_shadows(self, session, db):
        """An inner query over the same table must correlate with the
        outer row, not silently shadow it."""
        peers = (
            session.table("employees")
            .select(name="name")
            .nest(
                peers=lambda outer: session.table("employees")
                .where(lambda inner: inner.dept == outer.dept)
                .select(lambda inner: inner.name)
            )
        )
        rows = peers.run().to_dicts()
        by_name = {row["name"]: row["peers"] for row in rows}
        dept_of = {r["name"]: r["dept"] for r in db.rows("employees")}
        for name, dept in dept_of.items():
            expected = [n for n, d in dept_of.items() if d == dept]
            assert_bag_equal(by_name[name], expected, name)

    def test_alias_colliding_with_derived_name_stays_fresh(self, session, db):
        """A user alias that equals a derived fresh name (d → d_2) must not
        capture the wrong row in a correlated predicate."""
        q = (
            session.table("departments", alias="d")
            .select(outer_name="name")
            .nest(
                mids=lambda outer: session.table("departments", alias="d")
                .where(lambda mid: mid.name == outer.name)
                .select(mid_name="name")
                .nest(
                    inners=lambda mid: session.table(
                        "departments", alias="d_2"
                    )
                    .where(lambda inner: inner.name == mid.name)
                    .select(lambda inner: inner.name)
                )
            )
        )
        rows = q.run().to_dicts()
        for row in rows:
            assert [m["mid_name"] for m in row["mids"]] == [row["outer_name"]]
            for mid in row["mids"]:
                assert mid["inners"] == [mid["mid_name"]]

    def test_from_over_a_view(self, session, db):
        view = session.query(Q1)
        depts = session.from_(view, alias="d").select(dept="name")
        assert bag_equal(
            depts.run().value,
            [{"dept": row["name"]} for row in db.rows("departments")],
        )

    def test_unknown_table_raises(self, session):
        with pytest.raises(UnknownTableError):
            session.table("nonexistent")

    def test_select_rejects_non_string_positionals(self, session):
        with pytest.raises(ShreddingError, match="column names"):
            session.table("employees").select("name", 42)

    def test_nest_into_scalar_projection_rejected(self, session):
        scalar = session.table("employees").select(lambda e: e.name)
        with pytest.raises(ShreddingError, match="scalar"):
            scalar.nest(tasks=lambda e: session.table("tasks"))

    def test_expr_refuses_python_truthiness(self, session):
        with pytest.raises(ShreddingError, match="truth value"):
            session.table("employees").where(
                lambda e: e.salary > 100 and e.salary < 200
            ).run()


class TestEngineValidation:
    def test_session_rejects_unknown_engine(self, db):
        with pytest.raises(ShreddingError, match="known engines"):
            connect(db, engine="warp")

    def test_run_rejects_unknown_engine(self, session):
        with pytest.raises(ShreddingError, match="known engines"):
            session.query(Q1).run(engine="bogus")

    def test_compiled_query_rejects_unknown_engine(self, session, db):
        compiled = session.compile(Q1)
        with pytest.raises(ShreddingError) as excinfo:
            compiled.run(db, engine="hyperdrive")
        message = str(excinfo.value)
        assert "per-path" in message
        assert "batched" in message
        assert "parallel" in message

    def test_auto_never_reaches_the_pipeline(self, session, db):
        compiled = session.compile(Q1)
        with pytest.raises(ShreddingError, match="known engines"):
            compiled.run(db, engine="auto")


class TestSessionLifecycle:
    def test_connect_from_schema_and_tables(self):
        session = connect(
            schema=ORGANISATION_SCHEMA,
            tables={
                "departments": [{"id": 1, "name": "Ops"}],
                "employees": [],
                "tasks": [],
                "contacts": [],
            },
        )
        rows = session.table("departments").select("name").run().to_dicts()
        assert rows == [{"name": "Ops"}]

    def test_connect_needs_database_or_schema(self):
        with pytest.raises(ShreddingError, match="Database or a Schema"):
            connect()

    def test_insert_is_visible_to_later_runs(self, session):
        before = len(session.table("departments").run())
        session.insert("departments", [{"id": 99, "name": "Skunkworks"}])
        after = session.table("departments").run()
        assert len(after) == before + 1
        assert {"id": 99, "name": "Skunkworks"} in after.to_dicts()

    def test_with_options_natural_scheme_agrees(self, session):
        flat = session.query(Q1).run()
        natural = session.with_options(scheme="natural").query(Q1).run()
        assert bag_equal(flat.value, natural.value)

    def test_plan_cache_hits_accumulate_in_session_stats(self, db):
        from repro.pipeline.plan_cache import PlanCache

        session = connect(db, cache=PlanCache())
        session.query(Q1).run()
        assert session.stats.cache_misses == 1
        session.query(Q1).run()
        assert session.stats.cache_hits == 1
        assert session.stats.queries > 0

    def test_prepare_rebinds_a_foreign_prepared_query(self, db):
        session_a = connect(db)
        other_db = figure3_database()
        other_db.insert("departments", [{"id": 77, "name": "Foreign"}])
        session_b = connect(other_db)
        prepared_b = session_b.query(
            b.for_(
                "d",
                b.table("departments"),
                lambda d: b.ret(b.record(n=d["name"], xs=b.bag_of(d["id"]))),
            )
        )
        rebound = session_a.query(prepared_b)
        assert rebound is not prepared_b
        names = {row["n"] for row in rebound.run()}
        assert "Foreign" not in names  # ran on session_a's database
        assert "Foreign" in {row["n"] for row in prepared_b.run()}
        # Same-session prepares stay identical (compiled plan reused).
        assert session_b.query(prepared_b) is prepared_b

    def test_context_manager_closes_connections(self, db):
        with connect(db) as session:
            session.query(Q1).run()
        assert db._connection is None

    def test_list_collection_requires_ordered_options(self, session):
        with pytest.raises(ShreddingError, match="ordered"):
            session.query(Q1).run(collection="list")

    def test_set_collection_dedups(self, session):
        term = b.union(
            b.for_(
                "d",
                b.table("departments"),
                lambda d: b.ret(b.record(n=d["name"], xs=b.bag_of(b.const(1)))),
            ),
            b.for_(
                "d",
                b.table("departments"),
                lambda d: b.ret(b.record(n=d["name"], xs=b.bag_of(b.const(1)))),
            ),
        )
        bag = session.query(term).run()
        dedup = session.query(term).run(collection="set")
        assert len(bag) == 2 * len(dedup)


class TestResultsSurface:
    def test_result_iterates_and_indexes(self, session):
        result = session.query(Q1).run()
        assert len(result) == len(result.to_dicts())
        assert list(result)[0] == result[0]
        assert "⟨" in result.render()

    def test_sorted_by(self, session):
        result = session.query(Q1).run()
        names = [row["name"] for row in result.sorted_by("name")]
        assert names == sorted(names)

    def test_sql_and_explain_expose_compilation(self, session):
        prepared = session.query(Q1)
        assert prepared.sql().count("-- query at path") == prepared.query_count
        report = prepared.explain()
        assert "engine" in report
        assert "auto" in report
        assert "nesting degree" in report

    def test_stats_requires_a_run(self, session):
        prepared = session.query(Q1)
        with pytest.raises(ShreddingError, match="run"):
            prepared.stats()
        prepared.run()
        assert prepared.stats().queries == prepared.query_count

    def test_run_merges_into_caller_stats(self, session):
        from repro.backend.executor import ExecutionStats

        carrier = ExecutionStats()
        session.query(Q1).run(stats=carrier)
        assert carrier.queries == 4


# Property: the auto engine agrees with the reference per-path engine on
# random well-typed nested queries (the façade-level face of Theorem 4).
_DB = figure3_database()
_SESSION = connect(_DB)


@given(queries_with_nesting())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_auto_engine_matches_per_path_property(query):
    auto = _SESSION.query(query).run()
    reference = _SESSION.query(query).run(engine="per-path")
    assert bag_equal(auto.value, reference.value)
