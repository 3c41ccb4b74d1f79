"""Unit tests for the sharding subsystem: placement policy, shardability
analysis, partitioned databases (incl. the owning-shard-only insert
regression) and a deployment's session surface over both endpoint kinds."""

from __future__ import annotations

import pytest

from repro.api import Prepared, Result, Session, connect, connect_sharded
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import ServiceError, ShardingError
from repro.normalise import normalise
from repro.nrc import ast
from repro.nrc import builders as b
from repro.nrc.serialize import term_to_json
from repro.nrc.types import INT, STRING
from repro.service import OPS, paper_registry
from repro.service.core import ServerCore
from repro.shard import (
    Placement,
    ShardedDatabase,
    analyse,
    referenced_tables,
    replicated,
    resolve_shard,
    shard_for,
    sharded,
)
from repro.values import assert_bag_equal

PLACEMENT = organisation_placement()


def _dept_names_by_shard(shards: int) -> dict[int, list[str]]:
    owners: dict[int, list[str]] = {i: [] for i in range(shards)}
    for row in figure3_database().rows("departments"):
        owners[shard_for(row["name"], shards)].append(row["name"])
    return owners


# --------------------------------------------------------------------------
# Placement + routing hash.


class TestPlacement:
    def test_shard_for_is_deterministic_and_total(self):
        for value in (0, 1, -7, True, False, "Sales", ""):
            assert shard_for(value, 4) == shard_for(value, 4)
            assert 0 <= shard_for(value, 4) < 4
        # bool is not int for routing purposes.
        assert shard_for(True, 64) != shard_for(1, 64) or True  # may collide
        with pytest.raises(ShardingError):
            shard_for(3.14, 4)
        with pytest.raises(ShardingError):
            shard_for("x", 0)

    def test_of_filters_replicated_markers(self):
        placement = Placement.of(
            {"departments": sharded(key="name"), "employees": replicated}
        )
        assert placement.sharded_tables == ("departments",)
        assert placement.routing_column("departments") == "name"
        assert placement.routing_column("employees") is None
        assert not placement.is_sharded("employees")

    def test_of_rejects_bad_markers(self):
        with pytest.raises(ShardingError):
            Placement.of({"departments": "name"})

    def test_validate_against_schema(self):
        Placement.of({"departments": sharded(key="name")}).validate(
            ORGANISATION_SCHEMA
        )
        with pytest.raises(ShardingError):
            Placement.of({"nope": sharded(key="x")}).validate(
                ORGANISATION_SCHEMA
            )
        with pytest.raises(ShardingError):
            Placement.of({"departments": sharded(key="salary")}).validate(
                ORGANISATION_SCHEMA
            )

    def test_owner_fn_routes_and_reports_missing_key(self):
        placement = Placement.of({"departments": sharded(key="name")})
        owner = placement.owner_fn(3)
        assert owner("employees", {"anything": 1}) is None
        assert owner("departments", {"name": "Sales"}) == shard_for("Sales", 3)
        with pytest.raises(ShardingError):
            owner("departments", {"id": 1})


# --------------------------------------------------------------------------
# Shardability analysis.


def _nf(term):
    return normalise(term, ORGANISATION_SCHEMA)


class TestAnalysis:
    def test_referenced_tables_sees_probes_and_bodies(self):
        tables = referenced_tables(_nf(NESTED_QUERIES["Q2"]))
        assert {"departments", "employees", "tasks"} <= tables

    def test_replicated_only_is_single(self):
        plan = analyse(_nf(NESTED_QUERIES["Q3"]), PLACEMENT)
        assert plan.mode == "single"

    def test_distributive_fanout(self):
        for name in ("Q1", "Q2", "Q4", "Q6"):
            plan = analyse(_nf(NESTED_QUERIES[name]), PLACEMENT)
            assert plan.mode == "fanout", (name, plan)
            assert plan.table == "departments"

    def test_nested_reference_falls_back(self):
        # Q5 lists departments inside the body of a tasks comprehension.
        plan = analyse(_nf(NESTED_QUERIES["Q5"]), PLACEMENT)
        assert plan.mode == "fallback"
        assert "departments" in plan.reason

    def test_self_join_falls_back(self):
        query = b.for_(
            "d1",
            b.table("departments"),
            lambda d1: b.for_(
                "d2",
                b.table("departments"),
                lambda d2: b.where(
                    b.ne(d1["name"], d2["name"]),
                    b.ret(b.record(a=d1["name"], z=d2["name"])),
                ),
            ),
        )
        assert analyse(_nf(query), PLACEMENT).mode == "fallback"

    def test_routed_on_constant_pin(self):
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.eq(d["name"], b.const("Sales")),
                b.ret(b.record(n=d["name"])),
            ),
        )
        plan = analyse(_nf(query), PLACEMENT)
        assert plan.mode == "routed"
        assert plan.pin == ("const", "Sales")
        assert resolve_shard(plan, None, 4) == shard_for("Sales", 4)

    def test_routed_on_parameter_pin(self):
        dept = ast.Param("dept", STRING)
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.eq(dept, d["name"]), b.ret(b.record(n=d["name"]))
            ),
        )
        plan = analyse(_nf(query), PLACEMENT)
        assert plan.mode == "routed"
        assert plan.pin == ("param", "dept")
        assert resolve_shard(plan, {"dept": "Sales"}, 4) == shard_for(
            "Sales", 4
        )
        with pytest.raises(ShardingError):
            resolve_shard(plan, None, 4)

    def test_routed_through_transitive_equality(self):
        # employees sharded by dept; the inner generator is pinned only
        # through the chain e.dept = d.name ∧ d.name = :dept.
        placement = Placement.of({"employees": sharded(key="dept")})
        dept = ast.Param("dept", STRING)
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.eq(d["name"], dept),
                b.ret(
                    b.record(
                        department=d["name"],
                        staff=b.for_(
                            "e",
                            b.table("employees"),
                            lambda e: b.where(
                                b.eq(e["dept"], d["name"]),
                                b.ret(b.record(name=e["name"])),
                            ),
                        ),
                    )
                ),
            ),
        )
        plan = analyse(_nf(query), placement)
        assert plan.mode == "routed"
        assert plan.pin == ("param", "dept")

    def test_unpinned_disjunction_is_not_routed(self):
        # name = :dept ∨ ... does not pin the generator.
        dept = ast.Param("dept", STRING)
        query = b.for_(
            "d",
            b.table("departments"),
            lambda d: b.where(
                b.or_(b.eq(d["name"], dept), b.gt(d["id"], b.const(2))),
                b.ret(b.record(n=d["name"])),
            ),
        )
        plan = analyse(_nf(query), PLACEMENT)
        assert plan.mode == "fanout"  # still distributive, never routed

    def test_conflicting_pins_do_not_route(self):
        query = b.union(
            b.for_(
                "d",
                b.table("departments"),
                lambda d: b.where(
                    b.eq(d["name"], b.const("Sales")),
                    b.ret(b.record(n=d["name"])),
                ),
            ),
            b.for_(
                "d",
                b.table("departments"),
                lambda d: b.where(
                    b.eq(d["name"], b.const("Product")),
                    b.ret(b.record(n=d["name"])),
                ),
            ),
        )
        plan = analyse(_nf(query), PLACEMENT)
        assert plan.mode == "fanout"

    def test_two_sharded_tables_fall_back(self):
        placement = Placement.of(
            {
                "departments": sharded(key="name"),
                "employees": sharded(key="dept"),
            }
        )
        plan = analyse(_nf(NESTED_QUERIES["Q4"]), placement)
        assert plan.mode == "fallback"
        assert "multiple sharded tables" in plan.reason


# --------------------------------------------------------------------------
# ShardedDatabase: partitioning and insert routing.


class TestShardedDatabase:
    def test_partitions_cover_and_are_disjoint(self):
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 3)
        names = [
            {row["name"] for row in shard.rows("departments")}
            for shard in sdb.shards
        ]
        union = set().union(*names)
        assert union == {
            row["name"] for row in sdb.full.rows("departments")
        }
        total = sum(len(part) for part in names)
        assert total == len(union)  # disjoint
        # Replicated tables are full copies everywhere.
        for shard in sdb.shards:
            assert shard.row_count("employees") == sdb.full.row_count(
                "employees"
            )

    def test_insert_routes_sharded_rows(self):
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        session = connect_sharded(sdb)
        owner = shard_for("Zeta", 2)
        batch = [{"id": 99, "name": "Zeta"}]
        first = session.insert("departments", batch)
        assert first["applied"] is True
        # A key is minted when the caller passes none, and a redelivery
        # under it writes nothing.
        minted = first["idempotency_key"]
        assert session.insert("departments", batch, idempotency_key=minted)["applied"] is False
        assert sdb.full.row_count("departments") == 4 + 1
        assert any(
            row["name"] == "Zeta" for row in sdb.shards[owner].rows("departments")
        )
        assert not any(
            row["name"] == "Zeta"
            for row in sdb.shards[1 - owner].rows("departments")
        )
        assert any(
            row["name"] == "Zeta" for row in sdb.full.rows("departments")
        )

    def test_insert_replicated_rows_everywhere(self):
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        new_row = {"id": 99, "dept": "Sales", "name": "Zoe", "salary": 1}
        connect_sharded(sdb).insert("employees", [new_row])
        for store in [*sdb.shards, sdb.full]:
            assert any(r["name"] == "Zoe" for r in store.rows("employees"))

    def test_insert_leaves_other_shards_untouched(self):
        """Regression: an insert routed to shard 0 must not touch shard 1 —
        its planner statistics and cached canonical rows survive."""
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        names = _dept_names_by_shard(2)
        assert names[0] and names[1], "fig. 3 depts should span both shards"
        new_name = next(
            f"Zz{i}" for i in range(1000) if shard_for(f"Zz{i}", 2) == 0
        )
        for shard in sdb.shards:
            assert shard.ensure_index("departments", ("name",))
            assert shard.refresh_statistics()
        shard1 = sdb.shards[1]
        rows_before = shard1.rows("departments")

        connect_sharded(sdb).insert("departments", [{"id": 99, "name": new_name}])

        assert sdb.shards[0].refresh_statistics(), "owner's statistics went stale"
        assert not shard1.refresh_statistics()
        assert shard1.rows("departments") is rows_before

    def test_failed_insert_touches_no_store(self):
        """A batch that fails validation must leave every store unchanged:
        the full-copy shard validates first, so partitions never hold rows
        the full copy lacks."""
        from repro.errors import BackendError

        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        bad_batch = [
            {"id": 900, "name": "Zok"},
            {"id": 901, "name": "Zal", "extra": 1},  # bad column set
        ]
        with pytest.raises(BackendError):
            connect_sharded(sdb).insert("departments", bad_batch)
        for store in [*sdb.shards, sdb.full]:
            names = {row["name"] for row in store.rows("departments")}
            assert not names & {"Zok", "Zal"}

    def test_insert_missing_routing_column_is_rejected(self):
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        with pytest.raises(ShardingError):
            connect_sharded(sdb).insert("departments", [{"id": 99}])

    def test_shard_count_validation(self):
        with pytest.raises(ShardingError):
            ShardedDatabase(figure3_database(), PLACEMENT, 0)


# --------------------------------------------------------------------------
# A deployment's session surface.


class TestDeploymentSession:
    """The session surface, once per endpoint kind (``sharded_session``)."""

    def test_substrate_requirements_are_enforced(self):
        # Local endpoints need a placement for their store…
        with pytest.raises(ShardingError):
            connect_sharded(figure3_database())
        # …and a store to partition (bare placement means "spawn a
        # process group"; asking for local endpoints without data is the
        # error).
        with pytest.raises(ShardingError):
            connect_sharded(placement=PLACEMENT, processes=False)
        # A process group regenerates its own data: an existing store
        # cannot ride along.
        with pytest.raises(ShardingError):
            connect_sharded(
                figure3_database(), placement=PLACEMENT, processes=True
            )
        # Process-group knobs are rejected for local endpoints.
        with pytest.raises(ShardingError):
            connect_sharded(
                figure3_database(),
                placement=PLACEMENT,
                processes=False,
                scale=8,
            )

    def test_placement_conflict_is_rejected(self):
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, 2)
        other = Placement.of({"employees": sharded(key="dept")})
        with pytest.raises(ShardingError):
            connect_sharded(sdb, placement=other)

    def test_routes_and_markers(self, sharded_session):
        session = sharded_session(2)
        fanout = session.run("Q4")
        assert (fanout.route, fanout.shards) == ("fanout", (0, 1))
        assert session.run("Q3").route == "single:0"
        assert session.run("Q5").route == "fallback"
        snapshot = session.client.stats_snapshot()
        assert snapshot["fanouts"] == 1
        assert snapshot["singles"] == 1
        assert snapshot["fallbacks"] == 1
        assert snapshot["routed"] == 0
        assert snapshot["shard_requests"] == [2, 1]  # fanout + single | fanout
        assert session.run_counts() == {"per_shard": [2, 1], "fallback": 1}
        with pytest.raises(ShardingError):
            session.run("no_such_query")

    def test_routed_point_lookup_hits_exactly_one_shard(self, sharded_session):
        session = sharded_session(4)
        single = connect(figure3_database())
        term = session.client.registry.lookup("dept_staff").term
        for dept in ("Sales", "Product", "Research", "Quality"):
            before = session.run_counts()["per_shard"]
            result = session.run("dept_staff", params={"dept": dept})
            after = session.run_counts()["per_shard"]
            owner = shard_for(dept, 4)
            assert result.route == f"routed:{owner}"
            assert result.shards == (owner,)
            deltas = [b - a for a, b in zip(before, after)]
            assert sum(deltas) == 1 and deltas[owner] == 1
            assert_bag_equal(
                result.value,
                single.run(term, params={"dept": dept}).value,
                dept,
            )
        assert session.client.stats_snapshot()["routed"] == 4

    def test_set_semantics_dedup_once_after_the_union(self, sharded_session):
        query = b.for_(
            "d", b.table("departments"), lambda d: b.ret(b.record(k=b.const(1)))
        )
        session = sharded_session(2)
        bag = session.run(query)  # an ad-hoc term: registers everywhere
        assert bag.route == "fanout"
        assert len(bag.value) == 4  # one per department, across shards
        as_set = session.run(query, collection="set")
        assert as_set.value == [{"k": 1}]

    def test_list_semantics_divert_to_fallback(self, sharded_session):
        from repro.api import SqlOptions

        session = sharded_session(2, options=SqlOptions(ordered=True))
        result = session.run("Q4", collection="list")
        assert result.route == "fallback"
        assert "row order" in result.reason
        expected = connect(
            figure3_database(), options=SqlOptions(ordered=True)
        ).run(NESTED_QUERIES["Q4"], collection="list")
        assert result.value == expected.value

    def test_trace_is_one_route_span_with_a_child_per_endpoint(
        self, sharded_session
    ):
        session = sharded_session(3)
        for name, endpoints in (("Q4", 3), ("Q3", 1), ("Q5", 1)):
            trace = session.run(name, trace=True).trace
            (query,) = trace.spans
            (route,) = query.children
            assert (query.name, route.name) == ("query", "route")
            assert [child.name for child in route.children] == (
                ["shard"] * endpoints
            )
            for child in route.children:
                assert child.attributes["server_millis"] >= 0
        labels = [c.attributes["shard"] for c in route.children]
        assert labels == ["full/3"]

    def test_insert_is_routed_visible_and_idempotent(self, sharded_session):
        session = sharded_session(2)
        owner = shard_for("Zeta", 2)
        before = session.db.row_counts("departments")
        first = session.insert("departments", [{"id": 99, "name": "Zeta"}])
        assert first["applied"] is True
        assert first["endpoints"] == 2  # the fallback + the one owner
        again = session.insert(
            "departments",
            [{"id": 99, "name": "Zeta"}],
            idempotency_key=first["idempotency_key"],
        )
        assert again["applied"] is False
        after = session.db.row_counts("departments")
        assert [a - b for a, b in zip(after, before)] == [
            int(index == owner) for index in range(2)
        ]  # exactly once, on the owner only
        session.insert(
            "employees",
            [{"id": 99, "dept": "Zeta", "name": "Zoe", "salary": 5}],
        )
        result = session.run("Q4")
        zeta = [row for row in result.value if row["dept"] == "Zeta"]
        assert len(zeta) == 1
        assert zeta[0]["employees"] == ["Zoe"]

    def test_an_in_memory_store_with_references_is_served_as_it_is(self):
        """The caller's store is the full copy, references and all: an
        insert through the session reaches it, so ``connect(db)`` agrees."""
        db = figure3_database()
        with connect_sharded(db, placement=PLACEMENT, shards=2) as session:
            session.insert(
                "employees", [{"id": 99, "dept": "Sales", "name": "Zoe", "salary": 5}]
            )
            assert session.db.full is db and db.row_count("employees") == 8
            q4 = NESTED_QUERIES["Q4"]
            assert_bag_equal(connect(db).run(q4).value, session.run(q4).value)

    def test_closing_a_deployment_leaves_the_given_store_serving(self):
        """The session closes the partitions it built, never the caller's
        store: a server leasing readers off that store keeps answering."""
        from repro.service import ServiceClient, serve_in_background

        db = figure3_database()
        with serve_in_background(connect(db), paper_registry(), pool_size=1) as handle:
            connect_sharded(db, placement=PLACEMENT, shards=2).close()
            with ServiceClient(handle.host, handle.port) as client:
                assert len(client.execute("Q4")) == 4

    def test_plan_cache_shared_across_local_stores(self):
        from repro.pipeline.plan_cache import PlanCache

        cache = PlanCache()
        with connect_sharded(
            figure3_database(), placement=PLACEMENT, shards=3, cache=cache
        ) as session:
            session.run(NESTED_QUERIES["Q4"])
            stats = cache.stats()
            # One cold compile; every store's session reuses the plan.
            assert stats["entries"] == 1
            assert stats["misses"] == 1

    def test_explain_names_the_plan(self, sharded_session):
        session = sharded_session(2, shared=True)
        assert session.prepare("Q4").plan.mode == "fanout"
        (plan,) = [
            diagnostic
            for diagnostic in session.lint("Q4", placement=session.client.placement)
            if diagnostic.code == "QS201"
        ]
        assert "fans out" in plan.message

    def test_a_deployment_is_a_session(self, sharded_session):
        session = sharded_session(2, shared=True)
        prepared = session.prepare("Q4")
        assert isinstance(session, Session) and isinstance(prepared, Prepared)
        result = prepared.run()
        assert type(result) is Result and result.route == "fanout"
        # An in-process run says nothing about routes.
        local = connect(figure3_database()).run(NESTED_QUERIES["Q4"])
        assert (local.route, local.shards, local.reason) == (None, (), None)

    def test_the_fluent_builder_fans_out(self, sharded_session):
        session = sharded_session(2, shared=True)
        single = connect(figure3_database())

        def staff(on):
            return on.table("departments", alias="d").select(
                department="name",
                staff=lambda d: on.table("employees")
                .where(lambda e: e.dept == d.name)
                .select("name"),
            )

        result = staff(session).run()
        assert result.route == "fanout" and result.shards == (0, 1)
        assert_bag_equal(result.value, staff(single).run().value)

    def test_sql_and_lint_answer(self, sharded_session):
        session = sharded_session(2, shared=True)
        q4 = NESTED_QUERIES["Q4"]
        assert len(session.sql(q4)) == 2  # the nesting degree of Q4's type
        assert {diagnostic.code for diagnostic in session.lint(q4)} >= {"QS301", "QS401"}

    def test_a_prepared_query_rebinds_both_ways(self, sharded_session):
        session = sharded_session(2, shared=True)
        single = connect(figure3_database())
        expected = single.run(NESTED_QUERIES["Q4"]).value
        here = single.prepare(session.prepare("Q4"))
        assert here._session is single and here.run().route is None
        assert_bag_equal(here.run().value, expected)
        there = session.prepare(single.prepare(NESTED_QUERIES["Q4"]))
        assert there._session is session and there.run().route == "fanout"
        assert_bag_equal(there.run().value, expected)

    def test_stats_snapshot_is_the_session_registry(self, sharded_session):
        session = sharded_session(2)
        before = session.stats_snapshot()
        result = session.run("Q4")
        after = session.stats_snapshot()
        assert after["queries"] - before["queries"] == result.stats.queries
        assert after["rows_fetched"] - before["rows_fetched"] == result.stats.rows_fetched
        assert "fanouts" not in after and session.client.stats_snapshot()["fanouts"] == 1



# --------------------------------------------------------------------------
# One service, whatever the endpoint is made of.

#: One well-formed request per op (``close`` ends a wire connection and
#: has no local counterpart).
OP_REQUESTS = {
    "prepare": {"op": "prepare", "query": "dept_staff"},
    "register": {
        "op": "register",
        "query": "parity_q1",
        "term": term_to_json(NESTED_QUERIES["Q1"]),
        "description": "parity",
    },
    "execute": {"op": "execute", "query": "dept_staff", "params": {"dept": "Sales"}},
    "insert": {
        "op": "insert",
        "table": "departments",
        "rows": [{"id": 99, "name": "Parity"}],
        "idempotency_key": "parity-insert",
    },
    "explain": {"op": "explain", "query": "dept_staff"},
    "stats": {"op": "stats"},
    "metrics": {"op": "metrics"},
    "ping": {"op": "ping"},
}

#: Inside ``stats``' ``server`` block, what only an event-loop driver has.
DRIVER_GAUGES = {"pool_size", "max_pending", "pending", "draining"}


def _shape(response: dict) -> dict:
    """The key sets of a response: top level (minus the wire's ``id``
    echo) and one level down."""
    shape = {"": response.keys() - {"id"}}
    for key, value in response.items():
        if isinstance(value, dict) and key != "params":
            shape[key] = value.keys() - (DRIVER_GAUGES if key == "server" else set())
    return shape


class TestEndpointParity:
    def test_ops_cover_the_protocol(self):
        assert set(OP_REQUESTS) == set(OPS) - {"close"}

    @pytest.mark.parametrize("op", sorted(OP_REQUESTS))
    def test_every_endpoint_answers_every_op_in_the_cores_shape(
        self, sharded_session, op
    ):
        # The reference is a bare ServerCore over the same data: a local
        # endpoint and a wire server are both drivers of one.
        reference = ServerCore(connect(figure3_database()), paper_registry())
        expected = _shape(reference.handle(dict(OP_REQUESTS[op])))
        client = sharded_session(2, shared=op not in ("register", "insert")).client
        for label, endpoint in client._endpoints():
            response = endpoint._call(dict(OP_REQUESTS[op]))
            assert response["ok"] is True
            assert _shape(response) == expected, (op, label)

    def test_prepare_and_execute_carry_the_catalogues_words(self, sharded_session):
        client = sharded_session(2, shared=True).client
        description = client.registry.lookup("dept_staff").description
        for _label, endpoint in client._endpoints():
            assert endpoint.prepare("dept_staff")["description"] == description != ""
            ran = endpoint.execute_full("dept_staff", {"dept": "Sales"})
            assert ran["server_millis"] == round(ran["server_millis"], 3)
            assert ran["stats"]["queries"] == 2

    @pytest.mark.parametrize("deadline_ms", [0, -5, float("nan"), True])
    def test_a_deadline_is_a_positive_number_everywhere(
        self, sharded_session, deadline_ms
    ):
        # Sent raw: the clients' own deadline arithmetic never sees it.
        request = {"op": "execute", "query": "Q1", "deadline_ms": deadline_ms}
        for _label, endpoint in sharded_session(2, shared=True).client._endpoints():
            with pytest.raises(ServiceError, match="'deadline_ms' must be a positive"):
                endpoint._call(dict(request))

    def test_params_are_an_object_everywhere(self, sharded_session):
        request = {
            "op": "execute", "query": "dept_staff", "params": [["dept", "Sales"]],
        }
        for _label, endpoint in sharded_session(2, shared=True).client._endpoints():
            with pytest.raises(ServiceError, match="'params' must be an object"):
                endpoint._call(dict(request))

    @pytest.mark.parametrize("engine", ["per-path", "batched", "parallel"])
    def test_an_execute_naming_an_engine_is_refused_everywhere(self, sharded_session, engine):
        session = sharded_session(2, shared=True)
        request = {"op": "execute", "query": "Q1", "engine": engine}
        for _label, endpoint in session.client._endpoints():
            with pytest.raises(ServiceError, match="'engine' is not an execute field"):
                endpoint._call(dict(request))
            assert "engine" not in endpoint.prepare("Q1")
            assert endpoint.execute_full("Q1")["engine"] == "batched"
        with pytest.raises(TypeError):
            session.run("Q1", engine=engine)

    def test_fleet_stats_read_the_same_over_any_endpoint(self, sharded_session):
        report = sharded_session(2, shared=True).client.stats()
        for server in (*report["shards"], report["fallback"]):
            assert server["server"]["shed"] == 0
            assert server["server"]["deadline_exceeded"] == 0
            assert "dept_staff" in server["queries"]


# --------------------------------------------------------------------------
# CLI --shard parsing.


class TestCliShardSpec:
    def test_parse(self):
        from repro.__main__ import _parse_shard

        assert _parse_shard("0/2") == (0, 2)
        assert _parse_shard("3/4") == (3, 4)
        assert _parse_shard("full/4") == ("full", 4)
        for bad in ("", "2", "4/4", "-1/4", "a/b", "full/0"):
            with pytest.raises(SystemExit):
                _parse_shard(bad)

    def test_scaled_shard_slices_are_a_partition(self):
        # What ``serve --scale 4 --shard i/2`` serves: the seeded instance,
        # partitioned under the default placement.
        from repro.data.generator import scaled_database

        full = scaled_database(4, seed=0, scale_rows=3)
        owner = organisation_placement().validate(full.schema).owner_fn(2)
        slices = [scaled_database(4, seed=0, scale_rows=3).partitioned(owner, i) for i in range(2)]
        dept_names = [
            {row["name"] for row in part.rows("departments")}
            for part in slices
        ]
        assert dept_names[0] | dept_names[1] == {
            row["name"] for row in full.rows("departments")
        }
        assert not (dept_names[0] & dept_names[1])
        for part in slices:
            assert part.row_count("employees") == full.row_count("employees")
