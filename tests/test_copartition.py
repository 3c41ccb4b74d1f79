"""Co-partitioned placements: classification, soundness, spec round-trip.

PR 10 teaches :class:`~repro.shard.placement.Placement` alignment groups
(``aligned=[("departments", "employees")]``): tables partitioned by
*join-compatible* keys, declared co-located because
:func:`~repro.shard.placement.shard_for` hashes the routing **value**
only — ``departments.name = "Sales"`` and ``employees.dept = "Sales"``
land on the same shard by construction.  The shardability analysis uses
the declaration two ways:

* **multi-table routed** — a query whose generators over *every* sharded
  table are pinned (transitively, via the union-find over equalities) to
  one common ground value routes to that value's shard, with or without
  an alignment declaration;
* **co-partitioned fanout** — a query distributive over an *anchor*
  sharded table fans out even when it also references other sharded
  tables, provided each such table is aligned with the anchor and every
  generator over it is equality-pinned to an in-scope anchor row's
  routing column.  That is what turns Q5's nested reference (tasks ×
  employees) from a guaranteed fallback into a fan-out.

The differential layer then asserts the semantics: fan-out answers under
both co-partitioned placements equal single-session answers exactly, as
nested multisets, at 2/3/4 shards.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import ShardingError
from repro.normalise import normalise
from repro.nrc import ast
from repro.service.registry import paper_registry
from repro.shard import Placement, analyse, connect_sharded, endpoint_session, sharded
from repro.values import assert_bag_equal

REGISTRY = paper_registry()

P_DEPT_CO = Placement.of(
    {"departments": sharded(key="name"), "employees": sharded(key="dept")},
    aligned=[("departments", "employees")],
)
P_TASK_CO = Placement.of(
    {"tasks": sharded(key="employee"), "employees": sharded(key="name")},
    aligned=[("tasks", "employees")],
)


def _plan(name: str, placement: Placement):
    term = REGISTRY.lookup(name).term
    return analyse(normalise(term, ORGANISATION_SCHEMA), placement)


# --------------------------------------------------------------------------
# Classification.


class TestClassification:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q6"])
    def test_dept_alignment_fans_out_the_dept_queries(self, name):
        plan = _plan(name, P_DEPT_CO)
        assert plan.mode == "fanout", (name, plan.reason)

    def test_coalignment_reason_names_the_pinned_tables(self):
        # Q4 references both sharded tables: only the alignment makes it
        # distributive, and the reason says so.
        plan = _plan("Q4", P_DEPT_CO)
        assert plan.mode == "fanout"
        assert "co-partitioned" in plan.reason

    def test_q5_fans_out_under_task_alignment(self):
        # The tentpole: Q5 ranges over tasks and dereferences employees
        # by tasks.employee — a fallback under every pre-PR-10 placement,
        # a fan-out once the two tables are aligned on that key.
        plan = _plan("Q5", P_TASK_CO)
        assert plan.mode == "fanout", plan.reason
        assert "tasks" in plan.reason and "co-partitioned" in plan.reason

    def test_q5_still_falls_back_under_dept_alignment(self):
        # Alignment is per-key: departments⟂employees says nothing about
        # tasks, whose top-level generator blocks every anchor.
        assert _plan("Q5", P_DEPT_CO).mode == "fallback"

    def test_routed_point_lookup_survives_coalignment(self):
        # dept_staff pins departments.name *and* employees.dept to the
        # same ground atom — with both tables sharded it is still a
        # single-shard route (value-only hashing), not a fan-out.
        plan = _plan("dept_staff", P_DEPT_CO)
        assert plan.mode == "routed"
        assert "departments.name" in plan.reason
        assert "employees.dept" in plan.reason

    def test_unaligned_multi_table_still_falls_back(self):
        unaligned = Placement.of(
            {
                "departments": sharded(key="name"),
                "employees": sharded(key="dept"),
            }
        )
        for name in ("Q1", "Q4"):
            plan = _plan(name, unaligned)
            assert plan.mode == "fallback", (name, plan.reason)
            assert "multiple sharded tables" in plan.reason

    def test_unpinned_aligned_generator_falls_back(self):
        # A cross product over two aligned tables has no equality pinning
        # the employees row to the department in scope: the matching rows
        # for one department live on *other* shards, so fanning out would
        # drop them.  The alignment checker must reject it.
        term = ast.For(
            "d",
            ast.Table("departments"),
            ast.For(
                "e",
                ast.Table("employees"),
                ast.Return(
                    ast.Record(
                        (
                            ("dept", ast.Project(ast.Var("d"), "name")),
                            ("emp", ast.Project(ast.Var("e"), "name")),
                        )
                    )
                ),
            ),
        )
        plan = analyse(normalise(term, ORGANISATION_SCHEMA), P_DEPT_CO)
        assert plan.mode == "fallback", plan.reason


# --------------------------------------------------------------------------
# Placement declaration + spec round-trip.


class TestPlacementAlignment:
    def test_alignment_requires_sharded_tables(self):
        with pytest.raises(ShardingError):
            Placement.of(
                {"departments": sharded(key="name")},
                aligned=[("departments", "employees")],  # employees replicated
            )

    def test_alignment_groups_need_two_tables(self):
        with pytest.raises(ShardingError):
            Placement.of(
                {"departments": sharded(key="name")},
                aligned=[("departments",)],
            )

    def test_one_table_cannot_join_two_groups(self):
        with pytest.raises(ShardingError):
            Placement.of(
                {
                    "departments": sharded(key="name"),
                    "employees": sharded(key="dept"),
                    "tasks": sharded(key="employee"),
                },
                aligned=[
                    ("departments", "employees"),
                    ("employees", "tasks"),
                ],
            )

    def test_aligned_with(self):
        assert P_DEPT_CO.is_aligned("departments", "employees")
        assert P_DEPT_CO.is_aligned("employees", "departments")
        assert not P_DEPT_CO.is_aligned("departments", "tasks")
        assert P_DEPT_CO.aligned_with("tasks") == frozenset()

    @pytest.mark.parametrize(
        "placement",
        [P_DEPT_CO, P_TASK_CO, organisation_placement()],
        ids=["dept_co", "task_co", "organisation"],
    )
    def test_spec_round_trips(self, placement):
        assert Placement.from_spec(placement.to_spec()) == placement

    def test_spec_round_trips_replication(self):
        placement = P_DEPT_CO.with_replication(3)
        recovered = Placement.from_spec(placement.to_spec())
        assert recovered == placement
        assert recovered.replication == 3
        assert recovered.is_aligned("departments", "employees")

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "departments",
            "departments=name;aligned=departments",
            "departments=name;aligned=departments+tasks",
            "departments=name;replication=zero",
            "departments=name;nonsense=1",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ShardingError):
            Placement.from_spec(spec)


# --------------------------------------------------------------------------
# Pinned plans on a deployment: the references every partition holds.

P_UNALIGNED = Placement.of(
    {"departments": sharded(key="name"), "employees": sharded(key="dept")}
)
EMPLOYEES_PIN = "pinned: employees.dept → departments.name"


def _kept(placement: Placement) -> dict[str, tuple]:
    schema = placement.deployment_schema(ORGANISATION_SCHEMA)
    return {table.name: table.references for table in schema.tables if table.references}


def _notes(compiled) -> dict[str, str]:
    return {str(path): compiled.edges.note(path) for path in compiled.query_paths}


class TestDeploymentSchema:
    @pytest.mark.parametrize(
        "placement, kept",
        [
            (P_DEPT_CO, {"employees": (("dept", "departments.name"),)}),
            (
                P_TASK_CO,
                {
                    "tasks": (("employee", "employees.name"),),
                    "contacts": (("dept", "departments.name"),),
                },
            ),
            (organisation_placement(), {"tasks": (("employee", "employees.name"),)}),
            (P_UNALIGNED, {}),
        ],
        ids=["dept_co", "task_co", "organisation", "unaligned"],
    )
    def test_a_reference_survives_iff_every_partition_holds_it(self, placement, kept):
        """Both tables replicated, or both sharded in one aligned group on
        the join columns; a replicated child under a sharded parent, a
        sharded child under a replicated parent and an unaligned pair are
        dropped."""
        assert _kept(placement) == kept

    def test_the_rule_is_memoised_and_keeps_a_schema_it_does_not_change(self):
        schema = P_DEPT_CO.deployment_schema(ORGANISATION_SCHEMA)
        assert P_DEPT_CO.deployment_schema(ORGANISATION_SCHEMA) is schema
        assert schema.without_references() == ORGANISATION_SCHEMA.without_references()
        everything = Placement.of({}).deployment_schema(ORGANISATION_SCHEMA)
        assert everything is ORGANISATION_SCHEMA

    @pytest.mark.parametrize("name", ["Q1", "Q4"])
    def test_a_co_partitioned_deployment_pins_employees_on_every_endpoint(self, name):
        """The coordinator, a partition's endpoint and the full copy compile
        one plan: employees keyed by ``dept`` without ``departments``;
        contacts and tasks keep their natural keys."""
        session = connect_sharded(
            figure3_database(), placement=P_DEPT_CO, shards=2, registry=paper_registry()
        )
        try:
            coordinator = session.client._compiled_for(name)
            notes = _notes(coordinator)
            assert notes["↓.employees"].startswith(EMPLOYEES_PIN)
            assert all(
                note.startswith("natural keys")
                for path, note in notes.items()
                if path.endswith(("contacts", "tasks"))
            ), notes
            explained = [
                coordinator.explain(),
                session.client._groups[0][0].explain(name),
                session.prepare(name).explain(),
            ]
            for text in explained:
                assert f"index: {EMPLOYEES_PIN}; drops departments" in text
            assert session.run(name).route == "fanout"
        finally:
            session.close()

    @pytest.mark.parametrize(
        "placement", [organisation_placement(), P_UNALIGNED], ids=["organisation", "unaligned"]
    )
    def test_employees_stay_natural_unless_aligned_on_the_join(self, placement):
        compiled = endpoint_session(ORGANISATION_SCHEMA, placement).compile(
            NESTED_QUERIES["Q4"]
        )
        assert _notes(compiled)["↓.employees"] == (
            "natural keys (no reference: employees.dept = departments.name)"
        )


# --------------------------------------------------------------------------
# Differential: co-partitioned fan-out answers are exact.


class TestCoPartitionedDifferential:
    @pytest.fixture(scope="class")
    def single(self):
        session = connect(figure3_database())
        yield session
        session.close()

    @pytest.mark.parametrize(
        "placement",
        [P_DEPT_CO, P_TASK_CO],
        ids=["dept_co", "task_co"],
    )
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_paper_queries_agree(self, single, placement, shards):
        session = connect_sharded(
            figure3_database(), placement=placement, shards=shards
        )
        try:
            for name in sorted(NESTED_QUERIES):
                expected = single.run(NESTED_QUERIES[name]).value
                result = session.run(NESTED_QUERIES[name])
                assert_bag_equal(
                    result.value,
                    expected,
                    f"{name} @ {shards} shards ({result.route})",
                )
            for params in ({"dept": "Sales"}, {"dept": "Quality"}):
                term = REGISTRY.lookup("dept_staff").term
                expected = single.run(term, params=params).value
                result = session.run(term, params=params)
                assert_bag_equal(result.value, expected, str(params))
            term = REGISTRY.lookup("staff_above").term
            for threshold in (0, 900, 2_000_000):
                params = {"min_salary": threshold}
                expected = single.run(term, params=params).value
                result = session.run(term, params=params)
                assert_bag_equal(result.value, expected, str(params))
        finally:
            session.close()
            session.close()  # close is idempotent (PR 10 lifecycle fix)

    def test_inserts_route_to_aligned_shards(self, single):
        # Rows inserted into both aligned tables with the same routing
        # value land on the same shard, keeping fan-out exact after
        # writes.
        session = connect_sharded(
            figure3_database(), placement=P_DEPT_CO, shards=4
        )
        try:
            assert session.insert(
                "departments", [{"id": 50, "name": "Logistics"}]
            )
            session.insert(
                "employees",
                [{"id": 900, "dept": "Logistics", "name": "lee",
                  "salary": 700}],
            )
            from repro.shard import shard_for

            owner = shard_for("Logistics", 4)
            assert session.db.row_counts("departments")[owner] >= 1
            assert session.db.row_counts("employees")[owner] >= 1
            result = session.run(
                REGISTRY.lookup("dept_staff").term,
                params={"dept": "Logistics"},
            )
            assert result.route == f"routed:{owner}"
            assert [dict(row) for row in result.value] == [
                {"department": "Logistics", "staff": [{"name": "lee"}]}
            ]
        finally:
            session.close()
