"""Differential conformance over the co-partitioned placements, on local
endpoints **and** on the process-group transport.

``test_shard_differential.py`` proves the sharded semantics on the Fig. 3
instance; this suite runs the same kind of claims on the scaled seeded
instance under the co-partitioned placements, once over local endpoints
and once against deployments of real ``serve --shard i/n``
**subprocesses** that ``connect_sharded(processes=True)`` spawns and
owns (the ``clusters`` fixture is parametrised over both):

* Q1–Q6 plus the parameterised registry queries are value-equal, as
  nested multisets, to single-session execution at 2 and 4 shards;
* the co-partitioned Q5 ``fanout`` classification holds, with **exact**
  per-shard request counters (every shard executes exactly once per
  fan-out, the fallback not at all);
* routed point lookups hit exactly one shard;
* ad-hoc terms reach every endpoint via ``register`` (over the wire: the
  protocol v1.4 op — the λNRC serializer round-trips through a live
  server) and re-registration is convergent;
* inserts are visible to subsequent fan-out reads and dedup by
  idempotency key.

Clusters are module-scoped: each wire one spawns ``shards + 1``
subprocesses (partitions + the full-copy fallback), so the suite boots
eleven servers total — enough to be real, bounded enough for CI.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.data.generator import scaled_database
from repro.service.registry import paper_registry
from repro.shard import Placement, connect_sharded, shard_for, sharded
from repro.values import assert_bag_equal

pytestmark = pytest.mark.deadline

SCALE = 8
ROWS = 5
QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")

P_DEPT_CO = Placement.of(
    {"departments": sharded(key="name"), "employees": sharded(key="dept")},
    aligned=[("departments", "employees")],
)
P_TASK_CO = Placement.of(
    {"tasks": sharded(key="employee"), "employees": sharded(key="name")},
    aligned=[("tasks", "employees")],
)

REGISTRY = paper_registry()


@pytest.fixture(scope="module")
def single():
    session = connect(scaled_database(SCALE, seed=0, scale_rows=ROWS))
    yield session
    session.close()


@pytest.fixture(scope="module", params=["local", "wire"])
def clusters(request):
    built = {}

    def cluster(placement, shards):
        key = (placement.to_spec(), shards)
        if key in built:
            return built[key]
        if request.param == "local":
            built[key] = connect_sharded(
                scaled_database(SCALE, seed=0, scale_rows=ROWS),
                placement=placement,
                shards=shards,
                registry=paper_registry(),
            )
        else:
            built[key] = connect_sharded(
                placement=placement,
                shards=shards,
                processes=True,
                scale=SCALE,
                rows=ROWS,
            )
        return built[key]

    yield cluster
    for session in built.values():
        session.close()
        session.close()  # idempotent — teardown paths often double-close


class TestPaperQueries:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_dept_copartitioned_cluster_agrees(self, single, clusters, shards):
        session = clusters(P_DEPT_CO, shards)
        for name in QUERIES:
            expected = single.run(REGISTRY.lookup(name).term).value
            result = session.run(name)
            assert_bag_equal(
                result.value,
                expected,
                f"{name} @ {shards} shards ({result.route})",
            )

    def test_task_copartitioned_cluster_agrees(self, single, clusters):
        session = clusters(P_TASK_CO, 2)
        for name in QUERIES:
            expected = single.run(REGISTRY.lookup(name).term).value
            result = session.run(name)
            assert_bag_equal(
                result.value,
                expected,
                f"{name} over task_co ({result.route})",
            )

    def test_parameterised_queries_agree(self, single, clusters):
        session = clusters(P_DEPT_CO, 2)
        term = REGISTRY.lookup("staff_above").term
        for threshold in (0, 900, 2_000_000):
            params = {"min_salary": threshold}
            expected = single.run(term, params=params).value
            result = session.run("staff_above", params=params)
            assert_bag_equal(result.value, expected, str(threshold))


class TestQ5Fanout:
    def test_q5_classifies_fanout_and_every_shard_executes_once(
        self, single, clusters
    ):
        session = clusters(P_TASK_CO, 2)
        plan = session.plan_for("Q5")
        assert plan.mode == "fanout", plan.reason
        prepared = session.prepare("Q5")
        before = session.run_counts()
        result = prepared.run()
        after = session.run_counts()
        assert result.route == "fanout"
        assert result.shards == (0, 1)
        deltas = [
            b - a
            for a, b in zip(before["per_shard"], after["per_shard"])
        ]
        assert deltas == [1, 1], deltas
        assert after["fallback"] == before["fallback"]
        expected = single.run(REGISTRY.lookup("Q5").term).value
        assert_bag_equal(result.value, expected, "Q5 fanout")


class TestRouting:
    def test_dept_staff_hits_exactly_one_shard(
        self, single, clusters
    ):
        session = clusters(P_DEPT_CO, 4)
        term = REGISTRY.lookup("dept_staff").term
        for dept in ("Dept00001", "Dept00002", "Dept00005", "Dept00008"):
            params = {"dept": dept}
            expected = single.run(term, params=params).value
            owner = shard_for(dept, 4)
            before = session.run_counts()["per_shard"]
            result = session.run("dept_staff", params=params)
            after = session.run_counts()["per_shard"]
            deltas = [b - a for a, b in zip(before, after)]
            assert result.route == f"routed:{owner}"
            assert sum(deltas) == 1 and deltas[owner] == 1, (dept, deltas)
            assert_bag_equal(result.value, expected, dept)


class TestRegister:
    def test_adhoc_terms_ship_and_agree(self, single, clusters):
        session = clusters(P_DEPT_CO, 2)
        for name in ("Q2", "Q6"):
            term = REGISTRY.lookup(name).term
            expected = single.run(term).value
            result = session.run(term)  # not a name: registers fleet-wide
            assert_bag_equal(result.value, expected, f"ad-hoc {name}")

    def test_register_is_convergent(self, clusters):
        session = clusters(P_DEPT_CO, 2)
        term = REGISTRY.lookup("Q3").term
        first = session.register("pr10_q3", term)
        again = session.register("pr10_q3", term)
        assert first["registered"] is True
        assert again["registered"] is False  # structurally identical
        assert first["fingerprint"] == again["fingerprint"]
        assert first["endpoints"] == 3  # 2 shards + the fallback

    def test_unknown_name_raises(self, clusters):
        from repro.errors import ShardingError

        session = clusters(P_DEPT_CO, 2)
        with pytest.raises(ShardingError):
            session.run("no_such_query")


class TestWrites:
    def test_insert_is_visible_and_idempotent(self, clusters):
        session = clusters(P_TASK_CO, 2)
        before = len(session.run("staff_above",
                                 params={"min_salary": -1}).value)
        row = {
            "id": 77_777,
            "dept": "Dept00001",
            "name": "pr10_new_hire",
            "salary": 123_456,
        }
        first = session.insert("employees", [row])
        assert first["applied"] is True
        redelivered = session.insert(
            "employees", [row], idempotency_key=first["idempotency_key"]
        )
        assert redelivered["applied"] is False
        after = session.run("staff_above", params={"min_salary": -1}).value
        assert len(after) == before + 1  # applied exactly once, everywhere
        assert any(r["name"] == "pr10_new_hire" for r in after)
