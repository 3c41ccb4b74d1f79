"""The sharding conformance suite: differential testing against a single
session.

The claim under test is semantic: for *any* query, a sharded deployment
(2/3/4 shards, over local **and** wire endpoints) produces a result that
is **equal as a nested multiset** to single-session execution — whichever
route the shardability analysis picked (fanout, routed, single-shard or
full-copy fallback).  Merging per-shard answers is a bag-union over
nested multisets, so this is exactly the paper's §2.1 equivalence.

Three layers:

* the paper queries Q1–Q6 on every engine × every shard count, once per
  endpoint kind (the ``sharded_session`` fixture) — deterministic,
  exhaustive;
* the two parameterised registry queries (``staff_above(:min_salary)``,
  ``dept_staff(:dept)``), including the routed-point-lookup guarantee:
  a bound routing key hits **exactly one shard**, asserted via the
  per-shard run counters;
* the headline hypothesis property: random queries from
  :mod:`tests.strategies` (host parameters and union shapes included,
  with generated bindings) are value-equal across every shard count,
  with the engine drawn per example — over local endpoints (the
  coordinator is the same code either way; ``test_fault_tolerance.py``
  runs its own random-fault property over the wire).

CI runs the property under the fixed ``repro-ci`` hypothesis profile
(see ``tests/conftest.py``): generation stays randomised, but any
failing example prints its ``@reproduce_failure`` blob so the failure
replays locally exactly.  ``REPRO_SHARD_EXAMPLES`` scales the example
count.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.data.organisation import figure3_database, organisation_placement
from repro.data.queries import NESTED_QUERIES
from repro.service import paper_registry
from repro.shard import connect_sharded, shard_for
from repro.values import assert_bag_equal, bag_equal

from .strategies import queries_with_bindings

SHARD_COUNTS = (2, 3, 4)
ENGINES = ("per-path", "batched", "parallel")
DEPTS = ("Product", "Quality", "Research", "Sales")
REGISTRY = paper_registry()

_settings = settings(
    max_examples=int(os.environ.get("REPRO_SHARD_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def single():
    session = connect(figure3_database())
    yield session
    session.close()


# --------------------------------------------------------------------------
# Q1–Q6, every engine, every shard count, both endpoint kinds.


class TestPaperQueries:
    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_every_engine_and_shard_count(self, single, sharded_session, name):
        expected = single.run(NESTED_QUERIES[name]).value
        for shards in SHARD_COUNTS:
            session = sharded_session(shards, shared=True)
            for engine in ENGINES:
                result = session.run(name, engine=engine)
                assert_bag_equal(
                    result.value,
                    expected,
                    f"{name} @ {shards} shards, {engine} ({result.route})",
                )

    def test_set_semantics_agree(self, single, sharded_session):
        # Global set-union must dedup across shards, not only within them.
        for name in ("Q3", "Q4"):
            expected = single.run(
                NESTED_QUERIES[name], collection="set"
            ).value
            for shards in SHARD_COUNTS:
                result = sharded_session(shards, shared=True).run(
                    name, collection="set"
                )
                assert bag_equal(result.value, expected), (name, shards)


# --------------------------------------------------------------------------
# The parameterised registry queries.


class TestParameterisedQueries:
    def test_staff_above_rebinding(self, single, sharded_session):
        term = REGISTRY.lookup("staff_above").term
        for threshold in (0, 900, 50_000, 2_000_000):
            params = {"min_salary": threshold}
            expected = single.run(term, params=params).value
            for shards in SHARD_COUNTS:
                result = sharded_session(shards, shared=True).run(
                    "staff_above", params=params
                )
                assert result.route == "single:0"  # employees replicate
                assert_bag_equal(result.value, expected, str(threshold))

    def test_dept_staff_routes_to_exactly_one_shard(
        self, single, sharded_session
    ):
        term = REGISTRY.lookup("dept_staff").term
        for shards in SHARD_COUNTS:
            session = sharded_session(shards, shared=True)
            for dept in DEPTS:
                params = {"dept": dept}
                expected = single.run(term, params=params).value
                before = session.run_counts()
                result = session.run("dept_staff", params=params)
                after = session.run_counts()
                owner = shard_for(dept, shards)
                assert result.route == f"routed:{owner}"
                deltas = [
                    b - a
                    for a, b in zip(before["per_shard"], after["per_shard"])
                ]
                assert sum(deltas) == 1 and deltas[owner] == 1, deltas
                assert after["fallback"] == before["fallback"]
                assert_bag_equal(result.value, expected, dept)


# --------------------------------------------------------------------------
# The headline property: random queries, random bindings, every shard
# count.


@pytest.fixture(scope="module")
def local_sessions():
    sessions = {
        shards: connect_sharded(
            figure3_database(), placement=organisation_placement(),
            shards=shards,
        )
        for shards in SHARD_COUNTS
    }
    yield sessions
    for session in sessions.values():
        session.close()


@given(data=st.data())
@_settings
def test_random_queries_differential(single, local_sessions, data):
    query, bindings = data.draw(queries_with_bindings())
    engine = data.draw(st.sampled_from(ENGINES))
    expected = single.run(query, params=bindings).value
    for shards, session in local_sessions.items():
        result = session.run(query, params=bindings, engine=engine)
        assert bag_equal(result.value, expected), (
            f"{shards} shards via {result.route} ({engine})"
        )
