"""Sharded answers against a single session, at 2, 3 and 4 shards.

For every shard count, a sharded deployment (over local **and** wire
endpoints) answers like single-session execution, as nested multisets —
whichever route the shardability analysis picked (fanout, routed,
single-shard or full-copy fallback):

* the paper queries Q1–Q6 at every shard count, under bag and set
  semantics, once per endpoint kind
  (the ``sharded_session`` fixture);
* the two parameterised registry queries (``staff_above(:min_salary)``,
  ``dept_staff(:dept)``), including the routed-point-lookup guarantee:
  a bound routing key hits **exactly one shard**, asserted via the
  per-shard run counters.

Random queries, bindings and stores over 2 shards, against
:func:`repro.nrc.semantics.evaluate`, are ``tests/test_oracle_matrix.py``'s.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.service import paper_registry
from repro.shard import shard_for
from repro.values import assert_bag_equal, bag_equal

SHARD_COUNTS = (2, 3, 4)
DEPTS = ("Product", "Quality", "Research", "Sales")
REGISTRY = paper_registry()


@pytest.fixture(scope="module")
def single():
    session = connect(figure3_database())
    yield session
    session.close()


# --------------------------------------------------------------------------
# Q1–Q6, every shard count, both endpoint kinds.


class TestPaperQueries:
    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_every_shard_count(self, single, sharded_session, name):
        expected = single.run(NESTED_QUERIES[name]).value
        for shards in SHARD_COUNTS:
            result = sharded_session(shards, shared=True).run(name)
            assert_bag_equal(result.value, expected, f"{name} @ {shards} shards ({result.route})")

    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_set_semantics_agree(self, single, sharded_session, name):
        # Global set-union must dedup across shards, not only within them.
        expected = single.run(NESTED_QUERIES[name], collection="set").value
        for shards in SHARD_COUNTS:
            result = sharded_session(shards, shared=True).run(name, collection="set")
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
