"""The protocol's server side, tested as a function — no sockets, no loop.

:class:`repro.service.core.ServerCore` holds what every op *means*: field
validation, the ``register`` convergence rule, the one engine rule and
each response shape.  ``handle(request) -> response`` is synchronous and
errors are exceptions, so all of it is pinned here directly;
``test_service.py`` then only has to show what the asyncio driver adds
(frames, admission, leases, deadlines, the loop/worker choice) and
``test_sharding.py::TestEndpointParity`` that both drivers answer alike.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError, ReproError, ServiceError
from repro.nrc.serialize import term_to_json
from repro.pipeline.plan_cache import PlanCache
from repro.service import OPS, PROTOCOL_VERSION, paper_registry
from repro.service.core import DRIVER_EVENTS, ServerCore
from repro.values import bag_equal

SALES = {"dept": "Sales"}


@pytest.fixture()
def core():
    session = connect(figure3_database(), cache=PlanCache())
    return ServerCore(session, paper_registry(), shard_label="0/1")


def _lookups(core) -> int:
    stats = core.session.pipeline.cache.stats()
    return stats["hits"] + stats["misses"]


class TestEnvelope:
    def test_one_handler_per_op_of_the_protocol(self, core):
        assert set(core._ops) == set(OPS)

    @pytest.mark.parametrize("op", ["nope", None, 7, ["ping"]])
    def test_unknown_ops_name_the_known_ones(self, core, op):
        with pytest.raises(ServiceError, match="unknown op .* one of: prepare"):
            core.handle({"op": op})

    def test_trace_ids_are_checked_then_echoed(self, core):
        assert core.handle({"op": "ping", "trace_id": "t-1"})["trace_id"] == "t-1"
        assert "trace_id" not in core.handle({"op": "ping"})
        for bad in ("x" * 65, 12):
            with pytest.raises(ServiceError, match="'trace_id' must be a string"):
                core.handle({"op": "ping", "trace_id": bad})

    def test_errors_are_exceptions_and_count_as_nothing_served(self, core):
        with pytest.raises(ServiceError) as unknown:
            core.handle({"op": "execute", "query": "no_such_query"})
        assert unknown.value.kind == "UnknownQueryError"
        with pytest.raises(ServiceError, match="need a 'query' field"):
            core.handle({"op": "prepare"})
        assert core.handle({"op": "stats"})["server"]["requests"] == {}


class TestPrepareAndExecute:
    def test_prepare_describes_the_plan(self, core):
        assert core.handle({"op": "prepare", "query": "dept_staff"}) == {
            "ok": True,
            "query": "dept_staff",
            "statements": 2,
            "params": {"dept": "String"},
            "engine": "batched",
            "description": core.registry.lookup("dept_staff").description,
            # v1.5: the fingerprint of the statements' SQL.
            "plan": core.session.compile(
                core.registry.lookup("dept_staff").term
            ).plan_fingerprint,
        }

    def test_execute_answers_what_the_session_does(self, core):
        response = core.handle(
            {"op": "execute", "query": "dept_staff", "params": SALES}
        )
        direct = core.session.run(
            core.registry.lookup("dept_staff").term, params=SALES
        )
        assert bag_equal(response["rows"], direct.value)
        assert response.keys() == {
            "ok", "query", "rows", "engine", "server_millis", "stats",
        }
        assert response["stats"].keys() == {"queries", "rows_fetched", "millis"}
        assert response["stats"]["queries"] == 2
        assert response["server_millis"] == round(response["server_millis"], 3)

    def test_every_execute_consults_the_plan_cache_exactly_once(self, core):
        # bench/served.py divides by the lookups of its window: a Prepared
        # kept across requests would make that zero.
        request = {"op": "execute", "query": "dept_staff", "params": SALES}
        for _ in range(3):
            before = _lookups(core)
            core.handle(dict(request))
            assert _lookups(core) == before + 1
        assert core.session.pipeline.cache.stats()["misses"] == 1

    def test_a_drivers_execution_is_the_same_single_consult(self, core):
        before = _lookups(core)
        execution = core.execution({"op": "execute", "query": "Q1"})
        assert execution.engine() == "batched"
        response = execution.response(execution.run())
        assert _lookups(core) == before + 1
        assert response["engine"] == "batched" and response["query"] == "Q1"

    @pytest.mark.parametrize("deadline_ms", [0, -5, float("nan"), float("inf"), True, "9"])
    def test_a_deadline_is_a_positive_number(self, core, deadline_ms):
        with pytest.raises(ServiceError, match="'deadline_ms' must be a positive"):
            core.handle({"op": "execute", "query": "Q1", "deadline_ms": deadline_ms})

    def test_the_drivers_default_deadline_applies_when_none_is_named(self, core):
        request = {"op": "execute", "query": "Q1"}
        assert core.execution(request).deadline_ms is None
        assert core.execution(request, 150).deadline_ms == 150
        assert core.execution(request | {"deadline_ms": 20}, 150).deadline_ms == 20
        with pytest.raises(ServiceError, match="'deadline_ms'"):
            core.execution(request, -1)

    @pytest.mark.parametrize("params", [[["dept", "Sales"]], "dept=Sales", 3])
    def test_params_are_an_object(self, core, params):
        with pytest.raises(ServiceError, match="'params' must be an object"):
            core.handle({"op": "execute", "query": "dept_staff", "params": params})

    def test_one_engine_rule_for_prepare_and_execute(self):
        session = connect(figure3_database(), engine="parallel")
        core = ServerCore(session, paper_registry())
        assert core.handle({"op": "prepare", "query": "Q1"})["engine"] == "parallel"
        assert core.handle({"op": "execute", "query": "Q1"})["engine"] == "parallel"
        named = {"op": "execute", "query": "Q1", "engine": "per-path"}
        assert core.handle(named)["engine"] == "per-path"
        with pytest.raises(ReproError, match="engine"):
            core.handle({"op": "execute", "query": "Q1", "engine": "warp"})

    def test_explain_is_the_sessions_report(self, core):
        response = core.handle({"op": "explain", "query": "Q6"})
        assert response["query"] == "Q6"
        assert response["text"] == core.session.prepare(NESTED_QUERIES["Q6"]).explain()


class TestRegister:
    def test_registration_converges_by_structure(self, core):
        request = {
            "op": "register",
            "query": "mine",
            "term": term_to_json(NESTED_QUERIES["Q3"]),
            "description": "ad hoc",
        }
        first = core.handle(dict(request))
        entry = core.registry.lookup("mine")
        again = core.handle(dict(request))
        assert (first["registered"], again["registered"]) == (True, False)
        assert first["fingerprint"] == again["fingerprint"]
        assert core.registry.lookup("mine") is entry  # a re-delivery churns nothing
        assert entry.description == "ad hoc"
        other = core.handle(request | {"term": term_to_json(NESTED_QUERIES["Q4"])})
        assert other["registered"] is True
        assert other["fingerprint"] != first["fingerprint"]
        executed = core.handle({"op": "execute", "query": "mine"})
        assert bag_equal(executed["rows"], core.session.run(NESTED_QUERIES["Q4"]).value)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"query": ""}, "need a 'query' field"),
            ({"term": {"k": "warp"}}, "bad 'term' payload"),
            ({"term": None}, "bad 'term' payload"),
            ({"description": 7}, "'description' must be a string"),
        ],
    )
    def test_malformed_registrations_are_refused(self, core, fields, message):
        request = {
            "op": "register", "query": "mine",
            "term": term_to_json(NESTED_QUERIES["Q1"]),
        }
        with pytest.raises(ServiceError, match=message):
            core.handle(request | fields)
        assert "mine" not in core.registry


class TestInsert:
    ROW = {"id": 99, "name": "Parity"}

    def test_a_key_applies_once(self, core):
        request = {
            "op": "insert", "table": "departments", "rows": [self.ROW],
            "idempotency_key": "k1",
        }
        first, again = core.handle(dict(request)), core.handle(dict(request))
        assert first == {"ok": True, "table": "departments", "rows": 1, "applied": True}
        assert again["applied"] is False
        assert core.session.db.row_count("departments") == 5

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"table": None}, "need a 'table' field"),
            ({"rows": {"id": 1}}, "'rows' must be an array"),
            ({"rows": [["id", 1]]}, "'rows' must be an array"),
            ({"idempotency_key": 7}, "'idempotency_key' must be a string"),
        ],
    )
    def test_malformed_inserts_are_refused(self, core, fields, message):
        request = {"op": "insert", "table": "departments", "rows": [self.ROW]}
        with pytest.raises(ServiceError, match=message):
            core.handle(request | fields)

    def test_a_batch_failing_validation_raises_as_itself(self, core):
        with pytest.raises(BackendError, match="has columns"):
            core.handle(
                {"op": "insert", "table": "departments", "rows": [{"name": "x"}]}
            )


class TestStatsMetricsPing:
    def test_stats_read_the_registry(self, core):
        core.handle({"op": "ping"})
        core.handle({"op": "ping"})
        core.handle({"op": "execute", "query": "Q1"})
        stats = core.handle({"op": "stats"})
        server = stats["server"]
        assert server["requests"].keys() == {
            "ping", "ping_millis", "execute", "execute_millis",
        }
        assert (server["requests"]["ping"], server["requests"]["execute"]) == (2, 1)
        assert isinstance(server["requests"]["ping"], int)
        millis = server["requests"]["execute_millis"]
        assert 0 < millis == round(millis, 3)
        assert server["protocol"] == PROTOCOL_VERSION
        assert (server["shard"], server["draining"]) == ("0/1", False)
        assert stats["queries"] == core.registry.names()
        assert stats["session"] == core.session.stats_snapshot()
        assert stats["plan_cache"] == core.session.pipeline.cache.stats()

    def test_driver_events_read_zero_until_a_driver_counts_them(self, core):
        server = core.handle({"op": "stats"})["server"]
        assert {key: server[key] for key in DRIVER_EVENTS} == dict.fromkeys(
            DRIVER_EVENTS, 0
        )
        core.metrics.counter("requests_shed_total", "shed").inc()
        server = core.handle({"op": "stats"})["server"]
        assert (server["shed"], server["errors"]) == (1, 0)
        assert "repro_deadline_exceeded_total" not in (
            core.handle({"op": "metrics"})["exposition"]
        )

    def test_stats_without_a_plan_cache_say_nothing_of_one(self):
        core = ServerCore(connect(figure3_database(), cache=False), paper_registry())
        assert "plan_cache" not in core.handle({"op": "stats"})

    def test_metrics_are_the_registrys_exposition(self, core):
        core.handle({"op": "ping"})
        core.handle({"op": "execute", "query": "Q1"})
        exposition = core.handle({"op": "metrics"})["exposition"]
        assert 'repro_requests_total{op="ping"} 1' in exposition
        assert "repro_statements_total 4" in exposition  # the session's mirror: Q1

    def test_ping_says_who_answers(self, core):
        expected = {
            "ok": True, "pong": True, "shard": "0/1",
            "protocol": PROTOCOL_VERSION, "draining": False,
        }
        assert core.handle({"op": "ping"}) == expected
        core.draining = True
        assert core.handle({"op": "ping"}) == expected | {"draining": True}

    def test_close_is_acknowledged(self, core):
        assert core.handle({"op": "close"}) == {"ok": True, "closing": True}
