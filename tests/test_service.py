"""The query service end to end: server + client in one process.

The acceptance path: paper queries Q1–Q6 round-trip the wire with results
identical to ``Session.run``; a prepared parameterised query executed with
different host parameters shows exactly one plan-cache miss and then hits.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import pytest

from repro.api import connect, param
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.errors import ServiceError
from repro.pipeline.plan_cache import PlanCache
from repro.service import (
    AsyncServiceClient,
    QueryRegistry,
    RegisteredQuery,
    ServiceClient,
    paper_registry,
    serve_in_background,
)
from repro.service.protocol import OPS, split_frame
from repro.values import bag_equal

QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


@pytest.fixture(scope="module")
def service():
    """One server over the Fig. 3 instance, shared by the module's tests."""
    session = connect(figure3_database(), cache=PlanCache())
    registry = paper_registry()
    builder_session = session  # fluent sources bind to the serving session
    lo = param("min_salary", "int")
    registry.register(
        "fluent_above",
        builder_session.table("employees", alias="e")
        .where(lambda e: e.salary > lo)
        .select("name", "salary"),
    )
    handle = serve_in_background(session, registry, pool_size=3)
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


class TestWireResults:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_paper_queries_round_trip(self, service, client, name):
        served = client.execute(name)
        direct = service.server.session.run(NESTED_QUERIES[name]).value
        assert bag_equal(served, direct), name

    @pytest.mark.parametrize("engine", ["per-path", "batched", "parallel"])
    def test_engines_agree_over_the_wire(self, service, client, engine):
        served = client.execute("Q4", engine=engine)
        direct = service.server.session.run(NESTED_QUERIES["Q4"]).value
        assert bag_equal(served, direct)

    def test_execute_full_reports_engine_and_stats(self, client):
        response = client.execute_full("Q1")
        assert response["engine"] == "batched"
        assert response["stats"]["queries"] >= 1
        assert response["stats"]["rows_fetched"] >= len(response["rows"])


class TestPreparedParameterised:
    def test_one_miss_then_hits_with_rebinding(self, service, client):
        cache = service.server.session.pipeline.cache
        before = cache.stats()
        info = client.prepare("staff_above")
        assert info["params"] == {"min_salary": "Int"}
        rows_900 = client.execute("staff_above", params={"min_salary": 900})
        rows_5k = client.execute("staff_above", params={"min_salary": 50000})
        after = cache.stats()
        # Exactly one cold compile for this shape; every further consult
        # (including the re-bound second execute) is a hit.
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 2
        assert {row["name"] for row in rows_5k} < {
            row["name"] for row in rows_900
        }

    def test_fluent_registered_query_rebinds(self, client):
        low = client.execute("fluent_above", params={"min_salary": 0})
        high = client.execute("fluent_above", params={"min_salary": 10**8})
        assert len(high) < len(low)

    def test_parameterised_nested_query(self, client):
        rows = client.execute("dept_staff", params={"dept": "Research"})
        assert len(rows) == 1
        assert rows[0]["department"] == "Research"
        assert {staff["name"] for staff in rows[0]["staff"]} == {"Cora", "Drew"}


def _read_frame(raw) -> dict:
    (length,) = struct.unpack(">I", raw.recv(4))
    body = b""
    while len(body) < length:
        body += raw.recv(length - len(body))
    return split_frame(body)


class TestProtocolSurface:
    def test_explain_mentions_engine_and_type(self, client):
        text = client.explain("Q6")
        assert "engine" in text and "result type" in text

    def test_stats_surface(self, client):
        client.execute("Q1")
        stats = client.stats()
        assert "Q1" in stats["queries"]
        assert stats["server"]["pool_size"] == 3
        assert stats["server"]["requests"]["execute"] >= 1
        assert stats["session"]["queries"] >= 1
        assert stats["plan_cache"]["entries"] >= 1

    def test_missing_param_relays_shredding_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.execute("staff_above")
        assert excinfo.value.kind == "ShreddingError"

    def test_bad_engine_relays_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.execute("Q1", engine="warp-drive")
        assert excinfo.value.kind == "ShreddingError"

    def test_unknown_op_is_rejected_in_frame(self, client):
        every_op = ", ".join(OPS)  # the message is derived from the one list
        with pytest.raises(ServiceError, match=f"unknown op.*one of: {every_op}"):
            client.request({"op": "drop_tables"})

    def test_malformed_frame_gets_an_error_frame(self, service):
        with socket.create_connection((service.host, service.port), 10) as raw:
            raw.sendall(struct.pack(">I", 9) + b"not json!")
            response = _read_frame(raw)
        assert response["ok"] is False
        assert "malformed" in response["error"]["message"]

    def test_oversized_length_prefix_answers_then_hangs_up(self, service):
        # A corrupt/oversized length prefix desyncs the byte stream: the
        # server must answer with an error frame and close the connection
        # rather than parse payload bytes as the next length.
        with socket.create_connection((service.host, service.port), 10) as raw:
            raw.settimeout(10)
            raw.sendall(struct.pack(">I", 2**31))  # 2 GiB "frame"
            response = _read_frame(raw)
            assert response["ok"] is False
            assert "limit" in response["error"]["message"]
            assert raw.recv(1) == b""  # server closed the stream

    def test_closed_stays_closed(self, service, wire_client):
        client = wire_client(service.host, service.port)
        client.execute("Q1")
        client.close()  # sends the close op and drops the connection
        with pytest.raises(ServiceError, match="client is closed"):
            client.stats()
        never_connected = wire_client(service.host, service.port)
        never_connected.close()
        with pytest.raises(ServiceError, match="client is closed"):
            never_connected.ping()


class TestAsyncClient:
    def test_many_async_clients_interleave(self, service):
        async def one(name):
            async with AsyncServiceClient(service.host, service.port) as client:
                return name, await client.execute(name)

        async def go():
            return await asyncio.gather(*(one(name) for name in QUERY_NAMES))

        for name, served in asyncio.run(go()):
            direct = service.server.session.run(NESTED_QUERIES[name]).value
            assert bag_equal(served, direct), name


class TestConcurrentClients:
    def test_cold_start_concurrent_clients(self):
        # No warm-up: the very first executions of different shapes arrive
        # concurrently, so index DDL/ANALYZE on the writer races active
        # reader statements (shared-cache SQLITE_LOCKED).  Advisory DDL
        # must skip, not fail the requests.
        session = connect(figure3_database(), cache=PlanCache())
        direct = {
            name: session.run(NESTED_QUERIES[name]).value
            for name in QUERY_NAMES
        }
        cold = connect(figure3_database(), cache=PlanCache())
        failures: list = []
        barrier = threading.Barrier(len(QUERY_NAMES))

        def worker(name: str) -> None:
            try:
                with ServiceClient(handle.host, handle.port) as client:
                    barrier.wait(timeout=30)
                    for _ in range(3):
                        served = client.execute(name)
                        if not bag_equal(served, direct[name]):
                            failures.append((name, "mismatch"))
            except Exception as error:  # noqa: BLE001
                failures.append((name, repr(error)))

        with serve_in_background(cold, paper_registry(), pool_size=6) as handle:
            threads = [
                threading.Thread(target=worker, args=(name,))
                for name in QUERY_NAMES
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not failures, failures

    def test_threaded_clients_get_consistent_results(self, service):
        direct = {
            name: service.server.session.run(NESTED_QUERIES[name]).value
            for name in QUERY_NAMES
        }
        failures: list = []

        def worker(offset: int) -> None:
            try:
                with ServiceClient(service.host, service.port) as client:
                    for i in range(6):
                        name = QUERY_NAMES[(offset + i) % len(QUERY_NAMES)]
                        served = client.execute(name)
                        if not bag_equal(served, direct[name]):
                            failures.append((name, "mismatch"))
            except Exception as error:  # noqa: BLE001 — collect, don't die
                failures.append((offset, repr(error)))

        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures


class TestServerLifecycle:
    def test_same_server_restarts_cleanly(self):
        # stop() then start() on one QueryServer: the stopped flag resets,
        # leases rebuild, and requests serve normally again.
        from repro.service import QueryServer

        session = connect(figure3_database(), cache=PlanCache())
        server = QueryServer(session, paper_registry(), pool_size=2)
        direct = session.run(NESTED_QUERIES["Q1"]).value

        async def cycle() -> list:
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                __import__("repro.service.protocol", fromlist=["pack_frame"])
                .pack_frame({"op": "execute", "query": "Q1"})
            )
            await writer.drain()
            from repro.service.protocol import frame_length, split_frame

            body = await reader.readexactly(
                frame_length(await reader.readexactly(4))
            )
            writer.close()
            await server.stop()
            return split_frame(body)["rows"]

        for _ in range(2):  # second cycle exercises the restart path
            rows = asyncio.run(cycle())
            assert bag_equal(rows, direct)
        assert session.db._dedicated_readers == []

    def test_bind_failure_releases_fresh_leases(self):
        import socket

        from repro.service import QueryServer

        session = connect(figure3_database(), cache=PlanCache())
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            server = QueryServer(session, paper_registry(), pool_size=2)
            with pytest.raises(OSError):
                asyncio.run(server.start("127.0.0.1", port))
        finally:
            blocker.close()
        assert session.db._dedicated_readers == []

    def test_stop_retires_every_lease(self):
        session = connect(figure3_database(), cache=PlanCache())
        db = session.db
        handle = serve_in_background(session, paper_registry(), pool_size=3)
        try:
            with ServiceClient(handle.host, handle.port) as client:
                client.execute("Q1")
            assert len(db._dedicated_readers) == 3
        finally:
            handle.stop()
        assert db._dedicated_readers == []

    def test_oversized_response_gets_an_error_frame(self, monkeypatch):
        # A result too large for one frame must come back as a structured
        # error, not a dropped connection.
        import repro.service.protocol as protocol

        session = connect(figure3_database(), cache=PlanCache())
        with serve_in_background(session, paper_registry()) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                # Big enough for request + error frames, too small for
                # Q1's ~900-byte row payload.
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 400)
                try:
                    with pytest.raises(ServiceError, match="limit"):
                        client.request({"op": "execute", "query": "Q1"})
                    # The connection survives for the next (small) request.
                    assert client.request({"op": "prepare", "query": "Q2"})[
                        "ok"
                    ]
                finally:
                    monkeypatch.undo()


class TestRegistry:
    def test_reregistering_replaces(self, db):
        registry = QueryRegistry()
        session = connect(db, cache=False)
        registry.register("q", session.table("departments").select("name"))
        registry.register("q", session.table("employees").select("name"))
        entry = registry.lookup("q")
        assert "employees" in repr(entry.term)

    def test_lookup_unknown_lists_known(self):
        registry = paper_registry()
        with pytest.raises(ServiceError, match="Q1"):
            registry.lookup("zzz")

    def test_invalid_name_rejected(self):
        with pytest.raises(ServiceError):
            QueryRegistry().register("", NESTED_QUERIES["Q1"])

    def test_paper_registry_contents(self):
        registry = paper_registry(extra=[("extra", NESTED_QUERIES["Q1"])])
        assert set(QUERY_NAMES) <= set(registry.names())
        assert "staff_above" in registry and "dept_staff" in registry
        assert "extra" in registry
        assert len(registry) == 9


# --------------------------------------------------------------------------
# Light entries run on the event loop (under a step guard); everything
# else on a worker thread.  Counters, not clocks, say which happened.


def _oracle(registry, db, name: str, params=None):
    """What ``name`` must answer: N⟦−⟧ of its term over the live rows."""
    from repro.nrc.ast import substitute_params
    from repro.nrc.semantics import evaluate

    term = registry.lookup(name).term
    return evaluate(substitute_params(term, params) if params else term, db)


def _where(client) -> tuple[int, int]:
    """(inline_runs, escalations) of the server ``client`` talks to."""
    server = client.stats()["server"]
    return server["inline_runs"], server["escalations"]


def _fat_department(dept: str, rows: int = 6000) -> list[dict]:
    """Employees enough under one key that scanning them outruns
    INLINE_STEP_BUDGET (≈ 6 steps per fetched row)."""
    return [
        {"id": 10_000 + i, "dept": dept, "name": f"extra-{i}", "salary": 1}
        for i in range(rows)
    ]


@pytest.fixture
def fresh():
    """A server nobody has warmed: (handle, registry, db), one lease —
    so every run of a test is on the *same* leased connection."""
    db = figure3_database()
    registry = paper_registry()
    handle = serve_in_background(
        connect(db, cache=PlanCache()), registry, pool_size=1
    )
    try:
        yield handle, registry, db
    finally:
        handle.stop()


class _GatedQuery(RegisteredQuery):
    """A catalogue entry whose run parks until the test opens the gate —
    a heavy query *in flight* for as long as the test needs it to be."""

    def __init__(self, name: str) -> None:
        super().__init__(name=name, term=NESTED_QUERIES["Q1"])
        self.running = threading.Semaphore(0)
        self.gate = threading.Event()

    def prepared(self, session):
        real = super().prepared(session)
        entry = self

        class _Gated:
            def run(self, **kwargs):
                entry.running.release()
                assert entry.gate.wait(timeout=30)
                return real.run(**kwargs)

        return _Gated()


class TestRunsOnTheLoop:
    def test_first_run_on_a_worker_then_inline(self, fresh, wire_client):
        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        params = {"dept": "Research"}
        expected = _oracle(registry, db, "dept_staff", params)
        assert _where(client) == (0, 0)
        first = client.execute("dept_staff", params=params)
        assert _where(client) == (0, 0)  # compile + advisement: a worker's job
        second = client.execute("dept_staff", params=params)
        third = client.execute("dept_staff", params={"dept": "Sales"})
        assert _where(client) == (2, 0)
        assert bag_equal(first, expected) and bag_equal(second, expected)
        assert bag_equal(
            third, _oracle(registry, db, "dept_staff", {"dept": "Sales"})
        )
        exposition = client.metrics()
        assert "repro_execute_inline_total 2" in exposition
        assert "repro_execute_escalations_total 0" in exposition

    def test_multiplicity_cases_over_the_wire_worker_then_inline(
        self, wire_client
    ):
        from .strategies import trap_stores
        from .test_property_pipeline import MULTIPLICITY_CASES

        db = trap_stores()["traps"]
        registry = QueryRegistry()
        for case in MULTIPLICITY_CASES:
            registry.register(case.id, case.values[0])
        session = connect(db, cache=PlanCache())
        with serve_in_background(session, registry, pool_size=1) as handle:
            client = wire_client(handle.host, handle.port)
            for done, case in enumerate(MULTIPLICITY_CASES):
                expected = _oracle(registry, db, case.id)
                on_a_worker = client.execute(case.id)
                assert _where(client) == (done, 0), case.id
                inline = client.execute(case.id)
                assert _where(client) == (done + 1, 0), case.id
                assert bag_equal(on_a_worker, expected), case.id
                assert bag_equal(inline, expected), case.id

    def test_heavy_parameter_escalates_once_and_sticks(self, fresh, wire_client):
        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        params = {"dept": "Research"}
        client.execute("dept_staff", params=params)
        client.execute("dept_staff", params=params)
        assert _where(client) == (1, 0)
        client.insert("employees", _fat_department("Research"))
        served = client.execute("dept_staff", params=params)
        assert _where(client) == (1, 1)  # tried inline, tripped, re-ran
        assert len(served[0]["staff"]) == 6002
        assert bag_equal(served, _oracle(registry, db, "dept_staff", params))
        # Heavy is sticky, for every parameter.
        client.execute("dept_staff", params=params)
        client.execute("dept_staff", params={"dept": "Sales"})
        assert _where(client) == (1, 1)
        # A re-registered entry is a new entry: learned again from its
        # first run (same term, so the wire's convergent ``register`` would
        # be a no-op — this is the server-side hot catalogue update).
        registry.register("dept_staff", registry.lookup("dept_staff").term)
        sales = {"dept": "Sales"}
        assert bag_equal(
            client.execute("dept_staff", params=sales),
            _oracle(registry, db, "dept_staff", sales),
        )
        assert _where(client) == (1, 1)
        client.execute("dept_staff", params=sales)
        assert _where(client) == (2, 1)

    def test_over_the_light_line_inside_the_budget_turns_heavy_quietly(
        self, fresh, wire_client
    ):
        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        params = {"dept": "Research"}
        client.execute("dept_staff", params=params)
        client.insert("employees", _fat_department("Research", rows=1000))
        served = client.execute("dept_staff", params=params)
        assert _where(client) == (1, 0)  # ≈ 6 k steps: ran inline, whole
        assert bag_equal(served, _oracle(registry, db, "dept_staff", params))
        client.execute("dept_staff", params=params)
        assert _where(client) == (1, 0)  # … but 1 003 fetched rows: heavy now

    def test_the_guard_never_outlives_its_run(self, fresh, wire_client):
        handle, registry, db = fresh  # one lease serves every run below
        client = wire_client(handle.host, handle.port)
        light, fat = {"dept": "Sales"}, {"dept": "Research"}
        for _ in range(2):
            client.execute("dept_staff", params=light)
        assert _where(client) == (1, 0)
        client.insert("employees", _fat_department("Research"))
        everyone = {"min_salary": 0}
        expected = _oracle(registry, db, "staff_above", everyone)
        assert len(expected) > 6000  # far beyond the step budget
        # After an inline run: a heavy worker-thread run, uninterrupted.
        assert bag_equal(client.execute("staff_above", params=everyone), expected)
        # An escalation: interrupted on the loop, whole on the worker …
        served = client.execute("dept_staff", params=fat)
        assert _where(client) == (1, 1)
        assert bag_equal(served, _oracle(registry, db, "dept_staff", fat))
        # … and after it the same lease serves the heavy run again.
        assert bag_equal(client.execute("staff_above", params=everyone), expected)
        assert _where(client) == (1, 1)
        assert "repro_leases_free 1" in client.metrics()

    def test_the_loop_stays_live_under_heavy_queries(self, wire_client):
        from repro.errors import OverloadedError

        db = figure3_database()
        registry = paper_registry()
        gated = _GatedQuery("gated")
        with registry._lock:
            registry._entries["gated"] = gated
        handle = serve_in_background(
            connect(db, cache=PlanCache()), registry, pool_size=3, max_pending=2
        )
        answers: list = []

        def heavy() -> None:
            with ServiceClient(handle.host, handle.port) as client:
                answers.append(client.execute("gated"))

        threads = [threading.Thread(target=heavy) for _ in range(2)]
        try:
            client = wire_client(handle.host, handle.port)
            sales = {"dept": "Sales"}
            for _ in range(2):
                client.execute("dept_staff", params=sales)
            assert _where(client) == (1, 0)
            threads[0].start()
            assert gated.running.acquire(timeout=30)  # in flight, on a worker
            assert client.ping()["pong"] is True
            served = client.execute("dept_staff", params=sales)
            assert bag_equal(served, _oracle(registry, db, "dept_staff", sales))
            assert _where(client) == (2, 0)  # answered from the loop meanwhile
            threads[1].start()
            assert gated.running.acquire(timeout=30)  # admission bound reached
            with pytest.raises(OverloadedError, match="admission limit"):
                client.execute("dept_staff", params=sales)
            assert client.ping()["pong"] is True
            assert client.stats()["server"]["shed"] == 1
        finally:
            gated.gate.set()
            for thread in threads:
                if thread.ident is not None:
                    thread.join(timeout=30)
            handle.stop()
        expected = _oracle(registry, db, "gated")
        assert len(answers) == 2
        assert all(bag_equal(answer, expected) for answer in answers)
        # The heavy runs were never counted inline.
        assert handle.server.metrics.get("execute_inline_total").value == 2

    def test_deadline_semantics_are_the_worker_paths(self, fresh, wire_client):
        from repro.errors import DeadlineExceededError

        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        sales = {"dept": "Sales"}

        def hurried(query: str) -> None:
            # Sent raw: a microsecond's deadline, enforced by the server
            # alone (the client would refuse to even send it).
            client.request(
                {"op": "execute", "query": query, "params": sales,
                 "deadline_ms": 0.001}
            )

        with pytest.raises(DeadlineExceededError, match="server-side") as worker:
            hurried("dept_staff")  # never run before: a worker's
        assert client.stats()["server"]["deadline_exceeded"] == 1
        for _ in range(2):
            client.execute("dept_staff", params=sales)
        assert _where(client) == (1, 0)
        with pytest.raises(DeadlineExceededError, match="server-side") as inline:
            hurried("dept_staff")
        assert _where(client) == (2, 0)  # it did run on the loop
        assert client.stats()["server"]["deadline_exceeded"] == 2
        assert str(inline.value) == str(worker.value)
        assert inline.value.kind == worker.value.kind == "DeadlineExceeded"
        # A deadline it meets changes nothing, and the lease came back.
        served = client.execute("dept_staff", params=sales, deadline_ms=30_000)
        assert bag_equal(served, _oracle(registry, db, "dept_staff", sales))
        assert _where(client) == (3, 0)
        assert "repro_leases_free 1" in client.metrics()

    @pytest.mark.parametrize("engine", ["parallel", "per-path"])
    def test_other_engines_never_run_inline(self, fresh, wire_client, engine):
        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        sales = {"dept": "Sales"}
        for _ in range(2):
            client.execute("dept_staff", params=sales)
        assert _where(client) == (1, 0)
        response = client.execute_full(
            "dept_staff", sales, engine=engine, trace_id="where"
        )
        assert response["engine"] == engine and response["inline"] is False
        assert bag_equal(
            response["rows"], _oracle(registry, db, "dept_staff", sales)
        )
        assert _where(client) == (1, 0)
        traced = client.execute_full("dept_staff", sales, trace_id="where")
        assert traced["inline"] is True
        assert "inline" not in client.execute_full("dept_staff", sales)

    def test_inline_errors_answer_in_frame_and_return_the_lease(
        self, fresh, wire_client
    ):
        handle, registry, db = fresh
        client = wire_client(handle.host, handle.port)
        for _ in range(2):
            client.execute("dept_staff", params={"dept": "Sales"})
        with pytest.raises(ServiceError) as excinfo:
            client.execute("dept_staff")  # the parameter is missing
        assert excinfo.value.kind == "ShreddingError"
        assert "repro_leases_free 1" in client.metrics()
        client.execute("dept_staff", params={"dept": "Sales"})
        assert _where(client) == (2, 0)

    def test_hammer_mixed_light_heavy_and_escalating(self):
        import random

        db = figure3_database()
        db.insert("employees", _fat_department("Research"))
        registry = paper_registry()
        aliases = [f"dept_staff_{i}" for i in range(4)]
        for alias in aliases:  # each escalates once, whenever its turn comes
            registry.register(alias, registry.lookup("dept_staff").term)
        mix = (
            [(alias, {"dept": "Sales"}) for alias in aliases] * 4
            + [(alias, {"dept": "Research"}) for alias in aliases]
            + [("staff_above", {"min_salary": 0}), ("Q2", None)]
        )
        expected = {
            (name, repr(params)): _oracle(registry, db, name, params)
            for name, params in mix
        }
        pool_size, connections, requests = 3, 6, 40
        failures: list = []

        def caller(seed: int) -> None:
            rng = random.Random(seed)
            try:
                with ServiceClient(handle.host, handle.port) as client:
                    for _ in range(requests):
                        name, params = rng.choice(mix)
                        served = client.execute(name, params=params)
                        if not bag_equal(served, expected[name, repr(params)]):
                            failures.append((name, params, "mismatch"))
            except Exception as error:  # noqa: BLE001 — collect, don't die
                failures.append((seed, repr(error)))

        with serve_in_background(
            connect(db, cache=PlanCache()), registry, pool_size=pool_size
        ) as handle:
            threads = [
                threading.Thread(target=caller, args=(seed,))
                for seed in range(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            with ServiceClient(handle.host, handle.port) as client:
                server = client.stats()["server"]
                exposition = client.metrics()
        assert not failures, failures[:5]
        assert server["requests"]["execute"] == connections * requests
        assert server["errors"] == 0 and server["pending"] == 0
        assert server["inline_runs"] > 0
        # An alias escalates at most once — it is heavy from then on.
        assert 0 < server["escalations"] <= len(aliases)
        assert f"repro_leases_free {pool_size}" in exposition


class TestDeadlineValidation:
    @pytest.mark.parametrize("literal", ["true", "NaN", "Infinity"])
    def test_non_numbers_are_rejected(self, service, literal):
        # ``json.loads`` reads all three; none is a positive number of
        # milliseconds (``true`` used to mean 1 ms, ``NaN`` a deadline that
        # always expires, ``Infinity`` none at all).
        body = (
            '{"op": "execute", "query": "Q1", "deadline_ms": %s}' % literal
        ).encode()
        deadlines = service.server.metrics.get("deadline_exceeded_total")
        before = deadlines.value
        with socket.create_connection((service.host, service.port), 10) as raw:
            raw.sendall(struct.pack(">I", len(body)) + body)
            response = _read_frame(raw)
        assert response["ok"] is False
        assert response["error"]["type"] == "ServiceError"
        assert "'deadline_ms' must be a positive number" in (
            response["error"]["message"]
        )
        assert deadlines.value == before


class TestFramePacking:
    def test_frames_are_packed_off_loop_by_rows_fetched(self, monkeypatch):
        # Q4 at 64 × 100: 64 top-level rows, ≈ 6 000 nested values — a big
        # frame the old top-level-row test packed on the loop.
        import repro.service.server as server_module
        from repro.data.generator import scaled_database

        packed: list = []
        real = server_module.pack_frame

        def recording(message):
            if message.get("query") in ("Q4", "dept_staff"):
                packed.append((message["query"], threading.current_thread()))
            return real(message)

        monkeypatch.setattr(server_module, "pack_frame", recording)
        db = scaled_database(64, 0, 100)
        department = db.rows("departments")[0]["name"]
        with serve_in_background(connect(db), paper_registry()) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                big = client.execute_full("Q4")
                small = client.execute_full("dept_staff", {"dept": department})
            loop_thread = handle._thread
        assert len(big["rows"]) == 64 and big["stats"]["rows_fetched"] > 6000
        assert small["stats"]["rows_fetched"] <= 256
        assert [query for query, _thread in packed] == ["Q4", "dept_staff"]
        assert packed[0][1] is not loop_thread
        assert packed[1][1] is loop_thread
