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
