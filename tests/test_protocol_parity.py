"""Driver smoke test — one step script, one cell per I/O driver.

The protocol's client side is written once
(:class:`repro.service.protocol.ClientCore`, unit-tested without sockets
in ``test_client_core.py``); :class:`ServiceClient` and
:class:`AsyncServiceClient` only move its bytes.  What is left to check
here is that each driver really does: the same step script runs through
the ``wire_client`` fixture against a live server and must produce the
same fixed outcomes — response shapes, ``applied`` verdicts, echoed
idempotency keys, structured error kinds (including the server-side
deadline) and the failure type against a dead endpoint — and the two
classes must expose the same ops with the same parameters.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import connect
from repro.data.organisation import figure3_database
from repro.errors import (
    DeadlineExceededError,
    ServiceConnectionError,
    ServiceError,
)
from repro.service import (
    OPS,
    PROTOCOL_VERSION,
    AsyncServiceClient,
    ServiceClient,
    paper_registry,
    serve_in_background,
)
from repro.values import bag_equal

from .fault_injection import free_port, register_slow

_ROW = {"id": 9001, "name": "Parity"}

#: (client method, kwargs, expected) — ``expected`` is the subset of the
#: response that must match, or ``(error class, structured kind)``.
_STEPS = (
    (
        "ping",
        {},
        {"pong": True, "protocol": PROTOCOL_VERSION, "shard": None, "draining": False},
    ),
    ("prepare", {"query": "Q6"}, {"query": "Q6", "statements": 3, "params": {}}),
    ("execute", {"query": "Q1"}, "Q1"),
    (
        "execute",
        {"query": "staff_above", "params": {"min_salary": 900}},
        "staff_above",
    ),
    (
        "execute_full",
        {"query": "Q2", "trace_id": "parity"},
        {"query": "Q2", "trace_id": "parity", "engine": "batched"},
    ),
    (
        "insert",
        {"table": "departments", "rows": [_ROW], "idempotency_key": "parity-a"},
        {"rows": 1, "applied": True, "idempotency_key": "parity-a"},
    ),
    (
        "insert",  # the same frame re-delivered
        {"table": "departments", "rows": [_ROW], "idempotency_key": "parity-a"},
        {"rows": 1, "applied": False, "idempotency_key": "parity-a"},
    ),
    (
        "insert",  # no key given: the client mints and echoes one
        {"table": "departments", "rows": [{"id": 9101, "name": "Auto"}]},
        {"rows": 1, "applied": True},
    ),
    (
        "insert",
        {"table": "departments", "rows": [{"wrong": 1}]},
        (ServiceError, "BackendError"),
    ),
    (
        "insert",
        {"table": "no_such_table", "rows": []},
        (ServiceError, "UnknownTableError"),
    ),
    ("execute", {"query": "no_such_query"}, (ServiceError, "UnknownQueryError")),
    (
        "execute",
        {"query": "slow_parity", "deadline_ms": 150},
        (DeadlineExceededError, "DeadlineExceeded"),
    ),
    ("explain", {"query": "Q1"}, str),
    ("metrics", {}, str),
    ("stats", {}, dict),
)


def _server():
    registry = paper_registry()
    register_slow(registry, "slow_parity", 1.0)
    db = figure3_database()
    return db, serve_in_background(connect(db), registry, pool_size=2)


def test_every_driver_runs_the_step_script(wire_client):
    db, handle = _server()
    session = connect(figure3_database())
    registry = paper_registry()
    try:
        client = wire_client(handle.host, handle.port, timeout=5)
        for method, kwargs, expected in _STEPS:
            step = f"{method}({kwargs})"
            if isinstance(expected, tuple):
                with pytest.raises(expected[0]) as caught:
                    getattr(client, method)(**kwargs)
                assert type(caught.value) is expected[0], step
                assert caught.value.kind == expected[1], step
                continue
            result = getattr(client, method)(**kwargs)
            if isinstance(expected, type):
                assert isinstance(result, expected), step
            elif isinstance(expected, str):  # execute: the nested rows
                direct = session.run(
                    registry.lookup(expected).term, params=kwargs.get("params")
                )
                assert bag_equal(result, direct.value), step
            else:
                assert result["ok"] is True, step
                assert {k: result[k] for k in expected} == expected, step
                if method == "insert":
                    assert result["idempotency_key"], step
    finally:
        handle.stop()
    # Exactly one application per fresh key.
    assert db.row_count("departments") == 4 + 2  # Fig. 3 + 2 applied
    assert client.retries == 0


def test_a_dead_endpoint_is_a_connection_error(wire_client):
    client = wire_client("127.0.0.1", free_port(), timeout=1)
    with pytest.raises(ServiceConnectionError):
        client.ping(deadline_ms=500)


def test_both_drivers_expose_the_same_ops():
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(AsyncServiceClient) - public(ServiceClient) == {"connect"}
    assert public(ServiceClient) - public(AsyncServiceClient) == set()
    assert set(OPS) | {"execute_full", "request"} == public(ServiceClient)
    for name in public(ServiceClient) - {"request", "close"}:  # those do the I/O
        blocking = inspect.signature(getattr(ServiceClient, name))
        assert blocking == inspect.signature(getattr(AsyncServiceClient, name)), name
