"""The query-service wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests are objects with an ``op`` field — one of
:data:`OPS`, the list the server dispatches from::

    {"op": "prepare", "query": "Q6"}
    {"op": "execute", "query": "staff_above", "params": {"min_salary": 900}}
    {"op": "explain", "query": "Q6"}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "close"}

(``insert``, ``metrics`` and ``register`` are introduced with their
protocol versions below.)

Responses carry ``ok``; successful ones add op-specific payload fields,
failures an ``error`` object::

    {"ok": true, "rows": [...], "engine": "batched", "stats": {...}}
    {"ok": false, "error": {"type": "ShreddingError", "message": "..."}}

Why JSON frames and not HTTP: the protocol is a handful of verbs over a
persistent connection; a length prefix keeps the reader trivial in both the
asyncio server and the blocking client, and nested multiset results
serialise directly (``Result.to_dicts()`` produces lists/dicts/base values
only).

Protocol **v1.1** (fault-tolerant serving) additions, all backwards
compatible — a v1.0 client never sends the new fields, a v1.0 server
ignores them:

* ``ping`` — a liveness probe answered inline on the event loop (no
  compile, no lease): ``{"ok": true, "pong": true, "shard": …,
  "protocol": "1.1"}``.  Health checks and circuit-breaker half-open
  probes ride on it.
* request ids — any request may carry an ``id``; the response (success
  *or* error frame) echoes it verbatim.  Clients use the echo to detect a
  desynced connection: a stale response buffered by an earlier timed-out
  request answers with the *wrong* id and is discarded with the
  connection instead of being mis-delivered.
* ``deadline_ms`` — a per-request wall-clock budget.  The server stops
  waiting (not the worker thread: SQLite steps are not interruptible,
  but the lease-parking machinery reclaims the connection when the
  straggler finishes) and answers a ``DeadlineExceeded`` error frame.
* ``OVERLOADED`` load shedding — once the server's bounded admission
  queue is full, new executes are refused *immediately* with an
  ``Overloaded`` error frame; queued work is unaffected.

Protocol **v1.2** (self-healing deployments) adds the write path::

    {"op": "insert", "table": "departments",
     "rows": [{"name": "engineering"}],
     "idempotency_key": "c0ffee…"}
    {"ok": true, "table": "departments", "rows": 1, "applied": true}

``insert`` is the one mutating op, and the idempotency key is what makes
it safe under v1.1's retry machinery: delivery is at-least-once (a
client whose connection drops mid-insert *re-sends* the frame), but the
server journals applied keys, so application is exactly-once — a
re-delivered key answers ``"applied": false`` with nothing written.
Durable stores (``serve --data-dir``) persist the journal next to the
rows in the same transaction, so dedup survives a crash-restart.

Protocol **v1.3** (observability) additions, again backwards compatible:

* ``metrics`` — renders the server's metrics registry as Prometheus text
  exposition, in-band: ``{"ok": true, "exposition": "# HELP …"}``.
  Fleet tooling scrapes through the query port; ``--metrics-port``
  additionally serves the same text over plain HTTP ``GET /metrics``.
* ``trace_id`` — any request may carry an opaque ``trace_id`` string
  (≤64 chars); the response echoes it, and execute responses add the
  server-side wall time so a fan-out client can attribute each shard's
  share of a traced run.  A *traced* execute response also says where
  the run happened — ``"inline": true`` on the server's event loop,
  ``false`` on a worker thread (see :mod:`repro.service.server`); an
  untraced response is byte-for-byte what it was.  The sharded client
  stamps its :class:`~repro.obs.Tracer`'s id on every sub-request.

Protocol **v1.4** (process-per-shard deployments) adds dynamic query
registration::

    {"op": "register", "query": "rq_17",
     "term": {"k": "for", "var": "d", ...},
     "description": "ad-hoc differential query"}
    {"ok": true, "query": "rq_17", "registered": true,
     "fingerprint": "ab12…"}

``term`` is a λNRC term serialised by :mod:`repro.nrc.serialize` — the
same AST the in-process façade lowers sources to, so a process-group
deployment can serve queries that were never baked into the server's
start-up registry.  Re-registering a name with a structurally identical
term answers ``"registered": false`` (a no-op: fan-out clients register
on every shard and retries must converge); a *different* term under an
existing name replaces it, exactly like the in-process registry.

Protocol **v1.5** (stitch once, at the coordinator) gives ``execute`` a
second answer shape, again backwards compatible::

    {"op": "execute", "query": "Q4", "result": "shredded"}
    {"ok": true, "query": "Q4", "plan": "9f2c…", "engine": "batched",
     "server_millis": 3.1, "stats": {...},
     "shredded": [{"n": 3, "c": [["Product", "Sales", …], …]}, …]}

* ``result: "shredded"`` — the paper's architecture taken literally: the
  flat queries run at the endpoint, stitching is the one local step at
  the asker.  The response carries, in place of ``rows``, one table per
  statement of the plan in package order: ``n`` rows as ``c``, one JSON
  array per projected column (Bool cells travel as 0/1).
  SQLite builds each table itself (JSON1's ``json_group_array`` over the
  statement's SQL, unchanged) and :func:`pack_frame` splices the bytes
  into the frame, so the endpoint builds no row tuple, no record and
  serialises nothing.  ``stats.rows_fetched`` is Σ ``n``.  These are the
  very tables the batched engine reads in process, and the asker folds
  them with that engine's decode-check-fold
  (:meth:`~repro.pipeline.shredder.CompiledQuery.fold_tables`); the wire
  carries no key, so how the folds key a parent→child edge (bare or
  tagged) is the asker's own compile's business.
* ``plan`` — a fingerprint of the plan's SQL, on shredded ``execute`` and
  on every ``prepare`` response: column tables only mean something to an
  asker that compiled the same statements, so it compares.
* who asks: :class:`~repro.shard.client.ShardedServiceClient`, on every
  sub-request; a plain ``execute`` (no ``result``) is byte for byte what
  it was.  A store whose SQLite lacks JSON1 cannot open, so it answers
  every ``execute`` with a ``MissingSqlFunction`` error frame.

Protocol **v1.6** (one engine behind the wire) removes a field: every
served run is the batched engine's, so an ``execute`` that names an
``engine`` is answered with a ``ServiceError`` error frame, and
``prepare`` no longer reports one (``execute`` still does: always
``"batched"``).  A ``result: "shredded"`` answer is column tables under
every ``collection``: the bag's rows in the plan's order, to which the
asker applies δ under set semantics, and whose order (an ``ordered``
plan's) its fold keeps under list semantics — exactly the in-process
batched fold.  Choosing another engine is an in-process run's business
(``Prepared.run(engine=…)``).

The client side of all of the above is :class:`ClientCore`, below the
frame functions: one request's life as a state machine over ``bytes`` —
no socket, no event loop, no sleep (``tools/check_concurrency.py`` CC004
keeps it so); :mod:`repro.service.client` holds its two I/O drivers.
"""

from __future__ import annotations

import json
import struct
import time
import uuid
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.resilience import CircuitBreaker, Deadline, RetryPolicy

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "pack_frame",
    "frame_length",
    "split_frame",
    "error_payload",
    "raise_for_error",
    "OPS",
    "ClientCore",
]

#: Frames above this size are rejected instead of buffered — a corrupted
#: length prefix must not look like a 4 GiB allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: v1.5: ``execute``'s ``result: "shredded"`` answer shape (per-statement
#: column tables, stitched once at a fan-out coordinator) and the ``plan``
#: fingerprint, on top of v1.4's ``register`` op, v1.3's ``metrics`` +
#: ``trace_id``, v1.2's idempotent ``insert`` and v1.1's ping + request-id
#: echo + per-request deadlines + load shedding.
PROTOCOL_VERSION = "1.6"

_LENGTH = struct.Struct(">I")

#: The operations of the protocol — the one list:
#: :class:`~repro.service.core.ServerCore` builds its dispatch table (and
#: its "unknown op" message) from it, and :class:`ClientCore` has one
#: method per entry (``close`` is each driver's own).
OPS = (
    "prepare",
    "register",
    "execute",
    "insert",
    "explain",
    "stats",
    "metrics",
    "ping",
    "close",
)

#: Error-frame types that deserialise to dedicated exception classes, so
#: callers branch on ``except OverloadedError`` instead of string-matching
#: ``.kind``.  Everything else becomes a plain :class:`ServiceError`
#: carrying the server's classification in ``kind``.
_ERROR_KINDS = {
    "Overloaded": OverloadedError,
    "DeadlineExceeded": DeadlineExceededError,
}


def pack_frame(payload: dict) -> bytes:
    """Serialise one message to its wire form (length prefix + JSON).

    An execute response's ``shredded`` field (protocol v1.5) is spliced,
    not serialised: its tables are ``(row count, JSON bytes)`` pairs whose
    bytes SQLite wrote, and they enter the frame as they are — ``{"n":
    rows, "c": [column, …]}`` per table — after the response's other
    fields.  The frame is still one JSON document under
    :data:`MAX_FRAME_BYTES`."""
    tables = payload.get("shredded")
    if tables is None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    else:
        rest = {key: value for key, value in payload.items() if key != "shredded"}
        head = json.dumps(rest, separators=(",", ":")).encode("utf-8")
        spliced = b",".join(b'{"n":%d,"c":%s}' % table for table in tables)
        body = head[:-1] + b',"shredded":[' + spliced + b"]}"
    if len(body) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def frame_length(prefix: bytes) -> int:
    """Decode (and bound-check) the 4-byte length prefix."""
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def split_frame(body: bytes) -> dict:
    """Decode a frame body into its message object."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed frame: {error}") from error
    if not isinstance(message, dict):
        raise ServiceError(
            f"frames must be JSON objects, got {type(message).__name__}"
        )
    return message


def error_payload(error: BaseException, request_id: object = None) -> dict:
    """The structured error frame for an exception.

    Library errors (:class:`ReproError` subclasses — ``ShreddingError``,
    ``CaptureError``, ``BackendError``, …) keep their class name so clients
    can branch on the failure kind; anything else is reported as an
    ``InternalError`` without leaking a traceback over the wire.  When the
    failing request carried an ``id``, the error frame echoes it.
    """
    if isinstance(error, ReproError):
        # A ServiceError may carry a finer classification than its class
        # name (e.g. UnknownQueryError); relay it verbatim.
        kind = getattr(error, "kind", None) or type(error).__name__
        message = str(error)
    else:
        kind = "InternalError"
        message = f"{type(error).__name__}: {error}"
    payload = {"ok": False, "error": {"type": kind, "message": message}}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def raise_for_error(response: dict) -> dict:
    """Client side: turn an error response into a :class:`ServiceError`
    (or the dedicated subclass its type maps to — ``Overloaded`` frames
    raise :class:`~repro.errors.OverloadedError`, ``DeadlineExceeded``
    frames :class:`~repro.errors.DeadlineExceededError`)."""
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    kind = error.get("type", "ServiceError")
    message = error.get("message", "unspecified service error")
    dedicated = _ERROR_KINDS.get(kind)
    if dedicated is not None:
        raise dedicated(message)
    raise ServiceError(message, kind=kind)


# --------------------------------------------------------------------------
# The client side, sans I/O.

#: The connect/read/write timeout a client applies when none is given.
DEFAULT_TIMEOUT = 30.0

#: Sentinel distinguishing "use the client default" from an explicit None
#: (= no deadline) in per-request ``deadline_ms`` arguments.
_USE_DEFAULT: Any = object()


def _given(**fields: Any) -> dict:
    """The optional request fields the caller actually set."""
    return {name: value for name, value in fields.items() if value}


class ClientCore:
    """The client side of the protocol with the I/O left out — what
    :class:`~repro.service.client.ServiceClient` and
    :class:`~repro.service.client.AsyncServiceClient` share: the state
    both expose, one request's whole life, and the ops.  (A third driver,
    :class:`~repro.shard.deployment.LocalEndpoint`, has no transport at
    all: it takes the ops, :meth:`_stamp` and the counters, and hands the
    request to a :class:`~repro.service.core.ServerCore` in process.)

    A driver runs a request as :meth:`_begin` → :meth:`_admit` → write
    :attr:`_frame` → read at most :attr:`_wanted` bytes and
    :meth:`_receive` them, until that returns the response →
    :meth:`_answered`.  Every wait is bounded by :meth:`_budget`;
    whatever the transport (or :meth:`_receive`) raises goes to
    :meth:`_failed`, which says what happens next.  One request at a
    time: its state lives here.

    The driver also supplies ``_drop()`` — close the transport
    unconditionally and without blocking; the next request reconnects —
    and ``_call(payload, project=None, *, deadline_ms=…, retry=…)`` —
    ``project(request(payload, …))``, awaited where the driver is.  The
    op methods return what ``_call`` returns: the projected response on
    the blocking driver, an awaitable of it on the asyncio one.
    """

    _drop: Callable[[], None]
    _call: Callable[..., Any]

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        deadline_ms: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.deadline_ms = deadline_ms
        #: A single attempt and no breaker, unless the driver adds them.
        self.retry = RetryPolicy.none()
        self.breaker: Optional[CircuitBreaker] = None
        #: Monotonic clock for deadlines and ping timing — injectable so
        #: tests (and the replica router's latency tie-break) are
        #: deterministic.
        self.clock = clock
        #: Round-trip time of the most recent successful :meth:`ping`
        #: (milliseconds), or None before the first one.  The sharded
        #: client reads this to prefer the lowest-latency live replica.
        self.last_ping_ms: Optional[float] = None
        #: Observability counters: transparent retries and reconnects this
        #: client performed (the fault-injection suite asserts these).
        self.retries = 0
        self.reconnects = 0
        self._connected_once = False
        self._closed = False
        self._request_seq = 0
        self._chunks: list[bytes] = []  # short reads of the piece in progress

    # ------------------------------------------------------------- exchange

    def _connected(self) -> None:
        """A driver reports every connection it establishes."""
        self.reconnects += self._connected_once
        self._connected_once = True

    def _stamp(self, payload: dict, deadline_ms: object) -> tuple[dict, Any]:
        """``payload`` as it leaves — carrying the request's deadline, so
        the server side enforces it independently — and that deadline in
        milliseconds (None: none).  A closed client stays closed."""
        if self._closed:
            raise ServiceError("client is closed")
        budget: Any = self.deadline_ms if deadline_ms is _USE_DEFAULT else deadline_ms
        wire = dict(payload)
        if budget is not None:
            wire.setdefault("deadline_ms", budget)
        return wire, budget

    def _begin(self, payload: dict, deadline_ms: object, retry: bool) -> None:
        """Stamp ``payload`` with the next request id and the deadline and
        frame it — once; every attempt re-sends the same bytes."""
        wire, budget = self._stamp(payload, deadline_ms)
        self._request_seq += 1
        self._id = wire.setdefault("id", self._request_seq)
        self._frame = pack_frame(wire)
        self._deadline = Deadline.after_millis(budget, self.clock)
        self._attempts = self.retry.attempts if retry else 1
        self._attempt = 0

    def _admit(self) -> None:
        """Start an attempt: the response needs its 4-byte prefix first.
        A tripped breaker refuses the attempt — fail fast instead of
        paying another connect timeout."""
        self._attempt += 1
        #: How many bytes the response needs next.
        self._wanted = _LENGTH.size
        self._in_body = False
        self._chunks.clear()
        if self.breaker is not None and not self.breaker.allow():
            failures = self.breaker.snapshot()["consecutive_failures"]
            raise ServiceConnectionError(
                f"circuit open for {self.host}:{self.port} "
                f"({failures} consecutive failures)",
                kind="CircuitOpen",
            )

    def _budget(self, doing: str) -> Optional[float]:
        """Seconds the next connect, write or read may take: the uniform
        I/O timeout, or what is left of the deadline if that is less.
        Raises :class:`DeadlineExceededError` once nothing is left."""
        self._deadline.check(doing)
        return self._deadline.remaining(cap=self.timeout)

    def _receive(self, data: bytes) -> Optional[dict]:
        """Take up to :attr:`_wanted` bytes; the response once complete.

        A read of exactly :attr:`_wanted` bytes is used as it is — only
        short reads are kept and joined.  An empty read (the peer hung
        up), a corrupt or oversize length prefix, a malformed body and an
        echoed ``id`` that is not this request's all raise: the stream
        position is unknowable.
        """
        if not data:
            raise ServiceConnectionError("server closed the connection mid-frame")
        if len(data) < self._wanted:
            self._chunks.append(data)
            self._wanted -= len(data)
            return None
        if self._chunks:
            self._chunks.append(data)
            data = b"".join(self._chunks)
            self._chunks.clear()
        if not self._in_body:
            self._in_body = True
            self._wanted = frame_length(data)
            return None
        response = split_frame(data)
        echoed = response.get("id")
        if echoed is not None and echoed != self._id:
            # A stale frame from an earlier abandoned request.
            raise ServiceConnectionError(
                f"desynced connection: response id {echoed!r} does not "
                f"match request id {self._id!r}"
            )
        return response

    def _failed(self, error: Exception) -> float:
        """The verdict on a transport failure.

        Always: the connection is dropped (a late or partial response
        would answer the *next* request) and the breaker hears of it.
        Then: a :class:`DeadlineExceededError` iff the deadline has
        actually expired — an I/O timeout inside a live deadline is a
        connection failure —; else, attempts spent, a
        :class:`ServiceConnectionError`; else the seconds to back off
        before the next attempt, never beyond the deadline.
        """
        self._drop()
        if self.breaker is not None:
            self.breaker.record_failure()
        if isinstance(error, DeadlineExceededError):
            raise error
        if self._deadline.expired:
            raise DeadlineExceededError(
                f"deadline of {self._deadline.millis:.0f}ms exceeded "
                f"after transport error: {error}"
            ) from error
        if self._attempt >= self._attempts:
            raise ServiceConnectionError(
                f"request to {self.host}:{self.port} failed after "
                f"{self._attempt} attempt(s): {error}"
            ) from error
        self.retries += 1
        delay = self.retry.backoff(self._attempt - 1)
        left = self._deadline.remaining()
        return delay if left is None else min(delay, left)

    def _answered(self, response: dict) -> dict:
        """A complete response is an *answer*, error frames included: the
        breaker records success first, then an error frame raises — and
        is never retried."""
        if self.breaker is not None:
            self.breaker.record_success()
        return raise_for_error(response)

    # ------------------------------------------------------------------ ops

    def prepare(self, query: str) -> Any:
        """Compile ``query`` server-side (plan-cache aware); returns its
        statement count, host-parameter signature and plan fingerprint."""
        return self._call({"op": "prepare", "query": query})

    def register(self, query: str, source: object, description: str = "") -> Any:
        """Add ``source`` (anything the façade lowers — a fluent query, a
        ``@query`` capture, a raw λNRC term) to the *server's* catalogue
        under ``query`` (protocol v1.4).

        The term is serialised with :mod:`repro.nrc.serialize`; the
        server answers ``"registered": false`` when a structurally
        identical term is already catalogued under the name, so retried
        registrations converge instead of churning the plan cache.
        """
        from repro.api.fluent import to_term
        from repro.nrc.serialize import term_to_json

        term = term_to_json(to_term(source))
        return self._call(
            {"op": "register", "query": query, "term": term}
            | _given(description=description)
        )

    def _execute(
        self,
        project: Optional[Callable[[dict], Any]],
        deadline_ms: object,
        query: str,
        **optional: Any,
    ) -> Any:
        payload = {"op": "execute", "query": query} | _given(**optional)
        return self._call(payload, project, deadline_ms=deadline_ms)

    def execute(
        self,
        query: str,
        params: dict | None = None,
        collection: str | None = None,
        deadline_ms: object = _USE_DEFAULT,
    ) -> Any:
        """Run ``query`` and return the nested rows (plain dicts/lists)."""
        return self._execute(
            itemgetter("rows"), deadline_ms, query, params=params, collection=collection
        )

    def execute_full(
        self,
        query: str,
        params: dict | None = None,
        collection: str | None = None,
        deadline_ms: object = _USE_DEFAULT,
        trace_id: str | None = None,
        result: str | None = None,
    ) -> Any:
        """Like :meth:`execute`, but returns the whole response frame
        (rows + engine + per-run stats + server-side wall time).

        ``trace_id`` (protocol v1.3) stamps the request so the server
        echoes it — the sharded fan-out client correlates a traced run's
        sub-requests with it.  ``result="shredded"`` (protocol v1.5) asks
        for the per-statement column tables in place of ``rows``, so only
        a caller that can fold them — the fan-out coordinator — asks.
        """
        return self._execute(
            None, deadline_ms, query,
            params=params, collection=collection, trace_id=trace_id, result=result,
        )

    def insert(
        self,
        table: str,
        rows: list,
        idempotency_key: str | None = None,
        deadline_ms: object = _USE_DEFAULT,
    ) -> Any:
        """Insert ``rows`` into ``table`` on the server (protocol v1.2).

        The *one* op that mutates — and still safe under the blocking
        driver's transparent transport retries, because every insert
        carries an idempotency key (a fresh UUID when the caller names
        none): a re-delivered frame answers ``"applied": false`` instead
        of writing twice.  Callers that retry at a higher level (after a
        ``DeadlineExceededError``, or at all on the single-attempt
        asyncio driver) must re-send the *same* key, which is why the
        response echoes it.
        """
        key = uuid.uuid4().hex if idempotency_key is None else idempotency_key

        def echo_key(response: dict) -> dict:
            response.setdefault("idempotency_key", key)
            return response

        return self._call(
            {"op": "insert", "table": table, "rows": rows, "idempotency_key": key},
            echo_key,
            deadline_ms=deadline_ms,
        )

    def explain(self, query: str) -> Any:
        """The server's ``explain()`` text for ``query``."""
        return self._call({"op": "explain", "query": query}, itemgetter("text"))

    def stats(self) -> Any:
        """Server, session and plan-cache counters."""
        return self._call({"op": "stats"})

    def metrics(self) -> Any:
        """The server's metrics as Prometheus text exposition (v1.3)."""
        return self._call({"op": "metrics"}, itemgetter("exposition"))

    def ping(self, deadline_ms: object = _USE_DEFAULT) -> Any:
        """Liveness probe: answered inline by the server (no lease, no
        compile), so it measures the serving path itself — one attempt,
        never retried.  A successful ping records its round-trip time in
        :attr:`last_ping_ms`."""
        started = self.clock()

        def timed(response: dict) -> dict:
            self.last_ping_ms = (self.clock() - started) * 1000.0
            return response

        return self._call(
            {"op": "ping"}, timed, deadline_ms=deadline_ms, retry=False
        )
