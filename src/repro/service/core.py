"""The server side of the protocol, written once: what each op *means*.

A :class:`ServerCore` is a session, a query catalogue and a shard label
behind ``handle(request: dict) -> dict`` — every op of
:data:`~repro.service.protocol.OPS`, with its field validation and its
response shape, synchronous and loop-free: no socket, no frame, no event
loop, no thread.  An error crosses it as an exception.  It has two
drivers, which add only *where* a request runs and how it travels:

* :class:`~repro.service.server.QueryServer` — frames over asyncio
  streams, admission, leases, deadlines, and the choice between its event
  loop and a worker thread.  It turns an exception into an error frame;
* :class:`~repro.shard.deployment.LocalEndpoint` — an in-process call:
  the request dict goes straight to :meth:`ServerCore.handle` and an
  exception propagates to the caller.

So an endpoint answers the same question the same way whatever it is
made of — which is what lets a fan-out coordinator ⊎ their answers by
concatenation.  One rule picks the engine of a run, on ``prepare`` (which
reports it) and ``execute`` (which uses it) alike:
:meth:`~repro.api.session.Session.resolve_engine` over the request's
``engine`` field, the session's own engine when there is none.

Every ``execute`` takes a fresh :class:`~repro.api.results.Prepared` from
its catalogue entry, so every execute consults the session's plan cache
exactly once — the compile-once / hit-on-repeat counters the ``stats`` op
reports (first execute misses, every later one hits).
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ServiceError
from repro.nrc.ast import term_fingerprint
from repro.nrc.serialize import SerializationError, term_from_json
from repro.obs import MetricsRegistry, render_prometheus
from repro.service.protocol import OPS, PROTOCOL_VERSION
from repro.service.registry import QueryRegistry, RegisteredQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.results import Result
    from repro.api.session import Session

__all__ = ["ServerCore", "Execution", "DRIVER_EVENTS"]

#: ``stats``' ``server`` block → the counter family it reads (name, help).
#: Each counts an event only a driver can see (a connection, an error
#: frame, a shed, …), so the driver that sees it declares the family and
#: increments it; an endpoint without such a driver reports 0.
DRIVER_EVENTS = {
    "connections_served": ("connections_total", "Client connections accepted"),
    "errors": ("request_errors_total", "Requests answered with an error frame"),
    "shed": (
        "requests_shed_total",
        "Executes/inserts refused at the admission limit",
    ),
    "deadline_exceeded": (
        "deadline_exceeded_total",
        "Executes answered with a DeadlineExceeded frame",
    ),
    "inline_runs": (
        "execute_inline_total",
        "Executes run to completion on the event-loop thread",
    ),
    "escalations": (
        "execute_escalations_total",
        "On-loop runs interrupted by their step guard and re-run on a worker thread",
    ),
}


class Execution:
    """One validated ``execute`` request: what to run, within which
    deadline, and how to answer — split from :meth:`ServerCore.handle` so
    a driver can put a lease wait, a thread hop or a step guard between
    the three."""

    __slots__ = (
        "entry", "prepared", "run_args", "deadline_ms", "admitted", "_session", "_asked_shredded",
    )

    def __init__(
        self,
        session: "Session",
        entry: RegisteredQuery,
        run_args: dict,
        deadline_ms: Optional[float],
        asked_shredded: bool = False,
    ) -> None:
        #: ``server_millis`` runs from here: admission to result.
        self.admitted = time.perf_counter()
        self._session = session
        self.entry = entry
        self.prepared = entry.prepared(session)
        self.run_args = run_args
        self.deadline_ms = deadline_ms
        self._asked_shredded = asked_shredded

    def engine(self) -> str:
        """The engine :meth:`run` will use.  Consults the plan cache (the
        same, single consult ``run`` makes), so it compiles a query that
        has never run."""
        return self._session.resolve_engine(self.run_args["engine"], self.prepared.compiled)

    def shredded(self) -> bool:
        """Whether this request is answered with per-statement column
        tables (protocol v1.5): it asked for them, under bag semantics,
        and the engine it names (the request's, else the session's) is the
        batched one.  Anything else keeps the nested ``rows`` — the asking
        coordinator takes either."""
        named = self.run_args["engine"] or self._session.engine
        return (
            self._asked_shredded
            and self.run_args["collection"] == "bag"
            and named in ("auto", "batched")
        )

    def run(self, **where: Any) -> "Result":
        """Run on the calling thread; ``where`` is the driver's
        (``connection=``, ``create_indexes=``).  A :meth:`shredded` run's
        ``Result.value`` is the list of column tables, not a nested value."""
        if not self.shredded():
            return self.prepared.run(**self.run_args, **where)
        run_args = dict(self.run_args, engine="batched")
        return self.prepared.run(**run_args, shredded=True, **where)

    def response(self, result: "Result") -> dict:
        """The ``execute`` success shape.  ``server_millis`` is the wall
        time from admission to here — what a tracing fan-out client
        attributes to this endpoint.  A :meth:`shredded` answer carries
        ``shredded`` (one ``(row count, JSON bytes)`` table per statement,
        which :func:`~repro.service.protocol.pack_frame` splices into the
        frame undecoded) and the ``plan`` fingerprint in place of ``rows``."""
        stats = result.stats
        shredded = self.shredded()
        response = {
            "ok": True,
            "query": self.entry.name,
            "rows": None if shredded else result.to_dicts(),
            "engine": result.engine,
            "server_millis": round((time.perf_counter() - self.admitted) * 1000.0, 3),
            "stats": {
                "queries": stats.queries,
                "rows_fetched": stats.rows_fetched,
                "millis": round(stats.total_millis, 3),
            },
        }
        if shredded:
            del response["rows"]
            response["plan"] = self.prepared.compiled.plan_fingerprint
            response["shredded"] = result.value
        return response


class ServerCore:
    """The ops of the protocol over one session and one catalogue."""

    def __init__(
        self,
        session: "Session",
        registry: QueryRegistry,
        shard_label: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.session = session
        self.registry = registry
        #: Which slice of a sharded deployment this endpoint holds (e.g.
        #: ``"1/4"`` or ``"full/4"``); surfaced by ``ping`` and ``stats``
        #: so a fan-out client can sanity-check its wiring.
        self.shard_label = shard_label
        #: Set by a driver that is shutting down; ``ping`` reports it.
        self.draining = False
        #: Always on (a couple of lock-guarded adds per request; rendering
        #: only happens when something scrapes).  The session mirrors its
        #: stats into the same registry, so one exposition covers
        #: request-level and engine-level counters.
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if session.metrics is None:
            session.attach_metrics(self.metrics)
        self._m_requests = self.metrics.counter(
            "requests_total", "Wire requests served, by op", labels=("op",)
        )
        self._m_request_ms = self.metrics.histogram(
            "request_latency_ms",
            "Wire request service time (dispatch to response), milliseconds",
            labels=("op",),
        )
        #: One handler per protocol op — the dispatch table *is* ``OPS``.
        self._ops: dict[str, Callable[[dict], dict]] = {
            op: getattr(self, f"_{op}") for op in OPS
        }

    # -------------------------------------------------------------- envelope

    def handle(self, request: dict) -> dict:
        """Answer one request on the calling thread."""
        started = time.perf_counter()
        _op, handler = self.route(request)
        return self.answered(request, handler(request), started)

    def route(self, request: dict) -> tuple[str, Callable[[dict], dict]]:
        """The op a request names and its handler, the request's envelope
        checked."""
        trace_id = request.get("trace_id")
        if trace_id is not None and (not isinstance(trace_id, str) or len(trace_id) > 64):
            raise ServiceError("'trace_id' must be a string of at most 64 characters")
        op = request.get("op")
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            raise ServiceError(f"unknown op {op!r}; one of: {', '.join(OPS)}")
        return op, handler

    def answered(self, request: dict, response: dict, started: float) -> dict:
        """Count a served request (errors are the driver's to count: only
        it knows whether one became an error frame) and echo its
        ``trace_id``."""
        op = request["op"]
        self._m_requests.labels(op=op).inc()
        self._m_request_ms.labels(op=op).observe((time.perf_counter() - started) * 1000.0)
        trace_id = request.get("trace_id")
        if trace_id is not None:
            response.setdefault("trace_id", trace_id)
        return response

    # ------------------------------------------------------------------- ops

    def _entry(self, request: dict) -> RegisteredQuery:
        name = request.get("query")
        if not isinstance(name, str):
            raise ServiceError("requests need a 'query' field naming the query")
        return self.registry.lookup(name)

    def _prepare(self, request: dict) -> dict:
        entry = self._entry(request)
        compiled = entry.prepared(self.session).compiled
        return {
            "ok": True,
            "query": entry.name,
            "statements": compiled.query_count,
            "params": {name: str(kind) for name, kind in compiled.param_specs},
            "engine": self.session.resolve_engine(None, compiled),
            "description": entry.description,
            "plan": compiled.plan_fingerprint,
        }

    def _register(self, request: dict) -> dict:
        """The protocol v1.4 dynamic-registration op.

        Decodes the shipped λNRC term (:mod:`repro.nrc.serialize`) and
        adds it to the catalogue.  Registration is *convergent*: a
        structurally identical term already registered under the name is
        a no-op answering ``"registered": false`` — fan-out clients
        register on every shard and retry on failure, so re-delivery
        must not churn the catalogue (replacing an entry is harmless but
        would defeat the plan cache's compile-once accounting).
        """
        name = request.get("query")
        if not isinstance(name, str) or not name:
            raise ServiceError("register requests need a 'query' field naming the query")
        try:
            term = term_from_json(request.get("term"))
        except SerializationError as error:
            raise ServiceError(f"bad 'term' payload: {error}") from error
        description = request.get("description") or ""
        if not isinstance(description, str):
            raise ServiceError("'description' must be a string")
        fingerprint = term_fingerprint(term)
        registered = not (
            name in self.registry
            and term_fingerprint(self.registry.lookup(name).term) == fingerprint
        )
        if registered:
            self.registry.register(name, term, description=description)
        return {
            "ok": True,
            "query": name,
            "registered": registered,
            "fingerprint": fingerprint,
        }

    def execution(
        self, request: dict, default_deadline_ms: Optional[float] = None
    ) -> Execution:
        """Validate an ``execute`` request.  ``deadline_ms`` is checked
        here and enforced by the driver — if it can abandon a run."""
        entry = self._entry(request)
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError("'params' must be an object of name → value")
        deadline_ms = request.get("deadline_ms", default_deadline_ms)
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not 0 < deadline_ms < math.inf  # NaN fails both comparisons
        ):
            raise ServiceError(f"'deadline_ms' must be a positive number, got {deadline_ms!r}")
        result = request.get("result")
        if result not in (None, "shredded"):
            raise ServiceError(f"'result' must be \"shredded\" when given, got {result!r}")
        run_args = {
            "engine": request.get("engine"),
            "collection": request.get("collection") or "bag",
            "params": params,
        }
        return Execution(self.session, entry, run_args, deadline_ms, result == "shredded")

    def _execute(self, request: dict) -> dict:
        execution = self.execution(request)
        return execution.response(execution.run())

    def _insert(self, request: dict) -> dict:
        """The protocol v1.2 write op: honours the request's idempotency
        key — a key the store has journalled already answers ``"applied":
        false`` without touching a row, which is what makes the clients'
        at-least-once retry delivery exactly-once in effect.  No deadline
        applies: an abandoned write would leave the client unsure whether
        it landed; the key exists precisely so the client re-sends instead
        of guessing."""
        table = request.get("table")
        if not isinstance(table, str):
            raise ServiceError("insert requests need a 'table' field")
        rows = request.get("rows")
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ServiceError("'rows' must be an array of row objects")
        key = request.get("idempotency_key")
        if key is not None and not isinstance(key, str):
            raise ServiceError(f"'idempotency_key' must be a string, got {key!r}")
        applied = self.session.insert(table, rows, idempotency_key=key)
        return {"ok": True, "table": table, "rows": len(rows), "applied": applied}

    def _explain(self, request: dict) -> dict:
        entry = self._entry(request)
        text = entry.prepared(self.session).explain()
        return {"ok": True, "query": entry.name, "text": text}

    def _stats(self, request: dict) -> dict:
        requests: dict[str, float] = {}
        for (op,), served in self._m_requests.children():
            requests[op] = int(served.value)
            requests[f"{op}_millis"] = round(self._m_request_ms.labels(op=op).total, 3)
        server: dict[str, Any] = {
            "protocol": PROTOCOL_VERSION,
            "shard": self.shard_label,
            "requests": requests,
            "draining": self.draining,
        }
        for key, (name, _help) in DRIVER_EVENTS.items():
            family = self.metrics.get(name)
            server[key] = 0 if family is None else int(family.value)
        payload = {
            "ok": True,
            "queries": self.registry.names(),
            "server": server,
            "session": self.session.stats_snapshot(),
        }
        cache = self.session.pipeline.cache
        if cache is not None:
            payload["plan_cache"] = cache.stats()
        return payload

    def _metrics(self, request: dict) -> dict:
        # Prometheus text exposition in-band (protocol v1.3): fleet
        # tooling scrapes through the query port.
        return {"ok": True, "exposition": render_prometheus(self.metrics)}

    def _ping(self, request: dict) -> dict:
        # No lease, no compile, no store: liveness of the serving path.
        return {
            "ok": True,
            "pong": True,
            "shard": self.shard_label,
            "protocol": PROTOCOL_VERSION,
            "draining": self.draining,
        }

    def _close(self, request: dict) -> dict:
        return {"ok": True, "closing": True}
