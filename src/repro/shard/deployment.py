"""Sharded sessions: ``connect_sharded`` + ``ShardedSession``, and the
local substrate (``ShardedDatabase`` + ``LocalEndpoint``).

A :class:`ShardedSession` is the façade-shaped front of one
:class:`~repro.shard.client.ShardedServiceClient` — the coordinator that
plans the route, sends the sub-requests, fails over and merges::

    from repro.shard import Placement, sharded, connect_sharded

    placement = Placement.of({"departments": sharded(key="name")})
    session = connect_sharded(db, placement=placement, shards=4)
    result = session.run(Q4)          # fanout: ⊎ of per-shard answers
    result.route                      # "fanout", shards (0, 1, 2, 3)
    session.run(dept_staff, params={"dept": "Sales"}).route  # "routed:2"

The session adds only what a library caller needs on top of the
coordinator: any query-shaped source resolves to a catalogue name
(ad-hoc terms register fleet-wide under a fingerprint-derived name),
``run`` returns a :class:`ShardedResult`, and ``close`` tears down
whatever the session owns.  :func:`connect_sharded` chooses the
endpoints the coordinator talks to:

* given a :class:`~repro.backend.database.Database` (or ``schema`` /
  ``tables``), it partitions it into a :class:`ShardedDatabase` — ``n``
  partition stores plus the caller's store itself as the *full-copy
  fallback* — and puts a :class:`LocalEndpoint` (a per-store
  :func:`~repro.shard.client.endpoint_session` behind the same
  :class:`~repro.service.core.ServerCore` a server runs; no frame, no
  socket) in front of each;
* given no data, it spawns a
  :class:`~repro.shard.supervisor.SupervisedDeployment` — one ``serve
  --shard i/n`` subprocess per partition plus the fallback, each
  regenerating the seeded instance — and talks to it over the wire.

Either way the endpoints run the flat statements and answer with column
tables (protocol v1.5); the coordinator stitches, so ``options`` reach it
as well as the per-store sessions — both must compile the same plan,
and both keep only the references that hold in every partition: both
tables replicated, or both sharded in one aligned group on the join
columns (:func:`~repro.shard.client.endpoint_session` applies
:meth:`~repro.shard.placement.Placement.deployment_schema`, the rule
written once).

Route modes come from :func:`~repro.shard.analysis.analyse`:
**fanout** (every shard, bag-union in shard order), **routed** /
**single** (one shard), **fallback** (the full-copy shard); see
:mod:`repro.shard.client` for failover and set/list semantics.
"""

from __future__ import annotations

import inspect
import sqlite3
import threading
from contextlib import nullcontext
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.api.fluent import to_term
from repro.api.results import Result
from repro.api.session import Session
from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.errors import BackendError, ServiceConnectionError, ShardingError
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.service.core import ServerCore
from repro.service.protocol import _USE_DEFAULT, ClientCore
from repro.service.registry import QueryRegistry
from repro.service.resilience import CircuitBreaker
from repro.shard.analysis import ShardPlan
from repro.shard.client import (
    MODE_COUNTERS,
    ShardedServiceClient,
    endpoint_session,
)
from repro.shard.placement import Placement
from repro.sql.codegen import SqlOptions

__all__ = [
    "ShardedDatabase",
    "LocalEndpoint",
    "ShardedSession",
    "ShardedPrepared",
    "ShardedResult",
    "connect_sharded",
]


class ShardedDatabase:
    """``n`` partition stores plus the designated full-copy shard.

    The full-copy shard is the caller's ``database`` itself; partition
    shards are loaded from it once (copy-on-partition), over the same
    schema.  After that every write goes through the session's
    coordinator (:meth:`~repro.shard.client.ShardedServiceClient.insert`),
    which routes each row to its owning shard — and to the full copy,
    which must stay a superset view of the union of partitions.

    The stores keep the references their schema declares; it is the
    sessions over them that compile under the placement's deployment
    schema, without the references a partition breaks
    (:func:`~repro.shard.client.endpoint_session`).
    """

    def __init__(
        self,
        database: Database,
        placement: Placement,
        shard_count: int,
    ) -> None:
        if shard_count < 1:
            raise ShardingError(
                f"shard count must be ≥1, got {shard_count}"
            )
        placement.validate(database.schema)
        self.schema: Schema = database.schema
        self.placement = placement
        self.shard_count = shard_count
        self.full = database
        self.shards: list[Database] = database.partition_all(
            placement.owner_fn(shard_count), shard_count
        )

    def row_counts(self, table: str) -> list[int]:
        """Per-shard row counts of ``table`` (diagnostics, balance checks)."""
        return [shard.row_count(table) for shard in self.shards]


#: The ops whose outcome is the store's health: answered, they close the
#: breaker; what a dying store raises under them — the sqlite layer, the
#: backend wrapper around it, or the OS (the file ripped out from under
#: the mmap) — is unavailability, not an answer.  Elsewhere such an error
#: is the caller's: an ``insert``'s :class:`BackendError` is the batch
#: failing validation and must arrive as itself.
_STORE_OPS = ("execute", "ping")


class LocalEndpoint(ClientCore):
    """One store's :class:`Session` behind the calls the coordinator makes
    of an endpoint: the in-process driver of
    :class:`~repro.service.protocol.ClientCore`.  Where
    :class:`~repro.service.client.ServiceClient` frames a request and
    writes it to a socket, this hands the request dict to a
    :class:`~repro.service.core.ServerCore` — the same op semantics, field
    checks and response shapes as a server's, with no frame and no socket
    (a shredded answer's column tables arrive as the bytes SQLite wrote;
    the coordinator's one decode step takes those or a decoded frame's).

    Shareable across threads (a :class:`Session` is; one request's state
    is its call's).  A name's first request runs under ``compile_lock``,
    which the endpoints of one deployment share along with the plan
    cache: a fan-out asks every endpoint for a new plan at the same
    moment, so the first compiles and the rest hit.  A store that raises
    mid-request is reported the way a dead server is —
    :class:`~repro.errors.ServiceConnectionError`, breaker tripped at
    once (there is no transport to retry) — so the coordinator fails over
    identically; a successful ``execute`` or ``ping`` closes the breaker.
    A run cannot be abandoned, so ``deadline_ms`` is checked, not enforced.
    """

    def __init__(
        self,
        session: Session,
        registry: QueryRegistry,
        compile_lock: threading.Lock,
        shard_label: str | None = None,
    ) -> None:
        super().__init__("local", 0)
        self.core = ServerCore(session, registry, shard_label)
        self.breaker = CircuitBreaker(failure_threshold=1)
        self._compile_lock = compile_lock
        self._compiled: set = set()  # the names past their first request

    def _call(
        self,
        payload: dict,
        project: Optional[Callable[[dict], Any]] = None,
        *,
        deadline_ms: object = _USE_DEFAULT,
        retry: bool = True,  # accepted from ping(); there is nothing to retry
    ) -> Any:
        request, _budget = self._stamp(payload, deadline_ms)
        op, name = request["op"], request.get("query")
        first = name is not None and name not in self._compiled
        try:
            with self._compile_lock if first else nullcontext():
                response = self.core.handle(request)
        except (sqlite3.Error, BackendError, OSError) as error:
            if op not in _STORE_OPS:
                raise
            self.breaker.record_failure()
            raise ServiceConnectionError(
                f"local shard store failed: {error}",
                kind=type(error).__name__,
            ) from error
        if op == "register":
            self._compiled.discard(name)  # the name may now mean a new term
        elif first:
            self._compiled.add(name)
        if op in _STORE_OPS:
            self.breaker.record_success()
        return response if project is None else project(response)

    def close(self) -> None:
        self._closed = True


class ShardedResult(Result):
    """A :class:`~repro.api.results.Result` plus the route that produced it.

    ``route`` is ``"fanout"``, ``"routed:<shard>"``, ``"single:<shard>"``,
    ``"fallback"`` or ``"failover:<original route>"`` (a fault diverted the
    run to the full-copy shard), ``reason`` says why; ``shards`` lists the
    partition shards that executed (empty for fallback/failover — the
    full-copy shard is not a partition).
    """

    __slots__ = ("route", "shards", "reason")

    def __init__(
        self,
        value: Any,
        stats: ExecutionStats,
        engine: str,
        route: str,
        shards: tuple[int, ...],
        reason: str,
        trace: object = None,
    ) -> None:
        super().__init__(value=value, stats=stats, engine=engine, trace=trace)
        self.route = route
        self.shards = shards
        self.reason = reason


class ShardedPrepared:
    """A catalogue query bound to a :class:`ShardedSession`: preparing
    warms the plan cache on *every* endpoint (and the coordinator's
    analysis cache), so repeated runs measure execution, not compilation
    — re-routing per call when the pin is a host parameter."""

    def __init__(self, session: "ShardedSession", name: str) -> None:
        self._session = session
        self.name = name

    def term(self) -> ast.Term:
        return self._session.client.registry.lookup(self.name).term

    @property
    def plan(self) -> ShardPlan:
        """The shardability verdict (fanout/routed/single/fallback)."""
        return self._session.client.plan_for(self.name)

    def run(self, **kwargs: Any) -> ShardedResult:
        return self._session.run(self.name, **kwargs)

    def explain(self) -> str:
        return self._session.client.explain(self.name)


class ShardedSession:
    """The sharded façade over one coordinator (``session.client``).

    Owns what :func:`connect_sharded` built for it: the partitions of the
    local :class:`ShardedDatabase` (``session.db``; they close with the
    session, the caller's full copy does not) or the spawned
    :class:`~repro.shard.supervisor.SupervisedDeployment`
    (``session.deployment``; ``close()`` tears the process group down —
    client sockets, supervisor loop, then a graceful drain of every
    child).  Thread-safety is the coordinator's: shareable over local
    endpoints, thread-confined over the wire.  Liveness control
    (``mark_shard_down`` / ``mark_shard_up`` / ``down_shards``) is the
    coordinator's too: ``session.client``.
    """

    def __init__(
        self,
        client: ShardedServiceClient,
        *,
        db: Optional[ShardedDatabase] = None,
        deployment: Any = None,
    ) -> None:
        self.client = client
        self.db = db
        self.deployment = deployment
        self.placement = client.placement
        self.schema = client.schema
        self.shard_count = client.shard_count

    # ------------------------------------------------------------- building

    def _resolve(self, source: object) -> str:
        """The catalogue name for ``source``: names pass through, anything
        else lowers to a term and registers on every endpoint under a
        fingerprint-derived name (idempotent — re-resolving the same term
        finds the name already catalogued)."""
        registry = self.client.registry
        if isinstance(source, str):
            if source in registry:
                return source
            raise ShardingError(
                f"unknown query {source!r}: register it first "
                f"(session.register(name, term)) or pass a term"
            )
        if isinstance(source, ShardedPrepared):
            if source._session is self:
                return source.name
            source = source.term()
        term = to_term(source)
        name = f"adhoc_{ast.term_fingerprint(term)[:12]}"
        if name not in registry:
            self.client.register(name, term, description="ad-hoc query")
        return name

    def register(
        self, name: str, source: object, description: str = ""
    ) -> dict:
        """Register ``source`` under ``name`` on every endpoint + locally."""
        return self.client.register(name, source, description=description)

    def prepare(self, source: object) -> ShardedPrepared:
        name = self._resolve(source)
        self.client.prepare(name)  # warm every endpoint's plan cache
        self.client.plan_for(name)  # …and the coordinator's analysis cache
        return ShardedPrepared(self, name)

    def query(self, source: object) -> ShardedPrepared:
        return self.prepare(source)

    def plan_for(self, source: object) -> ShardPlan:
        """The shardability verdict for ``source`` under this placement."""
        return self.client.plan_for(self._resolve(source))

    # ------------------------------------------------------------------ run

    def run(
        self,
        source: object,
        *,
        collection: str = "bag",
        params: Mapping[str, object] | None = None,
        deadline_ms: float | None = None,
        trace: object = None,
    ) -> ShardedResult:
        """Execute ``source`` across the deployment.

        ``trace=True`` (or an existing :class:`repro.obs.Tracer`) records
        one ``route`` span per attempt with a ``shard`` child per
        endpoint hit, surfaced on :attr:`ShardedResult.trace`.
        """
        tracer = None
        if trace:
            from repro.obs import Tracer

            tracer = trace if isinstance(trace, Tracer) else Tracer()
        response = self.client.execute_full(
            self._resolve(source), params, collection, deadline_ms=deadline_ms, tracer=tracer
        )
        route = response["route"]
        wire = response["stats"]
        stats = ExecutionStats()
        stats.queries = wire["queries"]
        stats.rows_fetched = wire["rows_fetched"]
        # The endpoints' summed wall time (responses carry no per-query
        # samples).
        stats.total_millis = wire["millis"]
        stats.failover_retries = wire.get("failover_retries", 0)
        stats.failover_reroutes = wire.get("failover_reroutes", 0)
        counter = MODE_COUNTERS.get(route.split(":", 1)[0])
        if counter is not None:
            setattr(stats, f"sharded_{counter}", 1)
        return ShardedResult(
            value=response["rows"],
            stats=stats,
            engine=response["engine"],
            route=route,
            shards=tuple(response["shards"]),
            reason=response["reason"],
            trace=tracer,
        )

    # -------------------------------------------------------------- surface

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> dict:
        """Insert rows, routed per the placement to the fallback and every
        replica of each owning shard (see
        :meth:`~repro.shard.client.ShardedServiceClient.insert`)."""
        return self.client.insert(table, rows, idempotency_key=idempotency_key)

    def check_health(self, deadline_ms: float | None = 1000.0) -> dict:
        return self.client.check_health(deadline_ms=deadline_ms)

    def run_counts(self) -> dict[str, object]:
        """The per-shard execute counters the routing tests assert."""
        return {
            "per_shard": list(self.client.shard_requests),
            "fallback": self.client.fallback_requests,
        }

    def stats_snapshot(self) -> dict:
        return self.client.stats_snapshot()

    def close(self) -> None:
        """Close the coordinator and whatever the session owns: the process
        group it spawned, or the connections of its partition stores —
        never the store it was given, which its caller may still serve.
        Idempotent, and a child process that already crashed is skipped,
        not waited on."""
        (self.deployment or self.client).close()
        for store in self.db.shards if self.db is not None else ():
            store._dispose_connection()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedSession shards={self.shard_count} "
            f"sharded_tables={self.placement.sharded_tables}>"
        )


def _partition(
    database: "ShardedDatabase | Database | None",
    schema: Schema | None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None,
    placement: Placement | None,
    shards: int | None,
) -> ShardedDatabase:
    """The local substrate for :func:`connect_sharded`'s arguments."""
    if isinstance(database, ShardedDatabase):
        if placement is not None and placement != database.placement:
            raise ShardingError(
                "pass the placement either to ShardedDatabase or to "
                "the session, not two different ones"
            )
        if shards is not None and shards != database.shard_count:
            raise ShardingError(
                f"shards={shards} conflicts with the ShardedDatabase's "
                f"{database.shard_count} shards"
            )
        return database
    if placement is None:
        raise ShardingError(
            "a sharded session needs a placement "
            "(Placement.of({table: sharded(key=...)}))"
        )
    if database is None:
        if schema is None:
            raise ShardingError(
                "connect_sharded() needs a Database, a ShardedDatabase or "
                "a Schema"
            )
        database = Database(schema, tables)
    return ShardedDatabase(database, placement, 2 if shards is None else shards)


def connect_sharded(
    database: "ShardedDatabase | Database | None" = None,
    *,
    schema: Schema | None = None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
    placement: Placement | None = None,
    shards: int | None = None,
    options: SqlOptions | None = None,
    cache: object = True,
    processes: bool | None = None,
    **process_options: Any,
) -> ShardedSession:
    """Open a sharded session — the sharded front door.  The arguments
    choose which endpoints the session's coordinator talks to:

    * a ``database`` / ``tables`` / ``schema`` (or ``processes=False``):
      **local endpoints** over a :class:`ShardedDatabase` partitioned
      from it.  Zero startup cost and the session is shareable across
      threads, but fan-out shares one interpreter, so 4 shards ≈ 1 shard
      on CPU-bound queries.  ``options`` / ``cache`` configure
      the per-store sessions as :func:`~repro.api.connect` would
      (``options`` also the coordinator, which stitches what they run); all
      stores share the plan cache, so a query compiles once.  ``registry``
      (optional) seeds the name catalogue — the coordinator's and, by
      copy, each endpoint's; later queries join through
      :meth:`ShardedSession.register`, as over the wire.  The
      ``database`` is served as it is — it is the full copy
      (``session.db.full is database``) and sees every insert, ``tables``
      included, durable or not — and every store compiles with only the
      references that hold in every partition
      (:func:`~repro.shard.client.endpoint_session`).
    * no data source (or ``processes=True``): **wire endpoints** to a
      process group the session spawns, supervises and owns — one
      ``serve --shard i/n`` subprocess per partition plus the full-copy
      fallback.  Each shard gets its own interpreter and store, so
      fan-out scales with cores; the session is thread-confined.  The
      data is the seeded deterministic instance (``scale=N, rows=R``),
      regenerated per process under ``placement``; ``registry``,
      ``pool``, ``replication``, ``data_dir``, ``log_dir``,
      ``base_port``, ``supervise``, ``client_options`` and
      ``supervisor_options`` configure the group (and are rejected for
      local endpoints).

    >>> session = connect_sharded(db, placement=placement, shards=4)
    >>> session.run(Q4).route
    'fanout'
    >>> cluster = connect_sharded(placement=placement, shards=4,
    ...                           processes=True, scale=64)
    >>> cluster.run("Q4").route
    'fanout'
    """
    if process_options:
        from repro.shard.supervisor import SupervisedDeployment

        unknown = set(process_options) - set(inspect.signature(SupervisedDeployment).parameters)
        if unknown:
            raise TypeError(
                f"connect_sharded() got unexpected keyword arguments: {', '.join(sorted(unknown))}"
            )
    if processes is None:
        processes = database is None and tables is None and schema is None
    if processes:
        if database is not None or tables is not None:
            raise ShardingError(
                "a process-group session regenerates its own deterministic "
                "data in each server (scale=/rows=); pass processes=False "
                "to shard an existing Database or tables in-process"
            )
        from repro.data.organisation import (
            ORGANISATION_SCHEMA,
            organisation_placement,
        )
        from repro.service.registry import paper_registry
        from repro.shard.supervisor import SupervisedDeployment

        if process_options.get("registry") is None:
            process_options["registry"] = paper_registry()
        deployment = SupervisedDeployment(
            2 if shards is None else shards,
            placement=organisation_placement() if placement is None else placement,
            schema=ORGANISATION_SCHEMA if schema is None else schema,
            **process_options,
        )
        return ShardedSession(deployment.client, deployment=deployment)
    registry = process_options.pop("registry", None) or QueryRegistry()
    if process_options:
        unexpected = ", ".join(sorted(process_options))
        raise ShardingError(
            f"unexpected arguments for an in-process sharded session: "
            f"{unexpected} (they configure the process group; pass "
            f"processes=True)"
        )
    db = _partition(database, schema, tables, placement, shards)

    compile_lock = threading.Lock()

    def endpoint(store: Database, index: object) -> LocalEndpoint:
        session = endpoint_session(store, db.placement, options=options, cache=cache)
        label = f"{index}/{db.shard_count}"
        return LocalEndpoint(session, registry.copy(), compile_lock, label)

    client = ShardedServiceClient(
        [endpoint(store, index) for index, store in enumerate(db.shards)],
        endpoint(db.full, "full"),
        placement=db.placement,
        registry=registry,
        schema=db.schema,
        options=options,
    )
    session = ShardedSession(client, db=db)
    if database is not None:
        for name, rows in (tables or {}).items():
            session.insert(name, rows)
    return session
