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
  partition stores plus the original as the *full-copy fallback* — and
  puts a :class:`LocalEndpoint` (a per-store
  :class:`~repro.api.session.Session` behind the same
  :class:`~repro.service.core.ServerCore` a server runs; no frame, no
  socket) in front of each;
* given no data, it spawns a
  :class:`~repro.shard.supervisor.SupervisedDeployment` — one ``serve
  --shard i/n`` subprocess per partition plus the fallback, each
  regenerating the seeded instance — and talks to it over the wire.

Either way the endpoints run the flat statements and answer with column
tables (protocol v1.5); the coordinator stitches, so ``options`` reach it
as well as the per-store sessions — both must compile the same plan.

Route modes come from :func:`~repro.shard.analysis.analyse`:
**fanout** (every shard, bag-union in shard order), **routed** /
**single** (one shard), **fallback** (the full-copy shard); see
:mod:`repro.shard.client` for failover and set/list semantics.
"""

from __future__ import annotations

import sqlite3
import threading
import uuid
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
from repro.shard.client import MODE_COUNTERS, ShardedServiceClient
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

    The full-copy shard is the original ``database`` (or, when its schema
    declares references, its in-memory copy without them): partition
    shards are loaded from it once (copy-on-partition), after which every
    mutation goes through :meth:`insert`, which routes each row to its
    owning shard — and to the full copy, which must stay a superset view
    of the union of partitions.

    Every store declares no references (:meth:`Database.without_references`):
    a replicated child keyed by its join column under a partitioned parent
    would ship rows no parent on that shard asks for, so a deployment's
    plans, and their fingerprints, are the reference-free ones.  A durable
    store that declares references is refused (:class:`ShardingError`): an
    in-memory copy would drop the writes acknowledged through it, so such a
    file is opened over ``schema.without_references()`` and the deployment
    writes through the caller's own store.
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
        try:
            database = database.without_references()
        except BackendError as error:
            raise ShardingError(f"cannot shard this store: {error}") from None
        self.schema: Schema = database.schema
        self.placement = placement
        self.shard_count = shard_count
        self.full = database
        self.shards: list[Database] = database.partition_all(
            placement.owner_fn(shard_count), shard_count
        )
        #: The idempotency key of the most recent :meth:`insert` (minted
        #: when the caller passed none) — what a caller re-sends after a
        #: partial failure to converge without double-applying.
        self.last_insert_key: str | None = None

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> bool:
        """Insert rows, routing each to its owning shard.

        A sharded table's rows land on exactly the shards that own them —
        a shard that receives no rows is **not** touched at all, so its
        cached statistics and canonical row order survive an insert that
        only concerns other shards.  Replicated tables
        insert everywhere.

        The full-copy shard receives the rows *first*: its insert
        validates the whole batch against the schema (and row routing
        validates the routing column before that), so a bad batch raises
        before any partition shard is touched — a failed insert never
        leaves a partition holding rows the full copy lacks.

        ``idempotency_key`` dedups re-deliveries; every constituent store
        journals the key independently, so a *partially* delivered batch
        (e.g. a crash between the full copy and a partition) converges on
        redelivery — stores that applied it skip, the rest catch up.
        Returns ``False`` iff the full copy had already applied the key.

        A key is **minted** when the caller passes none, exactly like
        :meth:`~repro.shard.client.ShardedServiceClient.insert`: every
        sharded write journals through the same exactly-once path, so a
        batch that raises part-way (say, after the full copy but before a
        partition) and is re-sent whole with ``last_insert_key`` cannot
        double-apply anywhere.
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        self.last_insert_key = idempotency_key
        materialised = [dict(row) for row in rows]
        targets = self.placement.route_rows(
            table, materialised, self.shard_count
        )
        applied = self.full.insert(
            table, materialised, idempotency_key=idempotency_key
        )
        for index, shard_rows in targets.items():
            self.shards[index].insert(
                table, shard_rows, idempotency_key=idempotency_key
            )
        return applied

    def total_rows(self) -> int:
        return self.full.total_rows()

    def row_counts(self, table: str) -> list[int]:
        """Per-shard row counts of ``table`` (diagnostics, balance checks)."""
        return [shard.row_count(table) for shard in self.shards]

    def dispose(self) -> None:
        for shard in self.shards:
            shard._dispose_connection()
        self.full._dispose_connection()


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
        self.core.session.close()


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

    Owns what :func:`connect_sharded` built for it: the local
    :class:`ShardedDatabase` (``session.db``; its stores close with the
    coordinator's local endpoints) or the spawned
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
        engine: str | None = None,
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
            self._resolve(source),
            params,
            engine,
            collection,
            deadline_ms=deadline_ms,
            tracer=tracer,
        )
        route = response["route"]
        wire = response["stats"]
        stats = ExecutionStats()
        stats.queries = wire["queries"]
        stats.rows_fetched = wire["rows_fetched"]
        # total_millis derives from folded aggregates — fold the
        # endpoints' summed wall time in whole (responses carry no
        # per-query samples).
        stats.folded_millis = wire["millis"]
        stats.folded_samples = stats.queries
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
        """Close the coordinator and whatever the session owns.
        Idempotent, and a child process that already crashed is skipped,
        not waited on."""
        (self.deployment or self.client).close()

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
    elif placement is None:
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
    else:
        for name, rows in (tables or {}).items():
            database.insert(name, rows)  # a ShardedDatabase routes them
    if isinstance(database, ShardedDatabase):
        return database
    return ShardedDatabase(database, placement, 2 if shards is None else shards)


def connect_sharded(
    database: "ShardedDatabase | Database | None" = None,
    *,
    schema: Schema | None = None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
    placement: Placement | None = None,
    shards: int | None = None,
    options: SqlOptions | None = None,
    engine: str = "auto",
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
      on CPU-bound queries.  ``options`` / ``engine`` / ``cache`` configure
      the per-store sessions as :func:`~repro.api.connect` would
      (``options`` also the coordinator, which stitches what they run); all
      stores share the plan cache, so a query compiles once.  ``registry``
      (optional) seeds the name catalogue — the coordinator's and, by
      copy, each endpoint's; later queries join through
      :meth:`ShardedSession.register`, as over the wire.  Every store
      compiles without references, so a ``database`` whose schema declares
      some is served from an in-memory copy (``session.db.full is not
      database``): rows inserted through the session never reach the
      caller's store.  One built over ``schema.without_references()`` is
      served as it is and sees every insert; a durable store that declares
      references is refused (:class:`ShardedDatabase`).
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
        session = Session(store, options=options, engine=engine, cache=cache)
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
    return ShardedSession(client, db=db)
