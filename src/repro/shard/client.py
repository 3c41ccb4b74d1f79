"""The fan-out coordinator: one sharded deployment behind a set of endpoints.

A :class:`ShardedServiceClient` holds one *endpoint* per partition shard
replica plus one for the full-copy fallback, and is the only
implementation of the sharded execution algorithm — plan route →
sub-requests → replica/whole-query failover → bag-union merge → counters.
An endpoint is a driver of :class:`~repro.service.protocol.ClientCore` —
its ops, plus ``close`` and ``.breaker`` / ``.retries`` / ``.reconnects``
/ ``.last_ping_ms`` — and there are two kinds, both answered by a
:class:`~repro.service.core.ServerCore`:

* a :class:`~repro.service.client.ServiceClient` — the PR 4 wire protocol
  against a ``python -m repro serve --shard i/n`` server (built here from
  a ``(host, port)`` address);
* a :class:`~repro.shard.deployment.LocalEndpoint` — a per-partition
  :class:`~repro.api.session.Session` in this process (built by
  :func:`~repro.shard.deployment.connect_sharded`; the same requests, no
  frame, no socket).

The coordinator carries the placement and the query catalogue (terms are
what the shardability analysis reads — and what it compiles, once per
name, through a data-less session under the deployment's ``SqlOptions``,
``client.session``, which is also the session the deployment's user
holds; only names and parameter values reach an endpoint) and:

* **stitches** — the paper's *flat queries run remotely; stitching is
  the single local step at the end*.  Every sub-request (fan-out,
  routed, single, fallback and failover alike, under any collection)
  asks for ``result: "shredded"`` (protocol v1.5): the endpoint answers
  with one column table per statement,
  written by SQLite, and the sub-request's worker checks them against the
  coordinator's own plan (the ``plan`` fingerprint, table and column
  counts, column lengths — :class:`~repro.errors.ShardingError`, never a
  wrong answer) and folds them into nested rows through the batched
  engine's own decode-check-fold
  (:meth:`~repro.pipeline.shredder.CompiledQuery.fold_tables`: the same
  generated folds, the same bare-or-tagged keys, the same walk with the
  cycle collector paused) — as soon as that answer is in, while slower
  shards still run.  An answer that carries no tables is a
  :class:`~repro.errors.ShardingError`: nothing reaches the merge
  unchecked;
* fans a distributive query out to every shard concurrently (one worker
  thread per sub-request) and bag-unions the row lists by concatenation
  **in shard order**; ``collection="set"`` runs shards under bag
  semantics and deduplicates once, *after* the union (set-union is
  global — per-shard dedup alone would under-collapse across shards, and
  δ does not commute with the comprehension below it);
* sends a routed point lookup (``dept_staff(:dept)``) to exactly one
  shard — ``shard_requests`` counts per-shard executes so deployments
  can assert that;
* runs what the analysis rejects, and anything under ``collection=
  "list"`` (which needs the full store's row order), on the fallback.

Failover: every endpoint has a
:class:`~repro.service.resilience.CircuitBreaker`.

* **proactively** — a shard that is marked down
  (:meth:`~ShardedServiceClient.mark_shard_down`) or whose breakers are
  all open is routed around before any request is sent: the whole query
  runs on the full-copy fallback, ``route="failover:…"``, counted in
  ``failover_reroutes``;
* **reactively** — a shard that dies *mid-run* (transport failure,
  deadline, shed with ``OVERLOADED``, a local store raising) makes the
  coordinator discard any partial fan-out responses and re-run the whole
  query on the fallback (``failover_retries``).  Partial results cannot
  be patched — the dead shard's slice is simply missing — and the
  fallback holds a full copy.

Replica groups: each logical shard may be served by a *group* of
endpoints — a primary plus N replicas holding the same partition (pass a
list of lists for ``shard_addresses``; a flat list is the degenerate
one-replica deployment).  Reads route to the preferred live replica —
breaker state first, then the lowest measured ping round-trip, primaries
winning ties — and a *sub-request* that fails with a sibling still
standing retries on the sibling (``replica_failovers``) instead of
abandoning the fan-out: the fallback is the last resort, reached only
when an entire group is exhausted.  Writes (:meth:`ShardedServiceClient.
insert`) go to *every* replica of the owning group — write-all/read-any,
with the idempotency key making redelivery after a partial write safe.

When the fallback itself cannot answer, the coordinator raises
:class:`~repro.errors.ShardUnavailableError` naming the failing shard
label, replica index and op — never a bare ``OSError`` or
``sqlite3.Error`` out of one of many endpoints.

Thread-safety is a property of the endpoint kind: the coordinator's own
counters sit under one lock, so over local endpoints (which are
shareable) one instance serves any number of threads; over wire
endpoints (one socket each) an instance is thread-confined — give each
application thread its own.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.api.session import Session
from repro.backend.database import Database
from repro.errors import (
    BackendError,
    DeadlineExceededError,
    OverloadedError,
    ServiceConnectionError,
    ShardUnavailableError,
    ShardingError,
)
from repro.normalise import normalise
from repro.nrc.schema import Schema
from repro.obs.trace import traced
from repro.service.client import DEFAULT_TIMEOUT, ServiceClient
from repro.service.registry import QueryRegistry
from repro.service.resilience import CircuitBreaker, RetryPolicy
from repro.shard.analysis import RouteDecision, ShardPlan, analyse, plan_route
from repro.shard.placement import Placement
from repro.sql.codegen import SqlOptions

__all__ = [
    "ShardedServiceClient",
    "SHARD_UNAVAILABLE",
    "MODE_COUNTERS",
    "endpoint_session",
]

#: The failures that mean "this shard cannot answer right now" — transport
#: breakage (which is also how a local endpoint reports a dying store), a
#: spent deadline, or deliberate load-shedding.  A structured query error
#: (unknown query, type error, …) is *deterministic*: it would fail
#: identically on the fallback, so it propagates instead.
SHARD_UNAVAILABLE = (
    ServiceConnectionError,
    DeadlineExceededError,
    OverloadedError,
)

#: Plan mode → the name its run counter carries in :meth:`ShardedService
#: Client.stats_snapshot` (a run's own mode is its result's ``route``).
MODE_COUNTERS = {
    "fanout": "fanouts",
    "routed": "routed",
    "single": "singles",
    "fallback": "fallbacks",
}


def endpoint_session(source: Database | Schema, placement: Placement, **options: Any) -> Session:
    """The session a deployment under ``placement`` compiles with: over a
    store as it is (an endpoint), or over an empty store of a schema (the
    coordinator).

    Either way it compiles under :meth:`Placement.deployment_schema
    <repro.shard.placement.Placement.deployment_schema>`: the references
    that hold in every partition — both tables replicated, or both sharded
    in one aligned group on the join columns — key a child by its join
    column, and every other reference is dropped.  So every endpoint, and
    the coordinator that folds what they answer, runs one plan.
    ``options`` are :class:`~repro.api.session.Session`'s own."""
    store = source if isinstance(source, Database) else Database(source)
    return Session(store, schema=placement.deployment_schema(store.schema), **options)


def _normalise_groups(shard_addresses: Sequence) -> list[list]:
    """Accept both shapes: a flat list with one endpoint per shard (every
    pre-replica deployment) or a list of *lists* (each inner list one
    shard's replica group, primary first).  An endpoint is a ``(host,
    port)`` pair or a ready-made endpoint object."""
    groups: list[list] = []
    for entry in shard_addresses:
        single = not isinstance(entry, (tuple, list)) or (
            len(entry) == 2 and isinstance(entry[0], str)
        )
        group = [entry] if single else list(entry)
        if not group:
            raise ShardingError("a shard's replica group cannot be empty")
        groups.append(group)
    return groups


class ShardedServiceClient:
    """Fan-out/routing coordinator over ``n`` shard groups + a fallback."""

    def __init__(
        self,
        shard_addresses: Sequence,
        fallback_address: Any,
        *,
        placement: Placement,
        registry: QueryRegistry,
        schema: Schema,
        timeout: float = DEFAULT_TIMEOUT,
        deadline_ms: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: object = None,
        options: Optional[SqlOptions] = None,
    ) -> None:
        if not shard_addresses:
            raise ShardingError("need at least one shard address")
        self.placement = placement.validate(schema)
        self.registry = registry
        self.deadline_ms = deadline_ms
        #: The session this coordinator compiles with (it stitches what the
        #: endpoints ran): a data-less :func:`endpoint_session` under the
        #: placement and ``options`` — the endpoints' ``SqlOptions``, or the
        #: plans differ and :meth:`prepare` says so — on the process plan
        #: cache.  :func:`~repro.shard.deployment.deployment_session` hands
        #: it to the deployment's user, its runs reading through this
        #: coordinator.
        self.session = endpoint_session(schema, self.placement, options=options)
        self.schema = self.session.schema
        self.options = self.session.options

        # connect_now=False: a dead shard at construction time must not
        # make the *client* unusable — its breaker trips on first use and
        # routes divert to a sibling replica or the fallback.
        def endpoint(target: Any) -> Any:
            if not isinstance(target, (tuple, list)):
                return target  # built by the caller (a local endpoint)
            host, port = target
            return ServiceClient(
                host,
                int(port),
                timeout=timeout,
                deadline_ms=deadline_ms,
                retry=retry,
                breaker=CircuitBreaker(breaker_threshold, breaker_reset),
                connect_now=False,
                clock=clock,
            )

        #: One endpoint per replica, grouped by logical shard
        #: (``self._groups[i][j]`` = shard ``i``, replica ``j``; replica 0
        #: is the primary).
        self._groups = [
            [endpoint(target) for target in group]
            for group in _normalise_groups(shard_addresses)
        ]
        self._fallback = endpoint(fallback_address)
        self.shard_count = len(self._groups)
        self.replication = max(len(group) for group in self._groups)
        #: Per-endpoint breakers in endpoint order (shard 0's replicas,
        #: shard 1's, …, the fallback last) — each shared with its
        #: endpoint, consulted (non-mutatingly) for routing.
        self.breakers = [client.breaker for _label, client in self._endpoints()]
        self._plans: dict[str, ShardPlan] = {}
        self._compiled: dict[str, Any] = {}  # name → CompiledQuery
        #: Shards an operator marked down; replaced, never mutated, so the
        #: request path reads it without a lock.
        self._marked_down: frozenset = frozenset()
        #: Per-shard / fallback *execute* counters, one per successful
        #: run; ``replica_requests[i][j]`` splits ``shard_requests[i]`` by
        #: the replica that answered, ``mode_runs`` counts runs per plan
        #: mode, and the failover counters are what the fault-injection
        #: suite asserts exactly.  All under ``_counter_lock``.
        self.shard_requests = [0] * self.shard_count
        self.replica_requests = [[0] * len(group) for group in self._groups]
        self.fallback_requests = 0
        self.mode_runs = dict.fromkeys(MODE_COUNTERS, 0)
        self.failover_reroutes = 0
        self.failover_retries = 0
        #: Sub-requests retried on a sibling replica after their preferred
        #: replica failed — the failovers that *don't* cost a fallback run.
        self.replica_failovers = 0
        self._closed = False
        self._counter_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.breakers),
            thread_name_prefix="repro-shard-client",
        )
        self.metrics: object = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def _endpoints(self) -> Iterator[tuple[str, Any]]:
        """Every ``(label, endpoint)`` in endpoint order, fallback last."""
        for index, group in enumerate(self._groups):
            for replica, client in enumerate(group):
                yield self.replica_label(index, replica), client
        yield self.shard_label(None), self._fallback

    def attach_metrics(self, registry) -> None:
        """Mirror this client's routing/failover counters into a
        :class:`~repro.obs.MetricsRegistry` and subscribe every endpoint's
        circuit breaker to ``breaker_transitions_total`` — the registry
        view of what :meth:`stats_snapshot` reports as plain dicts."""
        from repro.obs import DEFAULT_LATENCY_BUCKETS_MS

        self._m_subrequests = registry.counter(
            "shard_subrequests_total",
            "Per-endpoint execute sub-requests issued by the fan-out client.",
            labels=("shard",),
        )
        self._m_subrequest_ms = registry.histogram(
            "shard_subrequest_latency_ms",
            "Client-observed wall time of one shard sub-request.",
            labels=("shard",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        self._m_breaker = registry.counter(
            "breaker_transitions_total",
            "Circuit-breaker state changes, per endpoint.",
            labels=("endpoint", "state"),
        )
        self._m_replica_failovers = registry.counter(
            "replica_failovers_total",
            "Sub-requests retried on a sibling replica.",
        )
        self._m_reroutes = registry.counter(
            "failover_reroutes_total",
            "Whole-query runs proactively diverted to the fallback.",
        )
        self._m_retries = registry.counter(
            "failover_retries_total",
            "Whole-query runs re-run on the fallback after a mid-run failure.",
        )

        def subscribe(endpoint: str, breaker: CircuitBreaker) -> None:
            def on_transition(state: str) -> None:
                self._m_breaker.labels(endpoint=endpoint, state=state).inc()

            breaker.on_transition = on_transition

        for label, client in self._endpoints():
            subscribe(label, client.breaker)
        self.metrics = registry

    # ------------------------------------------------------------- analysis

    def plan_for(self, query: str) -> ShardPlan:
        """The (cached) shardability verdict for a registry query."""
        plan = self._plans.get(query)
        if plan is None:
            entry = self.registry.lookup(query)
            plan = analyse(normalise(entry.term, self.schema), self.placement)
            self._plans[query] = plan
        return plan

    def _compiled_for(self, query: str) -> Any:
        """This coordinator's (cached) compile of a registry query — the
        folds and the plan fingerprint of what the endpoints run."""
        compiled = self._compiled.get(query)
        if compiled is None:
            compiled = self.session._compile(self.registry.lookup(query).term)
            self._compiled[query] = compiled
        return compiled

    def _stitch(self, query: str, label: str, response: dict) -> tuple[int, int]:
        """Replace a sub-response's ``shredded`` column tables by the
        nested ``rows`` they stand for, in place, through the batched
        engine's own decode-check-fold
        (:meth:`~repro.pipeline.shredder.CompiledQuery.fold_tables`) — the
        same generated folds, keys and walk as the endpoint would have
        run, the cycle collector paused as there.  Everything the fold
        takes on trust is checked first (:class:`ShardingError`, never a
        wrong answer): the endpoint compiled the plan this coordinator
        did, one table per statement, one list per projected column, every
        column as long as the endpoint's ``count(*)``.  Returns (tables,
        rows) for the span."""
        compiled = self._compiled_for(query)

        def bad(what: str) -> ShardingError:
            return ShardingError(
                f"shard {label} answered {query!r} with column tables that "
                f"do not fit the coordinator's plan: {what}"
            )

        if "shredded" not in response:
            raise ShardingError(
                f"shard {label} answered {query!r} with rows, not the column "
                f"tables of plan {compiled.plan_fingerprint!r}"
            )
        if response.get("plan") != compiled.plan_fingerprint:
            raise bad(
                f"plan {response.get('plan')!r} ≠ the coordinator's "
                f"{compiled.plan_fingerprint!r} (do both compile under the same "
                f"SqlOptions and placement, through endpoint_session?)"
            )
        tables = response.pop("shredded")
        outcomes: dict[int, tuple[int, float]] = {}
        try:
            response["rows"] = compiled.fold_tables(tables, outcomes)
        except BackendError as error:
            raise bad(str(error)) from error
        return len(tables), sum(rows for rows, _millis in outcomes.values())

    # ------------------------------------------------------------- liveness

    def shard_label(self, index: Optional[int]) -> str:
        """The deployment label of a partition shard (or the fallback)."""
        if index is None:
            return f"full/{self.shard_count}"
        return f"{index}/{self.shard_count}"

    def replica_label(self, index: Optional[int], replica: int) -> str:
        """The label of one endpoint of shard ``index``: the primary keeps
        the plain shard label (``"2/4"``), replicas append their index
        (``"2.1/4"``) — so one-replica deployments read exactly as before."""
        if replica == 0:
            return self.shard_label(index)
        return f"{index}.{replica}/{self.shard_count}"

    def mark_shard_down(self, index: int) -> None:
        """Divert routes around partition shard ``index`` until
        :meth:`mark_shard_up` — the operator's switch, independent of the
        breakers (which trip and heal on their own)."""
        if not 0 <= index < self.shard_count:
            raise ShardingError(
                f"shard index {index} out of range for {self.shard_count} shards"
            )
        with self._counter_lock:
            self._marked_down = self._marked_down | {index}

    def mark_shard_up(self, index: int) -> None:
        with self._counter_lock:
            self._marked_down = self._marked_down - {index}

    def down_shards(self) -> frozenset:
        """Logical shards currently presumed dead: marked down, or *every*
        replica's breaker open.  A group with one live replica left is not
        down — reads route to the survivor instead of the fallback.

        Non-mutating (``is_open`` never consumes a half-open probe slot),
        so calling this for routing decisions cannot starve recovery."""
        return self._marked_down.union(
            index
            for index, group in enumerate(self._groups)
            if all(client.breaker.is_open for client in group)
        )

    def _group(self, index: Optional[int]) -> list:
        """The replica group of shard ``index`` (None = the fallback)."""
        return [self._fallback] if index is None else self._groups[index]

    def _replica_order(self, index: Optional[int]) -> list[int]:
        """Replica preference for shard ``index``: live (breaker not
        open) replicas first, ordered by their last measured ping
        round-trip (unmeasured sorts last among the live; the primary
        wins ties).  With every breaker open, all replicas in primary
        order — their breakers' half-open probes decide at request time.
        """
        group = self._group(index)
        candidates = [
            replica
            for replica, client in enumerate(group)
            if not client.breaker.is_open
        ] or list(range(len(group)))

        def preference(replica: int) -> tuple[float, int]:
            latency = group[replica].last_ping_ms
            return (
                latency if latency is not None else float("inf"),
                replica,
            )

        return sorted(candidates, key=preference)

    def check_health(self, deadline_ms: Optional[float] = 1000.0) -> dict:
        """Ping every endpoint; returns label → liveness verdict.

        A successful ping feeds the endpoint's breaker, so health checks
        both *observe* and *heal* liveness state (a half-open breaker's
        probe slot rides on the ping) — and it records each wire
        endpoint's round-trip latency, which is the replica-routing
        tie-break.
        """

        def probe(pair: tuple) -> tuple[str, bool]:
            label, client = pair
            try:
                client.ping(deadline_ms=deadline_ms)
            except SHARD_UNAVAILABLE:
                return label, False
            return label, True

        return dict(self._pool.map(probe, self._endpoints()))

    # ------------------------------------------------------------------ ops

    def _broadcast(self, call: Callable) -> list:
        """``call(endpoint)`` on every *live* partition replica, one worker
        each; a replica whose breaker is open, or that cannot answer, is
        skipped (None) — its breaker has recorded it and executes divert."""

        def guarded(client) -> Optional[dict]:
            if client.breaker.is_open:
                return None
            try:
                return call(client)
            except SHARD_UNAVAILABLE:
                return None

        replicas = [client for group in self._groups for client in group]
        return list(self._pool.map(guarded, replicas))

    def prepare(self, query: str) -> dict:
        """Compile ``query`` on every *live* replica of every shard (and
        the fallback), so later executes hit warm plan caches everywhere —
        including the sibling a sub-request may fail over to.

        Every endpoint reports its ``plan`` fingerprint (protocol v1.5)
        and each is compared with this coordinator's own compile: a
        deployment whose endpoints run other ``SqlOptions`` than the
        coordinator fails here, once, instead of on every execute."""
        responses = self._broadcast(lambda client: client.prepare(query))
        template = next((r for r in responses if r is not None), None)
        try:
            fallback_response = self._fallback.prepare(query)
        except SHARD_UNAVAILABLE as error:
            if template is None:
                raise ShardUnavailableError(
                    f"no shard could prepare {query!r}: {error}",
                    shard=self.shard_label(None),
                    op="prepare",
                ) from error
            fallback_response = None
        own = self._compiled_for(query).plan_fingerprint
        labels = [label for label, _client in self._endpoints()]
        for label, answer in zip(labels, [*responses, fallback_response]):
            if answer is not None and answer.get("plan") != own:
                raise ShardingError(
                    f"endpoint {label} compiles {query!r} to plan {answer.get('plan')}, "
                    f"the coordinator to {own}: they run different SqlOptions or "
                    f"placements (give the coordinator the endpoints' options= and placement)"
                )
        response = dict(template if template is not None else fallback_response)
        response["shards"] = self.shard_count
        return response

    def register(
        self, query: str, source: object, description: str = ""
    ) -> dict:
        """Register an ad-hoc query on the *whole* deployment (protocol
        v1.4): the term is shipped to every live replica of every shard
        plus the fallback, and added to this client's local catalogue so
        :meth:`plan_for` can analyse it.

        Registration must land on the fallback (the shard every route can
        divert to) and on at least one endpoint overall; a dead replica
        is skipped exactly like :meth:`prepare` — its supervisor restart
        re-runs with the same term and converges (the op is idempotent by
        structural fingerprint).
        """
        from repro.api.fluent import to_term

        term = to_term(source)
        responses = self._broadcast(
            lambda client: client.register(query, term, description=description)
        )
        try:
            fallback_response = self._fallback.register(
                query, term, description=description
            )
        except SHARD_UNAVAILABLE as error:
            raise ShardUnavailableError(
                f"full-copy shard could not register {query!r}: {error}",
                shard=self.shard_label(None),
                op="register",
            ) from error
        self.registry.register(query, term, description=description)
        self._plans.pop(query, None)  # the name may now mean a new term
        self._compiled.pop(query, None)
        response = dict(fallback_response)
        response["endpoints"] = sum(1 for r in responses if r is not None) + 1
        return response

    def execute(
        self,
        query: str,
        params: Optional[Mapping[str, object]] = None,
        collection: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> list:
        """Run ``query`` across the deployment; returns the nested rows."""
        return self.execute_full(query, params, collection, deadline_ms=deadline_ms)["rows"]

    def execute_full(
        self,
        query: str,
        params: Optional[Mapping[str, object]] = None,
        collection: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        tracer: object = None,
    ) -> dict:
        """Like :meth:`execute`, plus route (and why), shards hit and
        merged stats.

        ``deadline_ms`` bounds each *attempt*; a run that fails over pays
        at most two attempts (primary + fallback), so the caller waits at
        most twice the deadline in the worst case.

        ``tracer`` (a :class:`repro.obs.Tracer`) records one ``route``
        span per attempt with a ``shard`` sub-span per endpoint hit —
        each carrying the shard/replica label, the client-observed wall
        time, the endpoint-reported ``server_millis`` and, from a wire
        server, ``inline`` (did the run stay on its event loop), with a
        ``stitch`` child (``tables``, ``rows``) for the fold of that
        endpoint's column tables, inside the shard span's time — and
        stamps the tracer's id on every sub-request so server logs
        correlate.
        """
        if deadline_ms is None:
            deadline_ms = self.deadline_ms
        bound = dict(params) if params else None
        decision = plan_route(
            self.plan_for(query),
            self.shard_count,
            params=bound,
            collection=collection,
            down_shards=self.down_shards(),
        )
        request = (query, bound, deadline_ms, tracer)
        try:
            rows, stats = self._run_decision(decision, *request)
        except SHARD_UNAVAILABLE as error:
            if not decision.shards:
                # The full-copy fallback itself failed: nothing stands in.
                raise ShardUnavailableError(
                    f"fallback shard cannot answer {query!r}: {error}",
                    shard=self.shard_label(None),
                    op="execute",
                ) from error
            # Reactive failover: discard everything and re-run the *whole*
            # query on the fallback, which holds a superset of every
            # partition.
            failed = self.shard_label(getattr(error, "_repro_shard", None))
            decision = RouteDecision(
                "failover",
                f"failover:{decision.route}",
                (),
                decision.per_shard_collection,
                f"shard {failed} failed mid-run ({type(error).__name__}); "
                f"retried on the full-copy fallback",
            )
            try:
                rows, stats = self._run_decision(decision, *request, retried=True)
            except SHARD_UNAVAILABLE as fallback_error:
                raise ShardUnavailableError(
                    f"shard {failed} failed executing {query!r} ({error}) "
                    f"and the fallback could not stand in ({fallback_error})",
                    shard=failed,
                    op="execute",
                    replica=getattr(error, "_repro_replica", None),
                ) from fallback_error
            stats["failover_retries"] = 1
            if self.metrics is not None:
                self._m_retries.inc()
        else:
            if decision.mode == "failover":
                stats["failover_reroutes"] = 1
                if self.metrics is not None:
                    self._m_reroutes.inc()

        if collection == "set":
            from repro.values import dedup_nested

            rows = dedup_nested(rows)
        return {
            "ok": True,
            "query": query,
            "rows": rows,
            "engine": "batched",
            "route": decision.route,
            "reason": decision.reason,
            "shards": list(decision.shards),
            "stats": stats,
        }

    def _run_decision(
        self,
        decision: RouteDecision,
        query: str,
        bound: Optional[dict],
        deadline_ms: Optional[float],
        tracer: object = None,
        retried: bool = False,
    ) -> tuple[list, dict]:
        """Execute one resolved route; shard failures carry the culprit's
        index as ``error._repro_shard`` (and the last replica tried as
        ``error._repro_replica``) for failover attribution.

        A shard's sub-request walks its replica group in preference order
        (see :meth:`_replica_order`): a replica that fails with a sibling
        still untried hands the sub-request to the sibling
        (``replica_failovers``) — the whole-query fallback only triggers
        once a group is exhausted.  The fallback is the one-endpoint
        group ``None``.

        Workers only measure; counters and spans are attached *after* the
        joins, in shard order, on the coordinating thread — so the span
        tree is deterministic however the fan-out interleaves, and a run
        takes the counter lock once.
        """
        trace_id = getattr(tracer, "trace_id", None)
        per_shard = decision.per_shard_collection

        def subrequest(index: Optional[int]) -> tuple[dict, float, Any, dict]:
            group = self._group(index)
            order = self._replica_order(index)
            last_error: Optional[Exception] = None
            for position, replica in enumerate(order):
                started = time.perf_counter()
                try:
                    response = group[replica].execute_full(
                        query,
                        bound,
                        per_shard,
                        deadline_ms=deadline_ms,
                        trace_id=trace_id,
                        result="shredded",
                    )
                except SHARD_UNAVAILABLE as error:
                    error._repro_shard = index
                    error._repro_replica = replica
                    last_error = error
                    if position < len(order) - 1:
                        with self._counter_lock:
                            self.replica_failovers += 1
                        if self.metrics is not None:
                            self._m_replica_failovers.inc()
                    continue
                millis = (time.perf_counter() - started) * 1000.0
                label = self.replica_label(index, replica)
                if self.metrics is not None:
                    self._m_subrequests.labels(shard=label).inc()
                    self._m_subrequest_ms.labels(shard=label).observe(millis)
                # This worker stitches its own answer as soon as it has
                # it — while slower shards are still running.
                tables, fetched = self._stitch(query, label, response)
                stitch_millis = (time.perf_counter() - started) * 1000.0 - millis
                stitched = {"tables": tables, "rows": fetched}, stitch_millis
                return response, millis, stitched, {
                    "shard": label,
                    "replica": replica,
                    "attempts": position + 1,
                }
            assert last_error is not None
            raise last_error

        targets = decision.shards or (None,)
        with traced(tracer, "route", mode=decision.mode, route=decision.route):
            if len(targets) == 1:
                outcomes = [subrequest(targets[0])]
            else:
                # Submit + drain *every* future before raising: wire
                # endpoints are thread-confined, so a failed fan-out must
                # not leave abandoned sub-requests racing the next op (the
                # failover retry, or a later routed call) for a socket.
                futures = [self._pool.submit(subrequest, i) for i in targets]
                outcomes, first_error = [], None
                for future in futures:
                    try:
                        outcomes.append(future.result())
                    except Exception as error:  # noqa: BLE001 — re-raised below
                        if first_error is None:
                            first_error = error  # first in shard order wins
                if first_error is not None:
                    raise first_error
            if tracer is not None:
                for response, millis, stitched, attrs in outcomes:
                    # What the endpoint said about its side of the run
                    # ("inline": a wire server answered from its loop).
                    for said in ("server_millis", "inline"):
                        if response.get(said) is not None:
                            attrs[said] = response[said]
                    # A child of the sub-request whose answer it stitched
                    # (and inside its time), not its sibling.
                    stitch_attrs, stitch_millis = stitched
                    tracer.record("shard", millis + stitch_millis, **attrs).record(
                        "stitch", stitch_millis, **stitch_attrs
                    )
        with self._counter_lock:
            for index, (_response, _millis, _stitched, attrs) in zip(targets, outcomes):
                if index is None:
                    self.fallback_requests += 1
                else:
                    self.shard_requests[index] += 1
                    self.replica_requests[index][attrs["replica"]] += 1
            if retried:
                self.failover_retries += 1
            elif decision.mode == "failover":
                self.failover_reroutes += 1
            else:
                self.mode_runs[decision.mode] += 1
        first = outcomes[0][0]
        if len(outcomes) == 1:
            return first["rows"], dict(first["stats"])
        # ⊎ is concatenation in shard order.
        rows: list = []
        stats = {"queries": 0, "rows_fetched": 0, "millis": 0.0}
        for response, _millis, _stitched, _attrs in outcomes:
            rows.extend(response["rows"])
            for key in stats:
                stats[key] += response["stats"][key]
        stats["millis"] = round(stats["millis"], 3)
        return rows, stats

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> dict:
        """Insert ``rows``, routed per the placement
        (:meth:`~repro.shard.placement.Placement.route_rows`): the
        full-copy fallback first (it validates the batch), then every
        *replica* of each owning shard — write-all/read-any, the contract
        that lets reads route to any live replica.

        One idempotency key (generated when absent) covers the whole
        distributed write: each endpoint journals it independently, so a
        batch that fails part-way — some endpoints applied, a replica
        down — is simply **re-sent whole** with the same key after the
        raise; endpoints that applied it answer ``applied: false``,
        stragglers catch up, and no row lands twice anywhere.

        Returns ``{"table": …, "rows": n, "applied": bool,
        "idempotency_key": …, "endpoints": m}`` — ``applied`` is the
        full copy's verdict (False = the whole batch was a re-delivery).
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        materialised = [dict(row) for row in rows]
        targets = self.placement.route_rows(
            table, materialised, self.shard_count
        )
        try:
            response = self._fallback.insert(
                table, materialised, idempotency_key=idempotency_key
            )
        except SHARD_UNAVAILABLE as error:
            raise ShardUnavailableError(
                f"full-copy shard cannot accept insert into {table!r}: "
                f"{error}; re-send with idempotency key "
                f"{idempotency_key!r}",
                shard=self.shard_label(None),
                op="insert",
            ) from error
        endpoints = 1
        for index, shard_rows in targets.items():
            for replica, client in enumerate(self._groups[index]):
                try:
                    client.insert(
                        table, shard_rows, idempotency_key=idempotency_key
                    )
                except SHARD_UNAVAILABLE as error:
                    raise ShardUnavailableError(
                        f"replica {self.replica_label(index, replica)} "
                        f"could not apply insert into {table!r}: {error}; "
                        f"re-send with idempotency key {idempotency_key!r}",
                        shard=self.shard_label(index),
                        op="insert",
                        replica=replica,
                    ) from error
                endpoints += 1
        return {
            "ok": True,
            "table": table,
            "rows": len(materialised),
            "applied": bool(response.get("applied")),
            "idempotency_key": idempotency_key,
            "endpoints": endpoints,
        }

    def stats_snapshot(self) -> dict:
        """This client's routing and resilience counters, *without*
        touching an endpoint (unlike :meth:`stats`, which asks every
        server): per-shard, per-mode and failover totals, the transparent
        retry/reconnect work the endpoints performed, each endpoint's
        breaker state and last measured ping round-trip.  The operator's
        (and the degraded benchmark's) one-call view of what fault
        handling actually cost.
        """
        every = dict(self._endpoints())
        with self._counter_lock:
            snapshot = {
                "shard_requests": list(self.shard_requests),
                "replica_requests": [list(c) for c in self.replica_requests],
                "fallback_requests": self.fallback_requests,
                "failover_reroutes": self.failover_reroutes,
                "failover_retries": self.failover_retries,
                "replica_failovers": self.replica_failovers,
            }
            for mode, name in MODE_COUNTERS.items():
                snapshot[name] = self.mode_runs[mode]
        snapshot["retries"] = sum(c.retries for c in every.values())
        snapshot["reconnects"] = sum(c.reconnects for c in every.values())
        snapshot["down_shards"] = sorted(self.down_shards())
        snapshot["endpoints"] = {
            label: {
                "breaker": client.breaker.snapshot(),
                "retries": client.retries,
                "reconnects": client.reconnects,
                "ping_ms": client.last_ping_ms,
            }
            for label, client in every.items()
        }
        return snapshot

    def stats(self) -> dict:
        """Endpoint-side counters from every live endpoint plus the
        fallback, and this client's :meth:`stats_snapshot` (with the
        breakers in endpoint order) under ``client``.

        ``shards`` stays one entry per *logical* shard (the preferred
        replica's report — the shape PR 6 callers consume); per-replica
        reports live under ``replicas``.
        """

        def endpoint_stats(client) -> Optional[dict]:
            try:
                return client.stats()
            except SHARD_UNAVAILABLE:
                return None  # a dead shard must not sink the whole report

        replica_reports = [
            [endpoint_stats(client) for client in group]
            for group in self._groups
        ]
        local = self.stats_snapshot()
        local["breakers"] = [b.snapshot() for b in self.breakers]
        return {
            "shards": [
                next((r for r in reports if r is not None), None)
                for reports in replica_reports
            ],
            "replicas": replica_reports,
            "fallback": endpoint_stats(self._fallback),
            "client": local,
        }

    def close(self) -> None:
        """Shut the worker pool and close every endpoint.

        Idempotent: a second close is a no-op (an endpoint's close is
        best-effort already, so dead endpoints never make closing
        raise)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        for _label, client in self._endpoints():
            client.close()

    def __enter__(self) -> "ShardedServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
