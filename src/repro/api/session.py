"""The :class:`Session`: the one documented way into the shredding engine.

A session owns a :class:`~repro.backend.database.Database`, its schema, a
plan cache, the :class:`~repro.sql.codegen.SqlOptions`, and an *engine
policy* — everything PRs 1–2 built, behind a single object::

    from repro.api import connect

    session = connect(figure3_database())          # engine="auto", cached
    result = session.table("departments").select("name").run()
    session.query(Q6).run(engine="parallel")       # hand-built λNRC terms

``engine="auto"`` (the default) is the batched executor: index advisement,
then every statement of the package read on the calling thread as the
column table SQLite's JSON1 writes for it, then one fold per row, children
first.  It does not pick threads — the statements share the interpreter
lock, so a pool does the same work in no less time; ``engine="parallel"``
remains selectable by name.  Explicit engines are validated against
:data:`~repro.pipeline.shredder.KNOWN_ENGINES` up front.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.api.fluent import Query, TermQuery, to_term
from repro.api.results import Prepared, Result
from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.errors import ShreddingError, UnknownTableError
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.pipeline.shredder import (
    KNOWN_ENGINES,
    CompiledQuery,
    ShreddingPipeline,
    validate_engine,
)
from repro.sql.codegen import SqlOptions

__all__ = ["Session", "connect", "connect_sharded"]

#: Cap on the session-lifetime per-query sample lists: after each merge,
#: samples beyond this are folded into exact aggregates
#: (:meth:`ExecutionStats.compact`) so a long-running server's stats stay
#: O(1) while ``queries``/``rows_fetched``/``total_millis`` remain exact.
#: Per-run stats are never compacted.
STATS_SAMPLE_CAP = 2048


class Session:
    """A connection-like façade over the whole shredding pipeline.

    Parameters
    ----------
    database:
        An existing :class:`Database`; alternatively pass ``schema`` (and
        optionally ``tables``) to create a fresh one.
    options:
        :class:`SqlOptions` for code generation and the logical optimizer.
    engine:
        The session's default executor: ``"auto"`` (default, the batched
        engine) or one of
        :data:`~repro.pipeline.shredder.KNOWN_ENGINES`.
    cache:
        ``True`` (default) → the process-wide shared plan cache; a
        :class:`~repro.pipeline.plan_cache.PlanCache` to scope it;
        ``False``/``None`` → compile cold every time.

    Sessions are context managers: leaving the ``with`` block closes the
    pooled SQLite connections (the Python-side rows survive — a later query
    rebuilds lazily).
    """

    def __init__(
        self,
        database: Database | None = None,
        *,
        schema: Schema | None = None,
        tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
        options: SqlOptions | None = None,
        engine: str = "auto",
        cache: object = True,
        metrics: object = None,
    ) -> None:
        if database is None:
            if schema is None:
                raise ShreddingError(
                    "connect() needs a Database or a Schema"
                )
            database = Database(schema, tables)
        elif schema is not None and schema is not database.schema:
            raise ShreddingError(
                "pass either a Database or a Schema, not both"
            )
        elif tables:
            for name, rows in tables.items():
                database.insert(name, rows)
        validate_engine(engine, extra=("auto",))
        self.db = database
        self.schema = database.schema
        self.engine = engine
        self.options = options or SqlOptions()
        self.pipeline = ShreddingPipeline(
            self.schema, self.options, cache=cache
        )
        #: Session-lifetime accumulation of every run's stats (plus the
        #: plan cache's hit/miss counters from compiles).  Guarded by
        #: ``_stats_lock``: the service layer runs many handler threads
        #: through one shared session.
        self.stats = ExecutionStats()
        self._stats_lock = threading.Lock()
        #: Optional :class:`repro.obs.MetricsRegistry` — every merged
        #: run's stats are mirrored into bounded counters/histograms
        #: (the server's ``/metrics`` surface).  None keeps the hot path
        #: at a single attribute check.
        self.metrics = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry: object) -> None:
        """Mirror this session's stats into ``registry`` from now on —
        families are declared here (idempotently) so the exposition shows
        them at zero before the first query."""
        self._m_statements = registry.counter(
            "statements_total",
            "Flat SQL statements executed (the query-avalanche metric)",
        )
        self._m_rows = registry.counter(
            "rows_fetched_total", "Rows fetched from SQLite"
        )
        self._m_query_ms = registry.histogram(
            "statement_latency_ms",
            "Per-statement wall time (execute + decode), milliseconds",
        )
        self._m_cache_hits = registry.counter(
            "plan_cache_hits_total", "Plan cache hits"
        )
        self._m_cache_misses = registry.counter(
            "plan_cache_misses_total", "Plan cache misses"
        )
        self._m_indexes = registry.counter(
            "indexes_created_total", "Advisory SQLite indexes created"
        )
        self._m_rules = registry.counter(
            "rules_fired_total",
            "Compiles whose plan a given optimizer rule rewrote",
            labels=("rule",),
        )
        self.metrics = registry

    def _observe_stats(self, run_stats: ExecutionStats) -> None:
        """Fold one run's stats into the metrics registry (outside the
        stats lock — registry children have their own leaf locks)."""
        if run_stats.queries:
            self._m_statements.inc(run_stats.queries)
        if run_stats.rows_fetched:
            self._m_rows.inc(run_stats.rows_fetched)
        for millis in run_stats.per_query_millis:
            self._m_query_ms.observe(millis)
        if run_stats.cache_hits:
            self._m_cache_hits.inc(run_stats.cache_hits)
        if run_stats.cache_misses:
            self._m_cache_misses.inc(run_stats.cache_misses)
        if run_stats.indexes_created:
            self._m_indexes.inc(run_stats.indexes_created)
        for rule, count in run_stats.rules_fired.items():
            self._m_rules.labels(rule=rule).inc(count)

    # ------------------------------------------------------------- building

    def table(self, name: str, alias: str | None = None) -> Query:
        """A fluent query over a base table (validated against the schema)."""
        if name not in self.schema:
            raise UnknownTableError(name)
        return Query(self, name, alias or name[0])

    def from_(self, source: object, alias: str = "x") -> Query:
        """A fluent query over any bag-valued source: another
        :class:`Query`, a ``@query`` capture, or a raw λNRC term —
        querying *views* the way §3 queries Qorg."""
        return Query(self, source, alias)

    def query(self, source: object) -> Prepared:
        """Bind any query-shaped object to this session, ready to run.

        Accepts fluent queries, ``@query``-captured functions, and
        hand-built λNRC terms.
        """
        return self.prepare(source)

    def prepare(self, source: object) -> Prepared:
        if isinstance(source, Prepared):
            # Rebind another session's prepared query rather than running
            # it against the wrong database/options.
            if source._session is self:
                return source
            return Prepared(self, source.term())
        return Prepared(self, to_term(source))

    def lift(self, term: ast.Term) -> TermQuery:
        """Wrap a hand-built λNRC term with the fluent surface (so it can
        be unioned, nested, or used as a ``from_`` source)."""
        return TermQuery(self, term)

    # -------------------------------------------------------------- running

    def run(self, source: object, **kwargs: Any) -> Result:
        """One-shot: compile (cache-aware) and execute ``source``."""
        return self.prepare(source).run(**kwargs)

    def sql(self, source: object) -> list[tuple[str, str]]:
        """The (path, SQL) pairs ``source`` shreds into."""
        return self.prepare(source).sql_by_path

    def explain(self, source: object) -> str:
        """Compilation + engine report for ``source``."""
        return self.prepare(source).explain()

    def compile(self, source: object) -> CompiledQuery:
        """The underlying compiled plan (engine-internal escape hatch)."""
        return self.prepare(source).compiled

    def lint(self, source: object, placement: object = None) -> list:
        """Static diagnostics for ``source`` (compiles, never executes).

        Returns :class:`~repro.check.diagnostics.Diagnostic` values, most
        severe first: dead host parameters (QS101), the statement-count /
        shredding-bound report (QS401), advisory-index hints (QS301) — and,
        when a :class:`~repro.shard.placement.Placement` is supplied, the
        shard-plan attribution (QS201): which mode the shardability
        analysis chose and *why* (for fallback plans, the exact table or
        shape that forced the full-copy shard).
        """
        return self.prepare(source).diagnostics(placement=placement)

    def _compile(self, term: ast.Term, tracer=None) -> CompiledQuery:
        # Record cache counters into a local carrier first, then fold under
        # the lock: compile work itself (possibly slow) stays unlocked.
        local = ExecutionStats()
        compiled = self.pipeline.compile(term, stats=local, tracer=tracer)
        self._merge_stats(local)
        return compiled

    def _merge_stats(self, run_stats: ExecutionStats) -> None:
        """Fold one run's stats into the session total (thread-safe), then
        compact the lifetime sample lists to :data:`STATS_SAMPLE_CAP`."""
        if self.metrics is not None:
            self._observe_stats(run_stats)
        with self._stats_lock:
            self.stats.merge(run_stats)
            self.stats.compact(STATS_SAMPLE_CAP)

    def stats_snapshot(self) -> dict[str, object]:
        """A consistent point-in-time view of the session counters —
        never torn mid-merge, unlike reading ``stats`` fields directly
        while handler threads are recording."""
        with self._stats_lock:
            return {
                "queries": self.stats.queries,
                "rows_fetched": self.stats.rows_fetched,
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "millis": round(self.stats.total_millis, 3),
            }

    def resolve_engine(
        self, engine: str | None, compiled: CompiledQuery
    ) -> str:
        """Validate ``engine`` (default: the session's) and resolve
        ``"auto"``: the batched engine, whatever ``compiled`` is."""
        if engine is None:
            engine = self.engine
        validate_engine(engine, extra=("auto",))
        return "batched" if engine == "auto" else engine

    # ----------------------------------------------------------------- data

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> bool:
        """Insert rows into a base table (schema-validated, incremental).

        ``idempotency_key`` dedups re-deliveries (see
        :meth:`repro.backend.database.Database.insert`); returns ``False``
        iff the key was already applied and nothing was written.
        """
        return self.db.insert(table, rows, idempotency_key=idempotency_key)

    def with_options(self, **changes: Any) -> "Session":
        """A derived session over the *same* database with adjusted
        :class:`SqlOptions` (e.g. ``with_options(scheme="natural")`` or
        ``with_options(optimize=True)``); plan caches never mix plans
        across option values, so both sessions stay coherent."""
        session = Session(
            self.db,
            options=replace(self.options, **changes),
            engine=self.engine,
            cache=self.pipeline.cache,
            metrics=self.metrics,
        )
        session.stats = self.stats  # one accumulation stream per family
        session._stats_lock = self._stats_lock
        return session

    def close(self) -> None:
        """Close the SQLite materialisation and its read pool."""
        self.db._dispose_connection()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session tables={len(self.schema.tables)} "
            f"engine={self.engine!r} "
            f"cache={'on' if self.pipeline.cache is not None else 'off'}>"
        )


def connect(
    database: Database | None = None,
    *,
    schema: Schema | None = None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
    options: SqlOptions | None = None,
    engine: str = "auto",
    cache: object = True,
    metrics: object = None,
) -> Session:
    """Open a :class:`Session` — the library's front door.

    >>> session = connect(schema=MY_SCHEMA, tables={"users": [...]})
    >>> session.table("users").select("name").run().to_dicts()
    """
    return Session(
        database,
        schema=schema,
        tables=tables,
        options=options,
        engine=engine,
        cache=cache,
        metrics=metrics,
    )


def connect_sharded(database=None, **kwargs: Any):
    """Open a :class:`~repro.shard.deployment.ShardedSession` — the sharded
    front door (``placement=``/``shards=`` select the deployment, a
    database or its absence selects local or spawned-process endpoints;
    the rest of the knobs match :func:`connect`).

    Imported lazily so ``repro.api`` stays importable without loading the
    sharding subsystem.
    """
    from repro.shard.deployment import connect_sharded as factory

    return factory(database, **kwargs)
