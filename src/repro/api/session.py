"""The :class:`Session`: the one documented way into the shredding engine.

A session owns a :class:`~repro.backend.database.Database`, its schema, a
plan cache and the :class:`~repro.sql.codegen.SqlOptions` — everything
PRs 1–2 built, behind a single object::

    from repro.api import connect

    session = connect(figure3_database())          # cached plans
    result = session.table("departments").select("name").run()
    session.query(Q6).run(engine="parallel")       # hand-built λNRC terms

A run uses the batched executor: index advisement, then every statement
of the package read on the calling thread as the column table SQLite's
JSON1 writes for it, then one fold per row, children first.  It does not
pick threads — the statements share the interpreter lock, so a pool does
the same work in no less time.  Another engine is a per-call, in-process
choice (``run(engine=…)``, validated against
:data:`~repro.pipeline.shredder.KNOWN_ENGINES` up front); a session, a
server and a deployment hold none.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.api.fluent import Query, to_term
from repro.api.results import Prepared, Result
from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.errors import ShreddingError, UnknownTableError
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.shredder import CompiledQuery, ShreddingPipeline, validate_engine
from repro.sql.codegen import SqlOptions

__all__ = ["Session", "connect", "connect_sharded"]


def _drops_references_only(schema: Schema, store: Schema) -> bool:
    """Whether ``schema`` is ``store`` with some of its references dropped."""
    return schema.without_references() == store.without_references() and all(
        set(table.references) <= set(store.table(table.name).references)
        for table in schema.tables
    )


class Session:
    """A connection-like façade over the whole shredding pipeline.

    Parameters
    ----------
    database:
        An existing :class:`Database`; alternatively pass ``schema`` (and
        optionally ``tables``) to create a fresh one.  With a ``database``,
        ``schema`` may only be the store's tables, columns and keys with a
        subset of its references (a deployment's, see
        :func:`repro.shard.endpoint_session`): the session serves that
        store but compiles as if it declared only those.
    options:
        :class:`SqlOptions` for code generation and the logical optimizer.
    cache:
        ``True`` (default) → the process-wide shared plan cache; a
        :class:`~repro.pipeline.plan_cache.PlanCache` to scope it;
        ``False``/``None`` → compile cold every time.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the session counts
        into; a fresh one when not given.

    A run's counters ride on its :class:`~repro.api.results.Result`;
    everything longer-lived — statements, rows, statement latency, plan
    cache hits and misses, indexes created, rules fired — is counted once,
    in :attr:`metrics`, which sessions made by :meth:`with_options` share
    and a server over the session counts its requests into.
    :meth:`stats_snapshot` reads the lifetime totals from there.

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
        cache: object = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if database is None:
            if schema is None:
                raise ShreddingError(
                    "connect() needs a Database or a Schema"
                )
            database = Database(schema, tables)
        else:
            if schema is not None and not _drops_references_only(schema, database.schema):
                raise ShreddingError(
                    "pass either a Database or a Schema, not both (a schema "
                    "next to a store must be the store's, less some references)"
                )
            for name, rows in (tables or {}).items():
                database.insert(name, rows)
        self.db = database
        self.schema = schema or database.schema
        self.options = options or SqlOptions()
        self.pipeline = ShreddingPipeline(
            self.schema, self.options, cache=cache
        )
        #: The session's lifetime counts (the families are declared here,
        #: so an exposition shows them at zero before the first query).
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._m_statements = self.metrics.counter(
            "statements_total",
            "Flat SQL statements executed (the query-avalanche metric)",
        )
        self._m_rows = self.metrics.counter(
            "rows_fetched_total", "Rows fetched from SQLite"
        )
        self._m_query_ms = self.metrics.histogram(
            "statement_latency_ms",
            "Per-statement wall time (execute + decode), milliseconds",
        )
        self._m_cache_hits = self.metrics.counter(
            "plan_cache_hits_total", "Plan cache hits"
        )
        self._m_cache_misses = self.metrics.counter(
            "plan_cache_misses_total", "Plan cache misses"
        )
        self._m_indexes = self.metrics.counter(
            "indexes_created_total", "Advisory SQLite indexes created"
        )
        self._m_rules = self.metrics.counter(
            "rules_fired_total",
            "Compiles whose plan a given optimizer rule rewrote",
            labels=("rule",),
        )

    def _count(self, run_stats: ExecutionStats) -> None:
        """Count one run's (or compile's) stats into the registry — its
        children have their own leaf locks, so concurrent runs need no
        other."""
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
        compiled_stats = ExecutionStats()
        compiled = self.pipeline.compile(term, stats=compiled_stats, tracer=tracer)
        self._count(compiled_stats)
        return compiled

    def stats_snapshot(self) -> dict[str, object]:
        """The session's lifetime totals, read from :attr:`metrics`: the
        statements, rows and statement milliseconds of every run and the
        plan cache's hits and misses of every compile."""
        return {
            "queries": int(self._m_statements.value),
            "rows_fetched": int(self._m_rows.value),
            "cache_hits": int(self._m_cache_hits.value),
            "cache_misses": int(self._m_cache_misses.value),
            "millis": round(self._m_query_ms._solo().snapshot()["sum"], 3),
        }

    def resolve_engine(
        self, engine: str | None, compiled: CompiledQuery
    ) -> str:
        """Validate a run's ``engine`` and resolve ``None`` and ``"auto"``:
        the batched engine, whatever ``compiled`` is."""
        if engine in (None, "auto"):
            return "batched"
        validate_engine(engine)
        return engine

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
        across option values, so both sessions stay coherent.  The two
        share :attr:`metrics`, so their lifetime totals are one."""
        return Session(
            self.db,
            options=replace(self.options, **changes),
            cache=self.pipeline.cache,
            metrics=self.metrics,
        )

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
            f"cache={'on' if self.pipeline.cache is not None else 'off'}>"
        )


def connect(
    database: Database | None = None,
    *,
    schema: Schema | None = None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
    options: SqlOptions | None = None,
    cache: object = True,
    metrics: MetricsRegistry | None = None,
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
