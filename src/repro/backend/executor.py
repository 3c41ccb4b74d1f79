"""SQL execution: run compiled shredded queries, count round trips, and
batch whole packages through one connection — or fan them out in parallel.

Three execution engines serve a compiled shredded package in process:

* :func:`execute_compiled` — the per-path engine: one call per shredded
  query, streaming rows in ``fetchmany`` batches and decoding each into
  ⟨index, value⟩ pairs.
* :func:`execute_package_batched` — the batched engine (the §8 "one pass"
  reading taken to the executor): the package's statements run children
  first on one connection, and every fetched row is touched by Python
  exactly once — :meth:`~repro.sql.codegen.CompiledSql.fold` builds its
  final record, child bags included, and files it under its outer index,
  so there is no decode pass, no grouping pass and no stitch pass.  Before
  executing it creates (and reuses across runs) SQLite indexes on the
  base-table columns the generated SQL joins (and, in the flat form,
  sorts) on.
* the **parallel** engine (``execute_package_batched(parallel=True)``) —
  the same fold, fed differently: worker threads over a pool of read-only
  connections (:meth:`Database.read_connections`) only execute and fetch
  raw chunks (the sqlite3 module releases the GIL inside each C-level
  step); the calling thread then folds them, children first.  Index
  advisement and ANALYZE happen on the writer connection *before* the
  fan-out; per-query stats are recorded in package order after the run,
  so :class:`ExecutionStats` stay deterministic under any scheduling.

The batched engines share one walk, :func:`fold_package`, which takes
its rows from a callable — so a shard coordinator runs the very same walk
over rows that were fetched elsewhere.  That is the other half of this
module: :func:`execute_package_shredded` runs a package's statements in
their column-table form (SQLite's JSON1 writes each statement's columns as
JSON; nothing is fetched row by row, folded or stitched) for a fan-out
coordinator to fold.

No engine writes while it reads: once a plan's indexes are advised and
``ANALYZE`` has run (the first run), executing it issues nothing but
``SELECT``.

:class:`ExecutionStats` counts queries and rows (the intro's N+1 "query
avalanche" metric is #queries issued), records per-query wall time, and
carries the plan cache's hit/miss counters.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.backend.database import Database
from repro.sql.ast import (
    BinOp,
    Col,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.sql.codegen import CompiledSql

__all__ = [
    "ExecutionStats",
    "bind_params",
    "execute_compiled",
    "execute_package_batched",
    "execute_package_shredded",
    "fold_package",
    "ensure_compiled_indexes",
    "DEFAULT_FETCH_BATCH",
    "DEFAULT_POOL_SIZE",
]

#: Rows fetched per cursor round trip (satellite: stream, don't fetchall).
DEFAULT_FETCH_BATCH = 1024

#: Upper bound on pooled read connections for the parallel engine.  Floor
#: of 2 even on single-core hosts: sqlite3 releases the GIL inside each C
#: step, so one worker's fetch still overlaps another's SQLite evaluation.
DEFAULT_POOL_SIZE = int(
    os.environ.get("REPRO_POOL_SIZE", str(min(8, max(2, os.cpu_count() or 4))))
)


@dataclass
class ExecutionStats:
    """Counts queries, rows and time moved between database and host.

    ``per_query_millis[i]`` is the wall time (execute + decode) of the
    ``i``-th recorded query.  ``cache_hits`` / ``cache_misses`` count plan
    cache consultations made by the pipeline that carried these stats.

    Per-run stats keep the full per-query lists (tests and explain depend
    on exact samples).  *Session-lifetime* stats, which accumulate
    forever on a server, call :meth:`compact` after each merge: the
    oldest samples beyond a cap are folded into ``folded_rows`` /
    ``folded_millis`` / ``folded_samples`` aggregates, so ``queries``,
    ``rows_fetched`` and :attr:`total_millis` stay exact while memory
    stays bounded (distribution shape lives in the metrics registry's
    histograms, not here).
    """

    queries: int = 0
    rows_fetched: int = 0
    per_query_rows: list[int] = field(default_factory=list)
    per_query_millis: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    indexes_created: int = 0
    #: Sharded-execution markers (see :mod:`repro.shard`): how many runs
    #: fanned out across every shard, were routed to a single shard by a
    #: bound routing key, ran on one shard because they touch only
    #: replicated tables, or fell back to the designated full-copy shard
    #: because the shardability analysis rejected them.
    sharded_fanouts: int = 0
    sharded_routed: int = 0
    sharded_singles: int = 0
    sharded_fallbacks: int = 0
    #: Fault-tolerance markers: runs *planned* around a known-down shard
    #: (the router diverted to the full-copy fallback before touching the
    #: dead endpoint) vs. runs *retried* on the fallback after a shard
    #: failed mid-execution.
    failover_reroutes: int = 0
    failover_retries: int = 0
    #: Fired-rule trace: optimizer rule flag → number of compiles carried
    #: by these stats whose plan that rule rewrote (cache hits included —
    #: the rule shaped the plan the compile used).
    rules_fired: dict = field(default_factory=dict)
    #: Aggregates of per-query samples folded out by :meth:`compact` —
    #: zero on per-run stats, where the lists stay intact.
    folded_rows: int = 0
    folded_millis: float = 0.0
    folded_samples: int = 0

    def record(self, rows: int, millis: float = 0.0) -> None:
        self.queries += 1
        self.rows_fetched += rows
        self.per_query_rows.append(rows)
        self.per_query_millis.append(millis)

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (order-preserving).

        Utility for aggregating stats across separate runs or carriers.
        Note the parallel engine does *not* need it internally: workers
        return raw ``(rows, millis)`` outcomes and the coordinator records
        them in package order after all workers join, which already makes
        a parallel run's stats identical to a sequential run's.
        """
        self.queries += other.queries
        self.rows_fetched += other.rows_fetched
        self.per_query_rows.extend(other.per_query_rows)
        self.per_query_millis.extend(other.per_query_millis)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.indexes_created += other.indexes_created
        self.sharded_fanouts += other.sharded_fanouts
        self.sharded_routed += other.sharded_routed
        self.sharded_singles += other.sharded_singles
        self.sharded_fallbacks += other.sharded_fallbacks
        self.failover_reroutes += other.failover_reroutes
        self.failover_retries += other.failover_retries
        for rule, count in other.rules_fired.items():
            self.rules_fired[rule] = self.rules_fired.get(rule, 0) + count
        self.folded_rows += other.folded_rows
        self.folded_millis += other.folded_millis
        self.folded_samples += other.folded_samples

    def compact(self, cap: int) -> int:
        """Fold the oldest per-query samples so at most ``cap`` remain.

        Aggregate counters (``queries``, ``rows_fetched``,
        :attr:`total_millis`) are unchanged; only the sample *lists*
        shrink.  Returns the number of samples folded this call.
        """
        excess = len(self.per_query_millis) - cap
        if excess <= 0:
            return 0
        self.folded_rows += sum(self.per_query_rows[:excess])
        self.folded_millis += sum(self.per_query_millis[:excess])
        self.folded_samples += excess
        del self.per_query_rows[:excess]
        del self.per_query_millis[:excess]
        return excess

    @property
    def total_millis(self) -> float:
        """Total recorded query wall time (execute + decode), including
        samples folded out by :meth:`compact`."""
        return self.folded_millis + sum(self.per_query_millis)


def bind_params(compiled: CompiledSql, params) -> dict[str, object]:
    """The bind dict for one statement: exactly the host parameters its SQL
    names (sqlite3 rejects superfluous named parameters), with missing
    ones reported up front."""
    if not compiled.params:
        return {}
    supplied = params or {}
    missing = [name for name in compiled.params if name not in supplied]
    if missing:
        from repro.errors import BackendError

        raise BackendError(
            "unbound host parameter(s): "
            + ", ".join(f":{name}" for name in missing)
            + " — pass run(params={...})"
        )
    return {name: supplied[name] for name in compiled.params}


def execute_compiled(
    db: Database,
    compiled: CompiledSql,
    stats: ExecutionStats | None = None,
    batch_size: int | None = None,
    params=None,
    connection=None,
    tracer=None,
) -> list[tuple[object, object]]:
    """Run one compiled shredded query and decode its ⟨index, value⟩ pairs.

    Rows stream from SQLite in ``batch_size`` chunks (default
    :data:`DEFAULT_FETCH_BATCH`, 1024) instead of one monolithic ``fetchall``,
    bounding peak raw-row memory; decoding happens per chunk.  ``params``
    supplies host-parameter values (bound per statement); ``connection``
    routes execution to a specific (pooled) connection.  ``tracer`` (a
    :class:`repro.obs.Tracer`) receives a ``statement`` span with
    ``sql``/``decode`` children.
    """
    batch = DEFAULT_FETCH_BATCH if batch_size is None else batch_size
    started = time.perf_counter()
    decode_seconds = 0.0
    pairs: list[tuple[object, object]] = []
    for chunk in db.execute_sql_chunks(
        compiled.sql,
        params=bind_params(compiled, params),
        batch_size=batch,
        connection=connection,
    ):
        decode_started = time.perf_counter()
        pairs.extend(compiled.decode_rows(chunk))
        decode_seconds += time.perf_counter() - decode_started
    millis = (time.perf_counter() - started) * 1000.0
    if stats is not None:
        stats.record(len(pairs), millis)
    if tracer is not None:
        _record_statement_span(
            tracer, len(pairs), millis, decode_seconds * 1000.0
        )
    return pairs


def _record_statement_span(
    tracer, rows: int, millis: float, decode_millis: float, **attributes
) -> None:
    """Attach one executed statement's span (with ``sql``/``decode``
    children) at the tracer's current position.  Always called from the
    coordinating thread, in package order — never from workers."""
    span = tracer.record("statement", millis, rows=rows, **attributes)
    span.record("sql", max(millis - decode_millis, 0.0))
    span.record("decode", decode_millis)


def _prefetch(
    db: Database, members: list[CompiledSql], batch: int, params, workers: int
) -> dict[int, tuple[list, float]]:
    """The parallel engine's only concurrent step: run every member on a
    pooled read connection and fetch its raw chunks — the part that
    releases the GIL.  ``{id(member): (chunks, millis)}``; members are
    striped over ``workers`` lanes so no two workers share a connection."""
    connections = db.read_connections(workers)

    def fetch_lane(lane: int) -> list[tuple[list, float]]:
        fetched = []
        for compiled in members[lane::workers]:
            started = time.perf_counter()
            chunks = list(
                db.execute_sql_chunks(
                    compiled.sql,
                    params=bind_params(compiled, params),
                    batch_size=batch,
                    connection=connections[lane],
                )
            )
            fetched.append((chunks, (time.perf_counter() - started) * 1000.0))
        return fetched

    with ThreadPoolExecutor(max_workers=workers) as executor:
        lanes = list(executor.map(fetch_lane, range(workers)))
    return {
        id(compiled): lanes[position % workers][position // workers]
        for position, compiled in enumerate(members)
    }


def fold_package(sql_package, rows_of, outcomes: dict | None = None):
    """The batched engine's one walk over a package, whatever the rows
    come from: statements in *post-order*, each statement's rows folded
    once, through its generated :meth:`~repro.sql.codegen.CompiledSql.fold`,
    into ``{outer key: [record, …]}`` — the child statements' dicts handed
    to the parent's fold in field order (the order of the item type's index
    leaves).  Returns the package with each bag annotation replaced by its
    dict, ready for :func:`repro.shred.stitch.stitch_grouped`.

    ``rows_of(compiled)`` yields the statement's raw rows in chunks (any
    iterables of tuples): ``fetchmany`` lists out of SQLite in
    :func:`execute_package_batched`, the ``zip`` of a decoded column table
    at a shard coordinator (:mod:`repro.shard.client`).  ``outcomes``
    receives ``id(compiled) → (wall ms, ms inside fold)`` per statement.
    """
    from repro.shred.packages import PkgBag, PkgRecord

    def run(compiled: CompiledSql, child_buckets: list[dict]) -> dict:
        started = time.perf_counter()
        fold = compiled.fold()
        grouped: dict = {}
        decode_seconds = 0.0
        for chunk in rows_of(compiled):
            decode_started = time.perf_counter()
            fold(chunk, grouped, *child_buckets)
            decode_seconds += time.perf_counter() - decode_started
        if outcomes is not None:
            millis = (time.perf_counter() - started) * 1000.0
            outcomes[id(compiled)] = (millis, decode_seconds * 1000.0)
        return grouped

    def visit(node, buckets: list[dict]):
        """Post-order: a bag runs after the bags in its element, whose
        results reach it in field order — the order of the index leaves
        its ``fold`` reads them by — and joins its parent's ``buckets``."""
        if isinstance(node, PkgBag):
            inner: list[dict] = []
            element = visit(node.element, inner)
            buckets.append(run(node.annotation, inner))
            return PkgBag(element, buckets[-1])
        if isinstance(node, PkgRecord):
            return PkgRecord(
                tuple((label, visit(sub, buckets)) for label, sub in node.fields)
            )
        return node

    return visit(sql_package, [])


def _advise_indexes(db: Database, sql_package, stats: ExecutionStats | None) -> None:
    """A package's setup, on the writer connection, before any statement
    runs: the advisory indexes, then ``ANALYZE`` if anything changed."""
    created = _ensure_package_indexes(db, sql_package)
    db.refresh_statistics()
    if stats is not None:
        stats.indexes_created += created


def execute_package_batched(
    db: Database,
    sql_package,
    stats: ExecutionStats | None = None,
    create_indexes: bool = True,
    batch_size: int | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    params=None,
    connection=None,
    tracer=None,
):
    """Run all shredded queries of a package: one fold per row, children
    first (§8 "stitching in one pass", taken to the executor).

    Statements run in *post-order* (:func:`fold_package`), so when a
    statement's rows arrive the results of the statements one nesting
    level down are already grouped:
    :meth:`~repro.sql.codegen.CompiledSql.fold` turns each raw tuple into
    its final record — child bags included, by handing over the child's
    bucket list — and appends it under its outer key.  Returns the package
    with each bag annotation replaced by that statement's
    ``{outer key: [record, …]}`` dict (encounter order preserved; keys are
    the fold's flat ``(tag, key…)`` tuples), so the nested result is the
    top bag's ⊤·1 bucket (:func:`repro.shred.stitch.stitch_grouped`) and
    nothing is decoded, grouped or walked a second time.

    ``parallel`` first fetches every statement's raw chunks on pooled
    read-only connections (one worker thread per connection, capped by
    ``max_workers`` / ``REPRO_POOL_SIZE``; SQLite releases the GIL inside
    each step), then folds them here, on the calling thread, through the
    same ``fold``.  Setup — advisory indexes, ANALYZE — always happens on
    the writer connection before any statement runs.

    ``params`` supplies host-parameter values (each statement binds the
    subset it names).  ``connection`` routes the *serial* batched path to a
    specific pooled connection — the service layer leases one per request
    so concurrent requests never contend on the writer connection; the
    parallel path manages its own pool and ignores it.

    ``stats`` and ``tracer`` (a :class:`repro.obs.Tracer`: one
    ``statement`` span per member with ``sql``/``decode`` children, where
    ``decode`` is the time inside ``fold``) are filled in *package* order
    after the run, each statement timed on its own, so they are the same
    under either engine and any scheduling.
    """
    from repro.shred.packages import annotations

    batch = DEFAULT_FETCH_BATCH if batch_size is None else batch_size
    if create_indexes:
        _advise_indexes(db, sql_package, stats)

    members = [compiled for _path, compiled in annotations(sql_package)]
    workers = min(
        len(members), DEFAULT_POOL_SIZE if max_workers is None else max_workers
    )
    fetched: dict[int, tuple[list, float]] = {}
    sources: dict[int, tuple[int, float]] = {}  # rows, prefetch ms
    outcomes: dict[int, tuple[float, float]] = {}

    def rows_of(compiled: CompiledSql):
        chunks, fetch_millis = fetched.pop(id(compiled), None) or (
            db.execute_sql_chunks(
                compiled.sql,
                params=bind_params(compiled, params),
                batch_size=batch,
                connection=connection,
            ),
            0.0,
        )
        rows = 0
        for chunk in chunks:
            rows += len(chunk)
            yield chunk
        sources[id(compiled)] = (rows, fetch_millis)

    if parallel and workers > 1:
        fetched = _prefetch(db, members, batch, params, workers)
    results = fold_package(sql_package, rows_of, outcomes)
    for position, compiled in enumerate(members):
        rows, fetch_millis = sources[id(compiled)]
        millis, decode_millis = outcomes[id(compiled)]
        millis += fetch_millis
        if stats is not None:
            stats.record(rows, millis)
        if tracer is not None:
            _record_statement_span(
                tracer, rows, millis, decode_millis, index=position
            )
    return results


def execute_package_shredded(
    db: Database,
    sql_package,
    stats: ExecutionStats | None = None,
    create_indexes: bool = True,
    params=None,
    connection=None,
    tracer=None,
) -> list[tuple[int, bytes]]:
    """Run a package's statements in their column-table form
    (:attr:`~repro.sql.codegen.CompiledSql.column_table_sql`) and fold
    nothing: per statement, in package order, ``(row count, JSON bytes of
    its columns)`` exactly as SQLite wrote them — no row tuple, no record,
    no ``json.dumps`` on this side.  What a shard answers a fan-out
    coordinator with (``result: "shredded"``); the coordinator runs
    :func:`fold_package` over the decoded tables.

    Setup, ``params``, ``connection``, ``stats`` (``rows`` is the
    wrapper's ``count(*)``) and ``tracer`` as in
    :func:`execute_package_batched`.  Each statement goes through
    :meth:`Database.execute_sql_chunks` like any other — it yields one
    one-row chunk.
    """
    from repro.shred.packages import annotations

    if create_indexes:
        _advise_indexes(db, sql_package, stats)
    tables: list[tuple[int, bytes]] = []
    for position, (_path, compiled) in enumerate(annotations(sql_package)):
        started = time.perf_counter()
        ((table,),) = db.execute_sql_chunks(
            compiled.column_table_sql,
            params=bind_params(compiled, params),
            batch_size=1,
            connection=connection,
        )
        millis = (time.perf_counter() - started) * 1000.0
        tables.append(table)
        if stats is not None:
            stats.record(table[0], millis)
        if tracer is not None:
            _record_statement_span(tracer, table[0], millis, 0.0, index=position)
    return tables


# --------------------------------------------------------------------------
# Index advisement: mine the generated SQL for sort/join columns.


def ensure_compiled_indexes(db: Database, compiled: CompiledSql) -> int:
    """Create the SQLite indexes a compiled statement benefits from.

    Two families of hints are mined from the SQL AST:

    * columns compared by ``=`` in WHERE clauses — the join columns of the
      amalgamated comprehensions;
    * in the flat form only, the ``ROW_NUMBER() OVER (ORDER BY …)`` column
      lists, per base table — the sort that realises ``index`` (§7).
      Key-indexed plans sort nothing, so they get no sort indexes (their
      key columns already carry the table's unique key index).

    The hint set is memoised on the compiled statement and the indexes are
    ``CREATE INDEX IF NOT EXISTS`` remembered by the :class:`Database`, so
    repeat runs of a cached plan skip the AST walk and fall straight
    through to O(1) ensured-index hits.  Returns the number of indexes
    actually created.
    """
    hints = compiled.index_hints
    if hints is None:
        hints = tuple(sorted(_index_hints(compiled.statement)))
        compiled.index_hints = hints
    created = 0
    for table, columns in hints:
        if db.ensure_index(table, columns):
            created += 1
    return created


def _ensure_package_indexes(db: Database, sql_package) -> int:
    from repro.shred.packages import annotations

    created = 0
    for _path, compiled in annotations(sql_package):
        created += ensure_compiled_indexes(db, compiled)
    return created


def _index_hints(statement: Statement) -> set[tuple[str, tuple[str, ...]]]:
    """(table, columns) pairs worth indexing, mined from the statement."""
    hints: set[tuple[str, tuple[str, ...]]] = set()

    def visit_core(core: SelectCore) -> None:
        alias_to_table = {
            item.alias: item.table
            for item in core.from_items
            if isinstance(item, TableRef)
        }
        for item in core.from_items:
            if isinstance(item, SubqueryRef):
                visit_core(item.select)

        def visit_expr(expr) -> None:
            if isinstance(expr, BinOp):
                if expr.op == "=":
                    for side in (expr.left, expr.right):
                        if (
                            isinstance(side, Col)
                            and side.alias in alias_to_table
                        ):
                            hints.add(
                                (alias_to_table[side.alias], (side.name,))
                            )
                visit_expr(expr.left)
                visit_expr(expr.right)
            elif isinstance(expr, NotOp):
                visit_expr(expr.operand)
            elif isinstance(expr, NotExists):
                visit_core(expr.select)
            elif isinstance(expr, RowNumber):
                per_alias: dict[str, list[str]] = {}
                for col in expr.order_by:
                    if isinstance(col, Col) and col.alias in alias_to_table:
                        columns = per_alias.setdefault(col.alias, [])
                        if col.name not in columns:
                            columns.append(col.name)
                for alias, columns in per_alias.items():
                    hints.add((alias_to_table[alias], tuple(columns)))

        if core.where is not None:
            visit_expr(core.where)
        for item in core.items:
            visit_expr(item.expr)

    for _name, cte in statement.ctes:
        visit_core(cte)
    for select in statement.selects:
        visit_core(select)
    return hints
