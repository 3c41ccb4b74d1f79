"""SQL execution: run compiled shredded queries, count round trips, and
batch whole packages through one connection — or fan them out in parallel.

Every statement is read the same way, whatever consumes it: as its
*column table* (:attr:`~repro.sql.codegen.CompiledSql.column_table_sql`:
SQLite's JSON1 writes the row count and one JSON array per projected
column, so sqlite3 builds no row tuple), in one fetch
(:func:`_column_table`), so the read is over before Python does anything
with it.  :func:`_column_tables` runs a whole package's tables in package
order — on the given connection, or striped over pooled read-only
connections (:meth:`Database.read_connections`) for the **parallel**
engine, whose worker threads only run SQLite (the sqlite3 module releases
the GIL inside each C-level step).  Three consumers read the tables:

* :func:`execute_package_batched` — the batched and parallel engines (the
  §8 "one pass" reading taken to the executor): every row is touched by
  Python exactly once — :meth:`~repro.sql.codegen.CompiledSql.fold` builds
  its final record, child bags included, and files it under its outer
  index, children first (:func:`fold_package`), so there is no decode
  pass, no grouping pass and no stitch pass.  Memory is the package's
  tables as SQLite wrote them, decoded one statement at a time, on top of
  the result.
* :func:`execute_package_shredded` — the same tables, folded by nobody
  here: what a shard answers a fan-out coordinator with.
* :func:`execute_compiled` — the per-path engine: each statement's table,
  decoded into ⟨index, value⟩ pairs for §5.2's ``stitch``.  The App. E
  reference the fold is tested against.

A package's setup — the advisory indexes on the base-table columns the
generated SQL joins on, range-filters against a literal or host parameter
(so a selective filter such as Q6's outliers is entered through its index
and drives the join), and, in the flat form, sorts on, each covering its
table so every ``SEARCH`` reads the index alone, then ``ANALYZE`` —
happens on the writer connection before any statement runs.  Per-query
stats are recorded in package order after the run, so
:class:`ExecutionStats` stay deterministic under any scheduling.

The batched engines and a shard coordinator share one decode-check-fold:
:func:`checked_table` turns a column table — ``(count, JSON bytes)`` as
SQLite wrote it, or ``{"n": …, "c": […]}`` off a frame — into checked
columns, and :func:`fold_package` walks the package children first,
folding each statement's ``zip(*columns)``.

A fold builds a tree — records, lists and base values, each child bucket
handed to exactly one parent — so a cyclic collection during it can free
nothing it made.  :func:`collector_paused` therefore holds CPython's
cycle collector off for the walk (process-wide, reentrant across
threads) and pays the deferred young-generation collection on the way
out, inside the run that deferred it; it is the library's only caller of
``gc``'s switches (``tools/check_concurrency.py`` CC007).

No engine writes while it reads: once a plan's indexes are advised and
``ANALYZE`` has run (the first run), executing it issues nothing but
``SELECT``.

:class:`ExecutionStats` counts queries and rows (the intro's N+1 "query
avalanche" metric is #queries issued), records per-query wall time, and
carries the plan cache's hit/miss counters.
"""

from __future__ import annotations

import gc
import json
import os
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.backend.database import Database
from repro.errors import BackendError
from repro.shred.packages import PkgBag, PkgRecord, annotations
from repro.sql.ast import (
    BinOp,
    Col,
    Lit,
    NotExists,
    NotOp,
    Placeholder,
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
    "checked_table",
    "fold_package",
    "collector_paused",
    "ensure_compiled_indexes",
    "index_hints",
    "DEFAULT_POOL_SIZE",
]

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
    ``i``-th recorded query; ``total_millis`` is their sum, or what a
    sharded run's endpoints reported in total.  ``cache_hits`` /
    ``cache_misses`` count plan cache consultations made by the pipeline
    that carried these stats.

    A carrier lives as long as one run (or one caller's merge of runs):
    whatever outlives a run — a session's lifetime totals — is counted by
    the session's :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    queries: int = 0
    rows_fetched: int = 0
    per_query_rows: list[int] = field(default_factory=list)
    per_query_millis: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    indexes_created: int = 0
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
    total_millis: float = 0.0

    def record(self, rows: int, millis: float = 0.0) -> None:
        self.queries += 1
        self.rows_fetched += rows
        self.per_query_rows.append(rows)
        self.per_query_millis.append(millis)
        self.total_millis += millis

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (order-preserving).

        Utility for aggregating stats across separate runs or carriers.
        Note the parallel engine does *not* need it internally: workers
        return raw ``(table, millis)`` outcomes and the coordinator records
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
        self.failover_reroutes += other.failover_reroutes
        self.failover_retries += other.failover_retries
        for rule, count in other.rules_fired.items():
            self.rules_fired[rule] = self.rules_fired.get(rule, 0) + count
        self.total_millis += other.total_millis


def bind_params(compiled: CompiledSql, params) -> dict[str, object]:
    """The bind dict for one statement: exactly the host parameters its SQL
    names (sqlite3 rejects superfluous named parameters), with missing
    ones reported up front."""
    if not compiled.params:
        return {}
    supplied = params or {}
    missing = [name for name in compiled.params if name not in supplied]
    if missing:
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
    params=None,
    connection=None,
    tracer=None,
) -> list[tuple[object, object]]:
    """The per-path engine: one statement's column table, read as every
    engine reads it, checked (:func:`checked_table`) and decoded into its
    ⟨index, value⟩ pairs (App. E) for §5.2's ``stitch``.  ``params``
    supplies host-parameter values (bound per statement); ``connection``
    routes the read to a specific (pooled) connection.  ``tracer`` (a
    :class:`repro.obs.Tracer`) receives a ``statement`` span with
    ``sql``/``decode`` children.
    """
    table, sql_millis = _column_table(db, compiled, params, connection)
    started = time.perf_counter()
    _count, columns = checked_table(compiled, table)
    pairs = compiled.decode_rows(zip(*columns))
    decode_millis = (time.perf_counter() - started) * 1000.0
    _record_statement(stats, tracer, len(pairs), sql_millis + decode_millis, decode_millis)
    return pairs


def _record_statement(
    stats, tracer, rows: int, millis: float, decode_millis: float, **attributes
) -> None:
    """Record one executed statement in ``stats`` and, with ``tracer``, as
    a span (with ``sql``/``decode`` children) at the tracer's current
    position.  Always called from the coordinating thread, in package
    order — never from workers."""
    if stats is not None:
        stats.record(rows, millis)
    if tracer is not None:
        span = tracer.record("statement", millis, rows=rows, **attributes)
        span.record("sql", max(millis - decode_millis, 0.0))
        span.record("decode", decode_millis)


#: :func:`collector_paused`'s process-wide state, only touched under the
#: lock: how many walks are inside the pause, and whether the first one in
#: found the collector on (so the last one out turns it back on).
_pause_lock = threading.Lock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def collector_paused(tracer=None):
    """Hold CPython's cyclic garbage collector off for the block — the one
    place in the library that switches it.

    A fold builds a tree (records, lists and base values; each child bucket
    handed to exactly one parent), so a collection in the middle of one can
    free nothing the fold made — it only re-walks the result as it grows.
    Reentrant and process-wide: the first entrant (of any thread) disables
    the collector if it is enabled, the last one out re-enables it only if
    the first found it enabled, so a caller that turned the collector off
    keeps it off.  On the way out, if the young generation is past its
    threshold, it is collected right there — the deferred work is paid
    inside the run that deferred it, never in the caller's next statement
    — and ``tracer`` records a ``collect`` span (``generation``, ms)."""
    global _pause_depth, _pause_resumes
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resumes = gc.isenabled()
            if _pause_resumes:
                gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            resumed = _pause_depth == 0 and _pause_resumes
            if resumed:
                gc.enable()
        threshold = gc.get_threshold()[0]
        if resumed and threshold and gc.get_count()[0] > threshold:
            started = time.perf_counter()
            gc.collect(0)
            if tracer is not None:
                millis = (time.perf_counter() - started) * 1000.0
                tracer.record("collect", millis, generation=0)


def _column_table(
    db: Database, compiled: CompiledSql, params, connection
) -> tuple[tuple[int, bytes], float]:
    """One statement's column table as SQLite wrote it — ``(row count,
    JSON bytes of its columns)`` — in one fetch, so the read is over
    before Python does anything with it; with the wall ms it took."""
    started = time.perf_counter()
    try:
        table = db.execute_cursor(
            compiled.column_table_sql,
            bind_params(compiled, params),
            connection=connection,
        ).fetchone()
    except (BackendError, sqlite3.Error) as error:
        if "too big" not in str(error):
            raise
        raise BackendError(
            "a statement's column table is longer than this SQLite's length "
            f"limit (SQLITE_LIMIT_LENGTH: {error.__cause__ or error})"
        ) from error
    return table, (time.perf_counter() - started) * 1000.0


def _column_tables(
    db: Database,
    sql_package,
    stats: ExecutionStats | None,
    create_indexes: bool,
    params,
    connection,
    parallel: bool = False,
) -> list[tuple[CompiledSql, tuple[int, bytes], float]]:
    """The package runner: setup (:func:`_advise_indexes`, unless
    ``create_indexes`` is off), then every statement's column table in
    package order, as ``(statement, table, wall ms)``.  The statements run
    on ``connection`` (default: the writer) — or, with ``parallel``,
    striped over pooled read-only connections, one worker thread per
    connection (at most :data:`DEFAULT_POOL_SIZE`), so no two workers
    share one; SQLite releases the GIL inside each step."""
    if create_indexes:
        _advise_indexes(db, sql_package, stats)
    members = [compiled for _path, compiled in annotations(sql_package)]
    workers = min(len(members), DEFAULT_POOL_SIZE) if parallel else 1
    if workers <= 1:
        return [(m, *_column_table(db, m, params, connection)) for m in members]
    connections = db.read_connections(workers)

    def lane(index: int) -> list[tuple[CompiledSql, tuple[int, bytes], float]]:
        return [
            (m, *_column_table(db, m, params, connections[index]))
            for m in members[index::workers]
        ]

    with ThreadPoolExecutor(max_workers=workers) as executor:
        lanes = list(executor.map(lane, range(workers)))
    return [lanes[position % workers][position // workers] for position in range(len(members))]


def checked_table(
    compiled: CompiledSql, table, label: str = "the column table"
) -> tuple[int, list]:
    """A statement's column table as ``(row count, columns)``, checked
    against the statement before anything folds it.  ``table`` is ``(count,
    JSON bytes)`` as SQLite wrote it, or ``{"n": count, "c": columns}`` off
    a frame; ``count`` must be an ``int`` (not a ``bool``, not a float)
    and it must hold one list per projected column, each ``count`` cells
    long.  A :class:`BackendError` names what does not fit."""
    try:
        if isinstance(table, dict):
            count, columns = table["n"], table["c"]
        else:
            count, columns = table[0], json.loads(table[1])
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise BackendError(f"{label} is malformed ({error!r})") from error
    if type(count) is not int:  # True and 1.0 pass ``len(column) == count``
        raise BackendError(f"{label} has a row count {count!r} that is not an int")
    if not isinstance(columns, list) or len(columns) != len(compiled.columns):
        raise BackendError(
            f"{label} has not the {len(compiled.columns)} columns of its statement"
        )
    if any(not isinstance(column, list) or len(column) != count for column in columns):
        raise BackendError(f"{label} has a column that is not {count!r} cells")
    return count, columns


def fold_package(sql_package, columns_of, outcomes: dict | None = None, tracer=None):
    """The batched engine's one walk over a package, wherever its tables
    come from: statements in *post-order*, each statement's rows folded
    once, through its generated :meth:`~repro.sql.codegen.CompiledSql.fold`,
    into ``{outer key: [record, …]}`` — the child statements' dicts handed
    to the parent's fold in field order (the order of the item type's index
    leaves).  Returns the package with each bag annotation replaced by its
    dict, ready for :func:`repro.shred.stitch.stitch_grouped`.

    ``columns_of(compiled)`` gives the statement's checked ``(row count,
    columns)`` (:func:`checked_table`), decoded on the spot from the tables
    :func:`execute_package_batched` read, or already decoded from a shard's
    answer by a coordinator
    (:meth:`~repro.pipeline.shredder.CompiledQuery.fold_tables`).  The fold
    unpacks each tuple of ``zip(*columns)`` into locals as it loops, so
    ``zip`` reuses the one tuple it yields and no row tuple is allocated.
    A statement with no rows is not folded, so its dict stays empty.
    ``outcomes`` receives ``id(compiled) → (rows, wall ms)`` per statement.
    The walk runs under :func:`collector_paused` (``tracer`` gets its
    ``collect`` span), and builds no reference cycle of its own: what it
    leaves behind is the result, freed by reference counting like any tree.
    """

    def run(compiled: CompiledSql, child_buckets: list[dict]) -> dict:
        started = time.perf_counter()
        count, columns = columns_of(compiled)
        grouped: dict = {}
        if count:
            compiled.fold()(zip(*columns), grouped, *child_buckets)
        if outcomes is not None:
            outcomes[id(compiled)] = (count, (time.perf_counter() - started) * 1000.0)
        return grouped

    with collector_paused(tracer):
        return _post_order(sql_package, [], run)


def _post_order(node, buckets: list[dict], run):
    """:func:`fold_package`'s walk (a module function, not a closure that
    names itself — that would be a cycle per run): a bag runs after the
    bags in its element, whose results reach it in field order — the order
    of the index leaves its ``fold`` reads them by — and joins its parent's
    ``buckets``."""
    if isinstance(node, PkgBag):
        inner: list[dict] = []
        element = _post_order(node.element, inner, run)
        buckets.append(run(node.annotation, inner))
        return PkgBag(element, buckets[-1])
    if isinstance(node, PkgRecord):
        return PkgRecord(
            tuple((label, _post_order(sub, buckets, run)) for label, sub in node.fields)
        )
    return node


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
    parallel: bool = False,
    params=None,
    connection=None,
    tracer=None,
):
    """Run all shredded queries of a package: one fold per row, children
    first (§8 "stitching in one pass", taken to the executor).

    Every statement's column table is read first (:func:`_column_tables`:
    on ``connection``, or on pooled readers with ``parallel``); then, in
    *post-order* (:func:`fold_package`), each is decoded, checked and
    folded, so when a statement's rows are folded the results of the
    statements one nesting level down are already grouped:
    :meth:`~repro.sql.codegen.CompiledSql.fold` turns each row into its
    final record — child bags included, by handing over the child's bucket
    list — and appends it under its outer key.  Returns the package with
    each bag annotation replaced by that statement's ``{outer key: [record,
    …]}`` dict (encounter order preserved; keys as
    :attr:`~repro.sql.codegen.CompiledSql.fold_source` builds them — the
    top bag's is ``(TOP_TAG, 1)``), so the nested result is the top bag's
    ⊤·1 bucket (:func:`repro.shred.stitch.stitch_grouped`) and nothing is
    decoded, grouped or walked a second time.  A table longer than
    SQLite's length limit is a :class:`BackendError` before anything is
    folded.

    ``params`` supplies host-parameter values (each statement binds the
    subset it names).  ``connection`` routes the serial read to a specific
    pooled connection — the service layer leases one per request so
    concurrent requests never contend on the writer connection; the
    parallel read manages its own pool and ignores it.

    ``stats`` and ``tracer`` (a :class:`repro.obs.Tracer`: one
    ``statement`` span per member with ``sql``/``decode`` children, where
    ``sql`` is SQLite writing the table and ``decode`` its ``json.loads``,
    check and fold) are filled in *package* order after the run, each
    statement timed on its own, so they are the same under either engine
    and any scheduling.
    """
    fetched = _column_tables(db, sql_package, stats, create_indexes, params, connection, parallel)
    tables = {id(compiled): table for compiled, table, _millis in fetched}
    outcomes: dict[int, tuple[int, float]] = {}
    results = fold_package(
        sql_package,
        lambda compiled: checked_table(compiled, tables[id(compiled)]),
        outcomes,
        tracer,
    )
    for position, (compiled, _table, sql_millis) in enumerate(fetched):
        rows, decode_millis = outcomes[id(compiled)]
        _record_statement(
            stats, tracer, rows, sql_millis + decode_millis, decode_millis, index=position
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
    """Run a package's statements in their column-table form and fold
    nothing: per statement, in package order, ``(row count, JSON bytes of
    its columns)`` exactly as SQLite wrote them — no row tuple, no record,
    no ``json.dumps`` on this side.  What a shard answers a fan-out
    coordinator with (``result: "shredded"``); the coordinator runs
    :func:`checked_table` and :func:`fold_package` over them, as the
    batched engine does in process.

    Setup, ``params``, ``connection``, ``stats`` (``rows`` is the
    wrapper's ``count(*)``), ``tracer`` and the errors as in
    :func:`execute_package_batched`.
    """
    fetched = _column_tables(db, sql_package, stats, create_indexes, params, connection)
    for position, (_compiled, table, millis) in enumerate(fetched):
        _record_statement(stats, tracer, table[0], millis, 0.0, index=position)
    return [table for _compiled, table, _millis in fetched]


# --------------------------------------------------------------------------
# Index advisement: mine the generated SQL for sort/join columns.


def ensure_compiled_indexes(db: Database, compiled: CompiledSql) -> int:
    """Create the SQLite indexes a compiled statement benefits from: one
    covering index per hint of :func:`index_hints` — searched on the hint's
    columns, carrying the rest of the table
    (:func:`~repro.backend.database.covering_columns`) — so every ``SEARCH``
    in the statement reads the index alone.

    The hints are memoised on the compiled statement and the indexes are
    ``CREATE INDEX IF NOT EXISTS`` remembered by the :class:`Database`, so
    repeat runs of a cached plan skip the AST walk and fall straight
    through to O(1) ensured-index hits.  Returns the number of indexes
    actually created.
    """
    created = 0
    for table, columns in index_hints(compiled):
        if db.ensure_index(table, columns):
            created += 1
    return created


def index_hints(compiled: CompiledSql) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The ``(table, columns)`` a compiled statement wants searched by an
    index, sorted, mined once from its SQL AST and memoised on it:

    * columns compared by ``=`` in WHERE clauses — the join columns of the
      amalgamated comprehensions;
    * columns compared with a literal or a host parameter by ``<``,
      ``<=``, ``>`` or ``>=`` — range filters (Q6's ``salary > 1000000 ∨
      salary < 1000``, ``staff_above``'s ``salary > :min_salary``): with
      an index and its ``ANALYZE`` statistics, SQLite enters the table
      through the few rows the filter keeps instead of scanning it or
      probing it once per row of another table;
    * in the flat form only, the ``ROW_NUMBER() OVER (ORDER BY …)`` column
      lists, per base table — the sort that realises ``index`` (§7).
      Key-indexed plans sort nothing, so they get no sort indexes (their
      key columns already carry the table's unique key index).
    """
    if compiled.index_hints is None:
        compiled.index_hints = tuple(sorted(_index_hints(compiled.statement)))
    return compiled.index_hints


def _ensure_package_indexes(db: Database, sql_package) -> int:
    created = 0
    for _path, compiled in annotations(sql_package):
        created += ensure_compiled_indexes(db, compiled)
    return created


#: A base-table column compared with a literal or a host parameter by one
#: of these is a range filter's, and gets an index like a join column.
_RANGE_OPS = frozenset({"<", "<=", ">", ">="})


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
                searched: tuple = ()
                if expr.op == "=":
                    searched = (expr.left, expr.right)
                elif expr.op in _RANGE_OPS:
                    pairs = ((expr.left, expr.right), (expr.right, expr.left))
                    searched = tuple(
                        side for side, other in pairs if isinstance(other, (Lit, Placeholder))
                    )
                for side in searched:
                    if isinstance(side, Col) and side.alias in alias_to_table:
                        hints.add((alias_to_table[side.alias], (side.name,)))
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
