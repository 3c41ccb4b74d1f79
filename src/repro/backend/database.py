"""In-memory + SQLite database substrate (§8 experimental setup).

A :class:`Database` holds a :class:`~repro.nrc.schema.Schema` and the rows of
each table.  It serves two roles:

* the fixed table interpretation ⟦t⟧ for the in-memory semantics — the paper
  imposes a *canonical row order* ("we order by all of the columns arranged
  in lexicographic order", §2.1) so that ``row_number`` is deterministic;
* a materialised SQLite database for executing the generated SQL.  Every
  engine reads a statement as the column table JSON1's
  ``json_group_array`` writes, so a SQLite built without JSON1 cannot
  serve: building the connection checks for it first (at construction
  for a durable store, on first use for an in-memory one) and raises
  :class:`~repro.errors.MissingSqlFunctionError` before any statement.

The paper ran PostgreSQL 9.2; we substitute SQLite (see DESIGN.md §3): both
engines support the SQL:1999 features the translation targets.

Two storage modes share one interface:

* **memory** (default) — a named shared-cache in-memory store, rebuilt
  from ``_rows`` on demand; data dies with the process;
* **durable** (``path=``) — an on-disk SQLite file in WAL mode.  Writes
  go to the file *first* (rows + idempotency journal in one
  transaction), then to the in-memory interpretation, so a crash between
  the two can lose at most an acknowledgement, never an acknowledged
  row.  On open, a non-empty file is snapshotted back into ``_rows``
  (``recovered`` is set) — a supervisor-restarted shard resumes from its
  pre-crash contents instead of its seed.

Every insert may carry an **idempotency key**: a key already present in
the journal (``repro_applied_writes`` on disk, an in-process set in
memory mode) makes the insert a no-op returning ``False`` — at-least-once
delivery from retrying clients becomes exactly-once application.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sqlite3
import threading
import time
from typing import Iterable, Mapping, Sequence

from repro.errors import BackendError, MissingSqlFunctionError
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.types import BOOL, BaseType

__all__ = ["Database", "covering_columns", "quote_identifier"]


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (double quotes, doubling embedded quotes)."""
    return '"' + name.replace('"', '""') + '"'


_SQL_TYPES = {"Int": "INTEGER", "Bool": "INTEGER", "String": "TEXT", "Unit": "INTEGER"}


def _sql_type(base: BaseType) -> str:
    try:
        return _SQL_TYPES[base.name]
    except KeyError:
        raise BackendError(f"no SQL column type for base type {base}") from None


def _to_sql_value(value: object, ctype: BaseType) -> object:
    if ctype == BOOL:
        return 1 if value else 0
    return value


def _from_sql_value(value: object, ctype: BaseType) -> object:
    if ctype == BOOL:
        return bool(value)
    return value


#: On-disk journal of applied idempotency keys (durable mode).  Lives in
#: the same file as the data so "rows applied" and "key recorded" commit
#: atomically; the name is reserved and never appears in a Schema.
_JOURNAL_TABLE = "repro_applied_writes"
_JOURNAL_DDL = (
    f"CREATE TABLE IF NOT EXISTS {_JOURNAL_TABLE} "
    "(key TEXT PRIMARY KEY, at REAL)"
)


class Database:
    """A schema plus table contents, queryable in memory and via SQLite."""

    def __init__(
        self,
        schema: Schema,
        tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
        path: str | os.PathLike | None = None,
    ) -> None:
        self.schema = schema
        self._path = os.fspath(path) if path is not None else None
        #: True iff a durable store was opened non-empty: ``tables`` seed
        #: data is then ignored — the file is the surviving truth.
        self.recovered = False
        #: Idempotency keys already applied (mirrors the on-disk journal
        #: in durable mode; purely in-process for memory stores).
        self._applied: set[str] = set()
        self._rows: dict[str, list[dict]] = {
            table.name: [] for table in schema.tables
        }
        self._canonical: dict[str, list[dict]] = {}
        self._connection: sqlite3.Connection | None = None
        self._memory_uri: str | None = None
        self._read_pool: list[sqlite3.Connection] = []
        self._dedicated_readers: list[sqlite3.Connection] = []
        #: Advisory index hint ``(table, columns)`` → its ``CREATE INDEX``.
        self._ensured_indexes: dict[tuple[str, tuple[str, ...]], str] = {}
        self._stats_stale = False
        # Serialises connection building, index DDL, ANALYZE and pool
        # growth: the service layer drives this object from many handler
        # threads at once.  Reentrant — ensure_index / refresh_statistics
        # call connection() while holding it.
        self._setup_lock = threading.RLock()
        if self._path is not None:
            # Open (and if present, recover) the file before any seed
            # insert: a restarted shard must not re-apply its seed on top
            # of the rows it wrote before the crash.
            self.connection()
            self.recovered = self.total_rows() > 0
            if self.recovered:
                return
        if tables:
            for name, rows in tables.items():
                self.insert(name, rows)

    # ------------------------------------------------------------------ rows

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> bool:
        """Insert ``rows`` into ``table`` (validated against the schema).

        A live SQLite connection is updated incrementally (one
        ``executemany`` of the new rows) rather than rebuilt from scratch,
        so interleaving inserts and queries costs O(new rows), not
        O(database).

        ``idempotency_key`` makes the insert safe to re-deliver: a key the
        store has already applied turns the call into a no-op returning
        ``False`` (exactly-once application under at-least-once delivery).
        Durable stores commit the rows and the journal entry in one
        transaction, so the dedup survives a crash-restart.
        """
        table_schema = self.schema.table(table)
        expected = set(table_schema.column_names)
        added: list[dict] = []
        for row in rows:
            if set(row) != expected:
                raise BackendError(
                    f"row for table {table!r} has columns {sorted(row)}, "
                    f"expected {sorted(expected)}"
                )
            added.append(dict(row))
        with self._setup_lock:
            if idempotency_key is not None and idempotency_key in self._applied:
                return False
            if self._path is not None:
                self._insert_durable(table_schema, added, idempotency_key)
            else:
                self._insert_memory(table_schema, added)
            if idempotency_key is not None:
                self._applied.add(idempotency_key)
        return True

    def _insert_memory(
        self, table_schema: TableSchema, added: list[dict]
    ) -> None:
        """Memory-mode apply: ``_rows`` is the truth, SQLite follows."""
        self._rows[table_schema.name].extend(added)
        self._canonical.pop(table_schema.name, None)
        if not added:
            return
        if self._ensured_indexes:
            self._stats_stale = True  # table sizes shifted under ANALYZE
        if self._connection is None:
            return

        def apply() -> None:
            # A prior attempt may have died between executemany and
            # commit; clear the open transaction so a retry cannot
            # stack the rows twice (rollback is a no-op when clean).
            self._connection.rollback()
            self._insert_into_connection(
                self._connection, table_schema, added
            )
            self._connection.commit()

        try:
            # Briefly retry on shared-cache lock contention (a leased
            # reader mid-statement): disposing would close pooled
            # connections other threads are still using.
            self._retry_locked(apply)
        except sqlite3.Error:
            # e.g. a declared-key violation: fall back to the lazy
            # rebuild, which re-raises at the next query (as a
            # BackendError) exactly like a cold connection would.
            self._dispose_connection()

    def _insert_durable(
        self,
        table_schema: TableSchema,
        added: list[dict],
        idempotency_key: str | None,
    ) -> None:
        """Durable-mode apply, file first: rows + journal entry commit in
        one transaction; only then does the in-memory interpretation
        advance.  A failure leaves both sides on the pre-insert state
        (and raises), so memory and file can never diverge."""
        connection = self.connection()

        def apply() -> None:
            connection.rollback()
            if added:
                self._insert_into_connection(connection, table_schema, added)
            if idempotency_key is not None:
                connection.execute(
                    f"INSERT INTO {_JOURNAL_TABLE} (key, at) VALUES (?, ?)",
                    (idempotency_key, time.time()),
                )
            connection.commit()

        try:
            self._retry_locked(apply)
        except sqlite3.Error as error:
            raise BackendError(
                f"durable insert into {table_schema.name!r} failed: {error}"
            ) from error
        if not added:
            return
        self._rows[table_schema.name].extend(added)
        self._canonical.pop(table_schema.name, None)
        if self._ensured_indexes:
            self._stats_stale = True

    def partitioned(self, owner, shard_index: int) -> "Database":
        """Partitioned loading: a fresh :class:`Database` over the same
        schema, holding only the rows shard ``shard_index`` serves.

        ``owner(table_name, row)`` returns the owning shard index for a
        row of a *sharded* table, or ``None`` for tables replicated to
        every shard (the :mod:`repro.shard` placement policy provides this
        function).  Rows are copied, so the partition owns its data: a
        later :meth:`insert` on either database never aliases the other's
        canonical-order caches.
        """
        tables: dict[str, list[dict]] = {}
        for table_schema in self.schema.tables:
            name = table_schema.name
            kept: list[dict] = []
            for row in self._rows[name]:
                target = owner(name, row)
                if target is None or target == shard_index:
                    kept.append(row)  # Database.insert copies each row
            tables[name] = kept
        return Database(self.schema, tables)

    def partition_all(self, owner, shard_count: int) -> "list[Database]":
        """All ``shard_count`` partitions, each over this store's schema,
        in **one** pass over the rows.

        Equivalent to ``[self.partitioned(owner, i) for i in range(n)]``
        but each sharded row is ownership-hashed exactly once —
        :class:`repro.shard.deployment.ShardedDatabase` builds its whole
        deployment this way; :meth:`partitioned` stays the single-slice
        path (``serve --shard i/n`` wants one partition without paying
        for the others).
        """
        buckets: list[dict[str, list[dict]]] = [
            {table.name: [] for table in self.schema.tables}
            for _ in range(shard_count)
        ]
        for table_schema in self.schema.tables:
            name = table_schema.name
            for row in self._rows[name]:
                target = owner(name, row)
                if target is None:
                    for bucket in buckets:
                        bucket[name].append(row)
                else:
                    buckets[target][name].append(row)
        return [Database(self.schema, bucket) for bucket in buckets]

    def raw_rows(self, table: str) -> list[dict]:
        """Rows in insertion order (no canonicalisation).

        The returned list is fresh, but the row dicts are the live stored
        rows — treat them as **read-only** (they are shared with every
        other reader and with the canonical order cache).
        """
        self.schema.table(table)
        return list(self._rows[table])

    def rows(self, table: str) -> list[dict]:
        """⟦t⟧: rows in the canonical order (all columns, lexicographic).

        This is the deterministic list interpretation of tables from §2.1;
        both the in-memory semantics and ``row_number`` generation rely on
        it.  The canonical list is computed once per table and the *same*
        list (and row dicts) is returned on every call — callers must
        treat it as **read-only**.  Mutating the database goes through
        :meth:`insert`, which invalidates the cache.
        """
        cached = self._canonical.get(table)
        if cached is None:
            table_schema = self.schema.table(table)
            columns = sorted(table_schema.column_names)
            cached = sorted(
                self._rows[table],
                key=lambda row: tuple(_sort_key(row[c]) for c in columns),
            )
            self._canonical[table] = cached
        return cached

    def row_count(self, table: str) -> int:
        self.schema.table(table)
        return len(self._rows[table])

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    # --------------------------------------------------------------- sqlite

    def connection(self) -> sqlite3.Connection:
        """A SQLite connection with all tables materialised (cached)."""
        if self._connection is None:
            with self._setup_lock:
                if self._connection is None:
                    self._connection = self._build_connection()
        return self._connection

    def _build_connection(self) -> sqlite3.Connection:
        if self._path is not None:
            return self._build_durable_connection()
        # A *named* shared-cache in-memory database instead of a private
        # ":memory:" one: extra read-only connections (the parallel
        # executor's pool) can attach to the same store by URI.  The store
        # lives while at least one connection is open — the cached writer
        # connection anchors it.  Each build gets a fresh name so a
        # disposed-and-rebuilt connection never sees stale tables through
        # pool connections that outlived the disposal.
        self._memory_uri = (
            f"file:repro-mem-{os.getpid()}-{next(_MEMORY_NAMES)}"
            f"?mode=memory&cache=shared"
        )
        connection = _require_json1(
            sqlite3.connect(self._memory_uri, uri=True, check_same_thread=False)
        )
        for table_schema in self.schema.tables:
            self._create_table(connection, table_schema)
            self._load_table(connection, table_schema)
        for ddl in self._ensured_indexes.values():
            connection.execute(ddl)
        if self._ensured_indexes:
            self._stats_stale = True
        connection.commit()
        return connection

    def _build_durable_connection(self) -> sqlite3.Connection:
        """Open (creating if absent) the on-disk store at ``self._path``.

        WAL keeps readers unblocked by the writer (the lease pool reads
        while inserts commit); ``synchronous=NORMAL`` is WAL's standard
        durability point — a commit survives a process kill, which is the
        failure the supervisor injects.  A non-empty file *snapshots back*
        into ``_rows`` so the in-memory semantics and ``row_number``
        canonicalisation see the recovered contents.
        """
        connection = _require_json1(
            sqlite3.connect(self._path, check_same_thread=False)
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(_JOURNAL_DDL)
        for table_schema in self.schema.tables:
            self._create_table(connection, table_schema, if_not_exists=True)
        self._applied = {
            key
            for (key,) in connection.execute(
                f"SELECT key FROM {_JOURNAL_TABLE}"
            )
        }
        if self.total_rows() == 0:
            # Fresh object over an existing file: recover the snapshot.
            for table_schema in self.schema.tables:
                self._rows[table_schema.name] = self._read_table(
                    connection, table_schema
                )
                self._canonical.pop(table_schema.name, None)
        else:
            # Rebuild after disposal (or first open of a fresh file) with
            # rows already in memory: write-through any table the file
            # does not hold yet; tables present on disk are already in
            # sync (durable inserts commit to the file first).
            for table_schema in self.schema.tables:
                name = quote_identifier(table_schema.name)
                (count,) = connection.execute(
                    f"SELECT COUNT(*) FROM {name}"
                ).fetchone()
                if count == 0:
                    self._load_table(connection, table_schema)
        for ddl in self._ensured_indexes.values():
            connection.execute(ddl)
        if self._ensured_indexes:
            self._stats_stale = True
        connection.commit()
        return connection

    def _read_table(
        self, connection: sqlite3.Connection, table_schema: TableSchema
    ) -> list[dict]:
        """All rows of ``table_schema`` as typed dicts (recovery load)."""
        names = table_schema.column_names
        column_list = ", ".join(quote_identifier(name) for name in names)
        cursor = connection.execute(
            f"SELECT {column_list} FROM {quote_identifier(table_schema.name)}"
        )
        types = dict(table_schema.columns)
        return [
            {
                name: _from_sql_value(value, types[name])
                for name, value in zip(names, row)
            }
            for row in cursor
        ]

    def _create_table(
        self,
        connection: sqlite3.Connection,
        table_schema: TableSchema,
        if_not_exists: bool = False,
    ) -> None:
        columns = ", ".join(
            f"{quote_identifier(name)} {_sql_type(ctype)}"
            for name, ctype in table_schema.columns
        )
        guard = "IF NOT EXISTS " if if_not_exists else ""
        ddl = (
            f"CREATE TABLE {guard}"
            f"{quote_identifier(table_schema.name)} ({columns})"
        )
        connection.execute(ddl)
        if table_schema.has_declared_key:
            key_cols = ", ".join(
                quote_identifier(c) for c in table_schema.key_columns
            )
            connection.execute(
                f"CREATE UNIQUE INDEX {guard}"
                f"{quote_identifier('key_' + table_schema.name)} "
                f"ON {quote_identifier(table_schema.name)} ({key_cols})"
            )

    def _load_table(
        self, connection: sqlite3.Connection, table_schema: TableSchema
    ) -> None:
        rows = self._rows[table_schema.name]
        if rows:
            self._insert_into_connection(connection, table_schema, rows)

    @staticmethod
    def _insert_into_connection(
        connection: sqlite3.Connection,
        table_schema: TableSchema,
        rows: Sequence[Mapping[str, object]],
    ) -> None:
        names = table_schema.column_names
        placeholders = ", ".join("?" for _ in names)
        column_list = ", ".join(quote_identifier(name) for name in names)
        statement = (
            f"INSERT INTO {quote_identifier(table_schema.name)} "
            f"({column_list}) VALUES ({placeholders})"
        )
        types = dict(table_schema.columns)
        connection.executemany(
            statement,
            (
                tuple(_to_sql_value(row[name], types[name]) for name in names)
                for row in rows
            ),
        )

    def execute_sql(self, sql: str, params: Sequence[object] = ()) -> list[tuple]:
        """Run a query against the SQLite materialisation; returns raw rows."""
        return self.execute_cursor(sql, params).fetchall()

    def execute_cursor(
        self,
        sql: str,
        params: Sequence[object] | Mapping[str, object] = (),
        connection: sqlite3.Connection | None = None,
    ) -> sqlite3.Cursor:
        """Run a query, returning the live cursor.

        ``connection`` routes the query to a specific (pooled) connection;
        default is the shared writer connection.
        """
        try:
            target = connection if connection is not None else self.connection()
            # Named host parameters bind as a mapping; positional as a tuple.
            bound = params if isinstance(params, Mapping) else tuple(params)
            return target.execute(sql, bound)
        except sqlite3.Error as error:
            raise BackendError(f"SQL execution failed: {error}\n{sql}") from error

    def ensure_index(self, table: str, columns: Sequence[str]) -> bool:
        """Create the advisory index for a hint on ``table(columns)`` if
        not present: a *covering* index, searched on ``columns`` and
        carrying every other column of the table
        (:func:`covering_columns`), so a lookup through it never seeks the
        table row.

        Ensured indexes are remembered per hint: repeat calls are O(1)
        dict hits, and a connection rebuilt after disposal recreates them.
        Unknown tables/columns are ignored (the statement may reference
        CTE aliases).  Returns True iff an index was actually created.
        """
        key = (table, tuple(columns))
        if key in self._ensured_indexes:
            return False
        covered = covering_columns(self.schema, *key)
        if covered is None:
            return False
        with self._setup_lock:
            if key in self._ensured_indexes:
                return False
            # The covered columns are in the name, so a store file that
            # holds a narrower index for this hint still gets this one.
            digest = hashlib.sha1(repr((key, covered)).encode()).hexdigest()[:12]
            ddl = _index_ddl(f"qsidx_{table}_{digest}", table, covered)
            try:
                self.connection().execute(ddl)
            except sqlite3.OperationalError as error:
                if _is_locked(error):
                    # A concurrent leased reader has an active statement;
                    # shared-cache DDL cannot take the schema lock.  The
                    # index is advisory — skip now, a later run retries.
                    return False
                raise
            self._ensured_indexes[key] = ddl
            self._stats_stale = True
            return True

    def refresh_statistics(self) -> bool:
        """Run ``ANALYZE`` if statistics went stale since the last run —
        new indexes, new rows, or a connection rebuilt from scratch.

        SQLite's planner only prefers the advisory indexes once statistics
        exist (the difference is order-of-magnitude on the correlated
        NOT-EXISTS probes), so the batched executor calls this after
        ensuring indexes.  A no-op when statistics are current; returns
        True iff ANALYZE actually ran.
        """
        with self._setup_lock:
            if self._ensured_indexes:
                # Force the (re)build *before* consulting the flag: a
                # rebuilt connection replays the indexes and marks
                # statistics stale.
                self.connection()
            if not self._stats_stale:
                return False
            try:
                self.connection().execute("ANALYZE")
            except sqlite3.OperationalError as error:
                if _is_locked(error):
                    # Statistics are an optimisation; stay stale and let a
                    # quieter run refresh them.
                    return False
                raise
            self._stats_stale = False
            return True

    def read_connections(self, count: int) -> list[sqlite3.Connection]:
        """``count`` pooled read-only connections to the live materialisation.

        The pool shares the writer connection's in-memory store (named
        shared-cache URI), so committed writes — table loads, advisory
        indexes, ANALYZE statistics — are visible to every reader.  Readers
        are created lazily, reused across calls, and opened with ``PRAGMA query_only=ON`` so a
        mis-routed statement cannot mutate the database.  Each connection
        is intended for *exclusive* use by one thread at a time (the
        parallel executor checks one out per worker); SQLite itself runs
        in serialized threading mode.
        """
        if count < 1:
            raise BackendError(f"pool size must be ≥1, got {count}")
        with self._setup_lock:
            self.connection()  # materialise (and pin the URI) first
            while len(self._read_pool) < count:
                self._read_pool.append(self._open_reader())
            return self._read_pool[:count]

    def dedicated_read_connections(self, count: int) -> list[sqlite3.Connection]:
        """``count`` fresh read-only connections *outside* the shared pool.

        The service layer leases these one-per-request: unlike
        :meth:`read_connections` (whose pool prefix every parallel-engine
        run reuses), dedicated readers are owned by the caller, so no other
        executor can stripe work onto a connection a request currently
        holds.  They are still closed by :meth:`_dispose_connection`.
        """
        if count < 1:
            raise BackendError(f"pool size must be ≥1, got {count}")
        with self._setup_lock:
            self.connection()
            readers = [self._open_reader() for _ in range(count)]
            self._dedicated_readers.extend(readers)
            return readers

    def release_dedicated_reader(self, connection: sqlite3.Connection) -> None:
        """Close one dedicated reader and forget it (lease retirement)."""
        with self._setup_lock:
            try:
                connection.close()
            except sqlite3.Error:
                pass
            try:
                self._dedicated_readers.remove(connection)
            except ValueError:
                pass  # already disposed with the store

    def _open_reader(self) -> sqlite3.Connection:
        if self._path is not None:
            # Durable stores hand readers their own file connection: WAL
            # lets them read the last committed snapshot while the writer
            # commits, and query_only guards them exactly like the
            # shared-cache readers below.
            reader = sqlite3.connect(self._path, check_same_thread=False)
        else:
            reader = sqlite3.connect(
                self._memory_uri, uri=True, check_same_thread=False
            )
        reader.execute("PRAGMA query_only=ON")
        return reader

    @property
    def pool_size(self) -> int:
        """How many pooled read connections are currently open."""
        return len(self._read_pool)

    def _retry_locked(self, action, timeout: float = 2.0) -> None:
        """Run ``action`` retrying on SQLITE_LOCKED (shared-cache schema
        locks held by in-flight reader statements clear in milliseconds)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                action()
                return
            except (sqlite3.OperationalError, BackendError) as error:
                cause = error.__cause__ if isinstance(error, BackendError) else error
                if not _is_locked(cause) or time.monotonic() > deadline:
                    raise
            time.sleep(0.002)

    def _dispose_connection(self) -> None:
        for reader in self._read_pool:
            reader.close()
        self._read_pool.clear()
        for reader in self._dedicated_readers:
            reader.close()
        self._dedicated_readers.clear()
        if self._connection is not None:
            self._connection.close()
            self._connection = None
            self._memory_uri = None

    # --------------------------------------------------------------- helpers

    def decode_row(self, table: str, values: Sequence[object]) -> dict:
        """Convert a raw SQLite row of ``table`` back to a typed dict."""
        table_schema = self.schema.table(table)
        return {
            name: _from_sql_value(value, ctype)
            for (name, ctype), value in zip(table_schema.columns, values)
        }


#: Process-unique suffixes for shared-cache memory database names.
_MEMORY_NAMES = itertools.count()


def _require_json1(connection: sqlite3.Connection) -> sqlite3.Connection:
    """``connection``, once it has JSON1's ``json_group_array`` — what
    every engine's column tables are written with; else it is closed and
    the store refuses to open."""
    try:
        connection.execute("SELECT json_group_array(1)").fetchone()
    except sqlite3.OperationalError as error:
        connection.close()
        raise MissingSqlFunctionError(
            f"this store's SQLite has no json_group_array ({error}): every "
            "engine reads its statements as JSON1 column tables, so build "
            "SQLite with JSON1 (any SQLite >= 3.38 has it)"
        ) from error
    return connection


def _is_locked(error: object) -> bool:
    """True for SQLITE_LOCKED/SQLITE_BUSY — shared-cache lock contention
    (not retried by the busy timeout), as opposed to real failures."""
    return isinstance(error, sqlite3.OperationalError) and "locked" in str(error)


def covering_columns(
    schema: Schema, table: str, columns: Sequence[str]
) -> tuple[str, ...] | None:
    """The columns of the advisory index for a hint on ``table(columns)``:
    the hint's columns first — the search key — then every other column of
    the table in table order.  Tables are loaded once and a few columns
    wide, so the index is in effect a clustered copy of the table: a lookup
    through it never seeks the table row, whatever the statement projects,
    and nobody tracks which columns each statement reads.  ``None`` when
    ``table`` is not in ``schema`` (a CTE alias) or the hint names no column
    or one the table lacks.

    :meth:`Database.ensure_index` builds this index and the QS301
    diagnostic prints it, so the two cannot drift."""
    if table not in schema:
        return None
    known = schema.table(table).column_names
    hint = tuple(columns)
    if not hint or any(column not in known for column in hint):
        return None
    return hint + tuple(column for column in known if column not in hint)


def _index_ddl(name: str, table: str, columns: Sequence[str]) -> str:
    column_list = ", ".join(quote_identifier(column) for column in columns)
    return (
        f"CREATE INDEX IF NOT EXISTS {quote_identifier(name)} "
        f"ON {quote_identifier(table)} ({column_list})"
    )


def _sort_key(value: object) -> tuple:
    """Total order across SQL base values (bools sort as ints)."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, repr(value))
