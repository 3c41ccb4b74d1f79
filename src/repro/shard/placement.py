"""Placement policy: which tables partition across shards, and how.

A deployment of ``n`` shards assigns every base table one of two
placements:

* ``sharded(key="column")`` — the table is *horizontally partitioned*: a
  row lives on exactly one shard, chosen by a stable hash of its routing
  column.  The partitions are disjoint and their bag-union is the full
  table — the algebraic fact the whole subsystem rests on (a bag is the
  ⊎ of its partitions, and ⊎ is what the paper's multiset semantics make
  precise).
* ``replicated`` (the default) — every shard holds a full copy.

The hash is deliberately *not* Python's built-in ``hash`` (randomised per
process): shard membership must agree between a ``ShardedDatabase`` built
in one process and ``python -m repro serve --shard i/n`` servers built in
others, so :func:`shard_for` uses CRC-32 over a typed encoding.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ShardingError
from repro.nrc.schema import Schema

__all__ = [
    "Sharded",
    "REPLICATED",
    "sharded",
    "replicated",
    "Placement",
    "shard_for",
]


@dataclass(frozen=True)
class Sharded:
    """Placement marker: partition the table by ``key`` (a column name)."""

    key: str


class _Replicated:
    """Placement marker: full copy on every shard (the default)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "replicated"


#: The replicated placement marker (singleton).
REPLICATED = _Replicated()

#: Alias so placement dicts read ``{"employees": replicated}``.
replicated = REPLICATED


def sharded(key: str) -> Sharded:
    """The sharded placement marker: ``sharded(key="dept")``."""
    return Sharded(key)


def shard_for(value: object, shard_count: int) -> int:
    """The shard owning a routing-key ``value`` (stable across processes).

    Only base-typed values route (the routing column is a schema column).
    Bool is checked before int — it is a subclass, and True must not
    collide with 1's bucket by accident of encoding.
    """
    if shard_count < 1:
        raise ShardingError(f"shard count must be ≥1, got {shard_count}")
    if isinstance(value, bool):
        payload = f"b:{int(value)}"
    elif isinstance(value, int):
        payload = f"i:{value}"
    elif isinstance(value, str):
        payload = f"s:{value}"
    else:
        raise ShardingError(
            f"routing keys must be int/bool/str values, got "
            f"{type(value).__name__} ({value!r})"
        )
    return zlib.crc32(payload.encode("utf-8")) % shard_count


@dataclass(frozen=True)
class Placement:
    """A per-table placement policy (tables not named are replicated).

    Build one with :meth:`of`::

        placement = Placement.of({
            "departments": sharded(key="name"),
            "employees": replicated,          # explicit, same as omitting
        })
    """

    #: Only the sharded entries, sorted by table name (hashable).
    tables: tuple[tuple[str, Sharded], ...] = ()
    #: Copies of every logical shard: 1 = a lone primary (the pre-replica
    #: deployments), 2 = primary + one replica, and so on.  Replication
    #: never changes *row ownership* — :func:`shard_for` still maps a row
    #: to one logical shard; it changes how many endpoints serve that
    #: shard's partition (reads go to any live one, writes go to all).
    replication: int = 1
    #: Co-partitioning declarations: groups of sharded tables whose
    #: routing keys draw values from the same domain.  Because
    #: :func:`shard_for` hashes the *value* only (not the table name),
    #: declaring ``aligned=[("departments", "employees")]`` with
    #: departments sharded by ``name`` and employees by ``dept`` means a
    #: department row and every employee row referencing it land on the
    #: same shard — the fact the analysis exploits to fan out joins that
    #: would otherwise fall back to the full-copy shard.
    aligned: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ShardingError(
                f"replication factor must be ≥1, got {self.replication}"
            )
        groups = tuple(
            tuple(sorted(set(group))) for group in self.aligned
        )
        object.__setattr__(self, "aligned", tuple(sorted(groups)))
        seen: set[str] = set()
        for group in self.aligned:
            if len(group) < 2:
                raise ShardingError(
                    f"an aligned group needs ≥2 tables, got {group!r}"
                )
            for table in group:
                if not self.is_sharded(table):
                    raise ShardingError(
                        f"aligned table {table!r} is not sharded; "
                        "co-partitioning only applies to sharded tables"
                    )
                if table in seen:
                    raise ShardingError(
                        f"table {table!r} appears in two aligned groups"
                    )
                seen.add(table)

    @classmethod
    def of(
        cls,
        mapping: Mapping[str, "Sharded | _Replicated"],
        replication: int = 1,
        aligned: "Iterable[Iterable[str]]" = (),
    ) -> "Placement":
        entries = []
        for table, marker in mapping.items():
            if marker is REPLICATED:
                continue
            if not isinstance(marker, Sharded):
                raise ShardingError(
                    f"placement for table {table!r} must be sharded(key=...) "
                    f"or replicated, got {marker!r}"
                )
            entries.append((table, marker))
        return cls(
            tuple(sorted(entries)),
            replication=replication,
            aligned=tuple(tuple(group) for group in aligned),
        )

    def with_replication(self, replication: int) -> "Placement":
        """This placement with a different replication factor (the same
        tables and routing — ownership is unaffected by replication)."""
        return Placement(
            self.tables, replication=replication, aligned=self.aligned
        )

    def aligned_with(self, table: str) -> frozenset[str]:
        """The tables declared co-partitioned with ``table`` (excluding
        ``table`` itself); empty when it is in no aligned group."""
        for group in self.aligned:
            if table in group:
                return frozenset(group) - {table}
        return frozenset()

    def is_aligned(self, left: str, right: str) -> bool:
        return right in self.aligned_with(left)

    def to_spec(self) -> str:
        """A textual form ``python -m repro serve --placement`` accepts;
        round-trips through :meth:`from_spec`."""
        parts = [
            ",".join(f"{name}={marker.key}" for name, marker in self.tables)
        ]
        for group in self.aligned:
            parts.append("aligned=" + "+".join(group))
        if self.replication != 1:
            parts.append(f"replication={self.replication}")
        return ";".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "Placement":
        """Parse ``table=key,table=key;aligned=a+b;replication=N``."""
        mapping: dict[str, "Sharded | _Replicated"] = {}
        aligned: list[tuple[str, ...]] = []
        replication = 1
        for index, segment in enumerate(spec.split(";")):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("aligned="):
                group = tuple(
                    t.strip() for t in segment[len("aligned="):].split("+")
                )
                aligned.append(group)
                continue
            if segment.startswith("replication="):
                try:
                    replication = int(segment[len("replication="):])
                except ValueError:
                    raise ShardingError(
                        f"bad replication in placement spec: {segment!r}"
                    ) from None
                continue
            if index != 0:
                raise ShardingError(
                    f"unrecognised placement spec segment {segment!r}"
                )
            for entry in segment.split(","):
                entry = entry.strip()
                if not entry:
                    continue
                table, sep, key = entry.partition("=")
                if not sep or not table.strip() or not key.strip():
                    raise ShardingError(
                        f"placement spec entries look like table=column, "
                        f"got {entry!r}"
                    )
                mapping[table.strip()] = Sharded(key.strip())
        if not mapping:
            raise ShardingError(
                f"placement spec {spec!r} shards no table — expected "
                f"'table=column[,table=column…][;aligned=a+b][;replication=N]'"
            )
        return cls.of(mapping, replication=replication, aligned=aligned)

    @property
    def sharded_tables(self) -> tuple[str, ...]:
        return tuple(name for name, _marker in self.tables)

    def is_sharded(self, table: str) -> bool:
        return any(name == table for name, _marker in self.tables)

    def routing_column(self, table: str) -> Optional[str]:
        """The routing column of ``table``, or None when replicated."""
        for name, marker in self.tables:
            if name == table:
                return marker.key
        return None

    def validate(self, schema: Schema) -> "Placement":
        """Check every sharded table and routing column against ``schema``."""
        for name, marker in self.tables:
            if name not in schema:
                raise ShardingError(
                    f"placement shards unknown table {name!r}"
                )
            table_schema = schema.table(name)
            if marker.key not in table_schema.column_names:
                raise ShardingError(
                    f"table {name!r} has no routing column {marker.key!r}; "
                    f"columns: {', '.join(table_schema.column_names)}"
                )
        return self

    def owner_fn(
        self, shard_count: int
    ) -> Callable[[str, Mapping[str, object]], Optional[int]]:
        """The row-ownership function :meth:`Database.partitioned` takes:
        ``(table, row) → shard index`` for sharded tables, None for
        replicated ones."""
        columns = dict(self.tables)

        def owner(table: str, row: Mapping[str, object]) -> Optional[int]:
            marker = columns.get(table)
            if marker is None:
                return None
            try:
                value = row[marker.key]
            except KeyError:
                raise ShardingError(
                    f"row for sharded table {table!r} is missing its "
                    f"routing column {marker.key!r}"
                ) from None
            return shard_for(value, shard_count)

        return owner

    def route_rows(
        self, table: str, rows: "list[dict]", shard_count: int
    ) -> "dict[int, list[dict]]":
        """Which shard receives which of ``rows``, in ascending shard
        order: a sharded table's rows go to their owners only (a shard
        that owns none is absent, so an insert never touches it), a
        replicated table's rows to every shard."""
        if self.routing_column(table) is None:
            return {index: rows for index in range(shard_count)}
        owner = self.owner_fn(shard_count)
        groups: dict = {}
        for row in rows:
            groups.setdefault(owner(table, row), []).append(row)
        return dict(sorted(groups.items()))
