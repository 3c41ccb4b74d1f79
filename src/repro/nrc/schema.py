"""Table signatures Σ(t) (§2.1).

Tables are constrained to *flat relation* types ``Bag ⟨ℓ₁:O₁, …, ℓₙ:Oₙ⟩``.
Each table additionally declares a *key* — a set of columns whose values are
unique per row.  Keys drive the *natural* indexing scheme (§6.1) and the
"use keys for row numbering" optimisation (§8); the paper assumes every
table has an integer-valued key ``id``.

A table may also declare *references* (SQL's ``FOREIGN KEY``): column ``c``
references ``t.p`` when every value of ``c`` occurs in column ``p`` of
table ``t``.  The referenced column need not be unique.  A reference is a
declaration, never inferred from the rows: the shredder pins a nested bag
to its join column where a reference makes that lossless (see
:func:`repro.pipeline.shredder.decide_edges`), and a store whose rows break
one only reads rows no parent asks for — the answer stays exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.errors import BackendError, UnknownTableError
from repro.nrc.types import BagType, BaseType, RecordType, Type

__all__ = ["TableSchema", "Schema"]


@dataclass(frozen=True)
class TableSchema:
    """Schema of a single flat table."""

    name: str
    columns: tuple[tuple[str, BaseType], ...]
    key: tuple[str, ...] = ()
    #: ``(column, "table.column")`` pairs: this table's ``column`` references
    #: the other one (every value of it occurs there).
    references: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        names = [column for column, _ in self.columns]
        if len(set(names)) != len(names):
            raise BackendError(f"table {self.name!r}: duplicate columns {names}")
        for key_column in self.key:
            if key_column not in names:
                raise BackendError(
                    f"table {self.name!r}: key column {key_column!r} "
                    f"is not a column"
                )
        for column, target in self.references:
            if column not in names or target.count(".") != 1:
                raise BackendError(
                    f"table {self.name!r}: bad reference {column!r} → {target!r}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column for column, _ in self.columns)

    @property
    def key_columns(self) -> tuple[str, ...]:
        """The declared key, or all columns when none was declared.

        Using all columns as the key is only correct under set semantics
        (as in Van den Bussche's simulation); the natural indexing scheme
        over bags requires a declared key (§6.1).
        """
        return self.key if self.key else self.column_names

    @property
    def has_declared_key(self) -> bool:
        return bool(self.key)

    def column_type(self, column: str) -> BaseType:
        for name, ctype in self.columns:
            if name == column:
                return ctype
        raise BackendError(f"table {self.name!r} has no column {column!r}")

    @property
    def row_type(self) -> RecordType:
        """The record type of one row."""
        return RecordType(self.columns)

    @property
    def bag_type(self) -> BagType:
        """Σ(t): the flat relation type ``Bag ⟨…⟩`` of the table."""
        return BagType(self.row_type)


@dataclass(frozen=True)
class Schema:
    """A database schema Σ: a collection of flat tables."""

    tables: tuple[TableSchema, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [table.name for table in self.tables]
        if len(set(names)) != len(names):
            raise BackendError(f"duplicate table names: {names}")
        for table in self.tables:
            for column, target in table.references:
                target_table, target_column = target.split(".")
                referenced = (
                    dict(self.table(target_table).columns) if target_table in names else {}
                )
                if referenced.get(target_column) != table.column_type(column):
                    raise BackendError(
                        f"table {table.name!r}: {column!r} cannot reference "
                        f"{target!r} (no such column of the same type)"
                    )

    def table(self, name: str) -> TableSchema:
        for table in self.tables:
            if table.name == name:
                return table
        raise UnknownTableError(name)

    def __contains__(self, name: str) -> bool:
        return any(table.name == name for table in self.tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(table.name for table in self.tables)

    def signature(self, name: str) -> Type:
        """Σ(t): the type of ``table t``."""
        return self.table(name).bag_type

    def without_references(self) -> "Schema":
        """Σ with every reference dropped (memoised; ``self`` when it
        declares none) — what a store holding a slice of the data compiles
        under, since a slice need not keep a reference."""
        cached = getattr(self, "_unreferenced", None)
        if cached is None:
            cached = self
            if any(table.references for table in self.tables):
                cached = Schema(
                    tuple(replace(table, references=()) for table in self.tables)
                )
            object.__setattr__(self, "_unreferenced", cached)
        return cached

    def fingerprint(self) -> str:
        """A memoised structural hash of Σ (hex digest).

        Two schemas share a fingerprint iff they declare the same tables
        with the same columns, column types, keys and references, in the
        same order.
        Part of the plan-cache key: a plan compiled under one schema is
        never served under another.
        """
        cached = getattr(self, "_structural_fp", None)
        if cached is not None:
            return cached
        tokens = []
        for table in self.tables:
            columns = ",".join(
                f"{name}:{ctype.name}" for name, ctype in table.columns
            )
            token = f"{table.name}({columns})key[{','.join(table.key)}]"
            if table.references:
                token += "ref[" + ",".join(f"{c}>{t}" for c, t in table.references) + "]"
            tokens.append(token)
        digest = hashlib.sha256(";".join(tokens).encode()).hexdigest()
        object.__setattr__(self, "_structural_fp", digest)
        return digest
