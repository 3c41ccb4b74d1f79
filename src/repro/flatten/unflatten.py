"""Value unflattening (−)≺ (App. E) — rebuild nested records from rows.

Given the flat shredded type F of a query's *item* part and a raw SQL row,
reconstruct the record value, turning (tag, dyn…) column groups back into
index values (:class:`~repro.shred.indexes.FlatIndex` /
:class:`~repro.shred.indexes.NaturalIndex`).  Prop. 30: flattening then
unflattening is the identity — exercised by the round-trip tests.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import FlatteningError
from repro.flatten.flatten import (
    FlatColumn,
    KIND_BASE,
    KIND_INDEX_DYN,
    KIND_INDEX_TAG,
    WidthFn,
)
from repro.nrc.types import BOOL, BaseType, RecordType, Type
from repro.shred.indexes import FlatIndex, NaturalIndex
from repro.shred.shred_types import IndexType
from repro.shred.shredded_ast import TOP_TAG

__all__ = ["unflatten_value", "flatten_value", "decode_base"]


def decode_base(value: object, base: BaseType) -> object:
    """Decode one SQL cell into a Python base value."""
    if base == BOOL:
        return bool(value)
    return value


def unflatten_value(
    f: Type,
    cells: Mapping[str, object],
    index_width: WidthFn = 1,
    natural: bool = False,
) -> object:
    """Rebuild the nested value of type ``f`` from named cells.

    ``cells`` maps flattened column names to raw SQL values.  With
    ``natural=True``, index columns decode to :class:`NaturalIndex`
    (dropping NULL padding); otherwise to :class:`FlatIndex`.  The
    top-level context is the literal ⊤·1 — ``FlatIndex(⊤, 1)`` — in both.
    """
    return _build(f, (), cells, index_width, natural)


def _build(
    f: Type,
    path: tuple[str, ...],
    cells: Mapping[str, object],
    index_width: WidthFn,
    natural: bool,
) -> object:
    if isinstance(f, IndexType):
        tag_name = FlatColumn(path, KIND_INDEX_TAG).name
        tag = cells[tag_name]
        width = index_width if isinstance(index_width, int) else index_width(path)
        dyns = [
            cells[FlatColumn(path, KIND_INDEX_DYN, dyn_position=i).name]
            for i in range(1, width + 1)
        ]
        if natural and tag != TOP_TAG:
            return NaturalIndex(str(tag), tuple(d for d in dyns if d is not None))
        if width != 1:
            raise FlatteningError("flat indexes have exactly one dynamic column")
        return FlatIndex(str(tag), int(dyns[0]))
    if isinstance(f, BaseType):
        name = FlatColumn(path, KIND_BASE, base=f).name
        return decode_base(cells[name], f)
    if isinstance(f, RecordType):
        return {
            label: _build(ftype, path + (label,), cells, index_width, natural)
            for label, ftype in f.fields
        }
    raise FlatteningError(f"cannot unflatten non-flat type {f}")


def flatten_value(
    f: Type, value: object, index_width: WidthFn = 1
) -> dict[str, object]:
    """The inverse direction (used by tests for the Prop. 30 round-trip):
    flatten a nested value of type ``f`` into named cells."""
    cells: dict[str, object] = {}

    def go(ftype: Type, path: tuple[str, ...], v: object) -> None:
        if isinstance(ftype, IndexType):
            tag_col = FlatColumn(path, KIND_INDEX_TAG).name
            width = (
                index_width if isinstance(index_width, int) else index_width(path)
            )
            if isinstance(v, FlatIndex):
                dyns: Sequence[object] = [v.position]
                cells[tag_col] = v.tag
            elif isinstance(v, NaturalIndex):
                dyns = list(v.keys) + [None] * (width - len(v.keys))
                cells[tag_col] = v.tag
            else:
                raise FlatteningError(f"not an index value: {v!r}")
            for i, dyn in enumerate(dyns, start=1):
                cells[FlatColumn(path, KIND_INDEX_DYN, dyn_position=i).name] = dyn
            return
        if isinstance(ftype, BaseType):
            cells[FlatColumn(path, KIND_BASE, base=ftype).name] = v
            return
        if isinstance(ftype, RecordType):
            if not isinstance(v, dict):
                raise FlatteningError(f"expected record value, got {v!r}")
            for label, sub in ftype.fields:
                go(sub, path + (label,), v[label])
            return
        raise FlatteningError(f"cannot flatten non-flat type {ftype}")

    go(f, (), value)
    return cells
