"""The loop-lifting pipeline: compile → (mini-)Pathfinder → SQL → execute
→ surrogate stitching.  Interface mirrors
:class:`repro.pipeline.shredder.ShreddingPipeline` so benchmarks can swap
systems."""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.baselines.looplifting.compile import LevelPlan, compile_levels
from repro.baselines.looplifting.pathfinder import (
    deserialise,
    optimise,
    serialise,
)
from repro.baselines.looplifting.sqlgen import render_level_sql
from repro.errors import ShreddingError
from repro.flatten.unflatten import decode_base
from repro.normalise import normalise
from repro.normalise.normal_form import nf_result_type
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.types import BagType, BaseType, RecordType, Type, is_nested
from repro.shred.paths import Path
from repro.shred.shred_types import IndexType
from repro.values import NestedValue

__all__ = ["LoopLiftingPipeline", "CompiledLoopLifted", "loop_lift_run"]


@dataclass
class _Level:
    plan: LevelPlan
    sql: str
    columns: list[tuple[str, str]]  # (output name, plan column)
    #: Raw-tuple → (iter, item) decoder, compiled once per level (the
    #: batched engine's fast path; None until first requested).
    _decoder: object = None

    def decoder(self):
        if self._decoder is None:
            self._decoder = _compile_level_decoder(self)
        return self._decoder


@dataclass
class CompiledLoopLifted:
    result_type: Type
    levels: dict[Path, _Level]

    @property
    def sql_by_path(self) -> list[tuple[str, str]]:
        return [(str(path), level.sql) for path, level in self.levels.items()]

    @property
    def query_count(self) -> int:
        return len(self.levels)

    def run(
        self,
        db: Database,
        stats: ExecutionStats | None = None,
        engine: str = "per-path",
        batch_size: int | None = None,
    ) -> NestedValue:
        """Execute every level and stitch surrogates back into nesting.

        ``engine="per-path"`` (default) is the reference path: one
        ``fetchall`` per level and per-row column dicts.  ``"batched"``
        mirrors the shredding pipeline's batched engine — ``fetchmany``
        streaming and precompiled *positional* decoders, grouping rows by
        iter surrogate on the fly — so the engine ablation compares
        engines, not decode styles.
        """
        if engine == "batched":
            from repro.backend.executor import DEFAULT_FETCH_BATCH

            batch = DEFAULT_FETCH_BATCH if batch_size is None else batch_size
            grouped: dict[Path, dict[int, list]] = {}
            for path, level in self.levels.items():
                decode = level.decoder()
                groups: dict[int, list] = {}
                rows = 0
                for chunk in db.execute_sql_chunks(level.sql, batch_size=batch):
                    rows += len(chunk)
                    for raw in chunk:
                        iter_value, item = decode(raw)
                        bucket = groups.get(iter_value)
                        if bucket is None:
                            groups[iter_value] = [item]
                        else:
                            bucket.append(item)
                if stats is not None:
                    stats.record(rows)
                grouped[path] = groups
            return self._stitch_grouped(grouped)
        if engine != "per-path":
            raise ShreddingError(
                f"unknown loop-lifting execution engine {engine!r}"
            )
        rows_by_path = {}
        for path, level in self.levels.items():
            raw = db.execute_sql(level.sql)
            if stats is not None:
                stats.record(len(raw))
            rows_by_path[path] = [
                _decode_row(level, raw_row) for raw_row in raw
            ]
        return self._stitch(rows_by_path)

    def _stitch(self, rows_by_path: dict[Path, list]) -> NestedValue:
        """Surrogate stitching: group each level's rows by iter, then walk
        the result type replacing surrogate ints with child bags.  Rows
        arrive ORDER BY iter, pos — list semantics is preserved."""
        grouped: dict[Path, dict[int, list]] = {}
        for path, rows in rows_by_path.items():
            groups: dict[int, list] = {}
            for iter_value, _pos, item in rows:
                groups.setdefault(iter_value, []).append(item)
            grouped[path] = groups
        return self._stitch_grouped(grouped)

    def _stitch_grouped(
        self, grouped: dict[Path, dict[int, list]]
    ) -> NestedValue:
        def resolve_value(ftype: Type, type_path: Path, value):
            if isinstance(ftype, BagType):
                child_rows = grouped.get(type_path)
                if child_rows is None:
                    raise ShreddingError(f"no level for path {type_path}")
                children = child_rows.get(value, [])
                element = ftype.element
                return [
                    resolve_value(element, type_path.down(), child)
                    for child in children
                ]
            if isinstance(ftype, RecordType):
                return {
                    label: resolve_value(sub, type_path.label(label), value[label])
                    for label, sub in ftype.fields
                }
            return value

        assert isinstance(self.result_type, BagType)
        top_rows = grouped[Path(())].get(1, [])
        return [
            resolve_value(self.result_type.element, Path(()).down(), item)
            for item in top_rows
        ]


def _decode_row(level: _Level, raw_row) -> tuple[int, int, object]:
    """Raw tuple → (iter, pos, item value with surrogate ints)."""
    cells = dict(zip([name for name, _ in level.columns], raw_row))
    iter_value = cells["__iter"]
    pos_value = cells["__pos"]
    by_path = {
        payload.item_path: (
            cells[payload.column]
            if payload.kind == "surrogate"
            else decode_base(cells[payload.column], payload.base)
        )
        for payload in level.plan.payload
    }

    def build(ftype: Type, path: tuple[str, ...]):
        if isinstance(ftype, (IndexType, BaseType)):
            return by_path[path]
        if isinstance(ftype, RecordType):
            return {
                label: build(sub, path + (label,)) for label, sub in ftype.fields
            }
        raise ShreddingError(f"cannot decode item type {ftype}")

    from repro.shred.shred_types import inner_shred

    item = build(inner_shred(level.plan.element_type), ())
    return (iter_value, pos_value, item)


def _compile_level_decoder(level: _Level):
    """Compile a level's raw tuple → ``(iter, item)`` closure.

    The positional analogue of :func:`_decode_row`: every column resolves
    to its tuple index at compile time, so the batched engine never builds
    a per-row name→cell dict.  Property-tested against :func:`_decode_row`
    via the engine-equality suite.
    """
    positions = {name: i for i, (name, _) in enumerate(level.columns)}
    iter_pos = positions["__iter"]
    cell_fns: dict[tuple[str, ...], object] = {}
    for payload in level.plan.payload:
        pos = positions[payload.column]
        if payload.kind == "surrogate":
            cell_fns[payload.item_path] = lambda raw, _p=pos: raw[_p]
        else:
            cell_fns[payload.item_path] = (
                lambda raw, _p=pos, _b=payload.base: decode_base(raw[_p], _b)
            )

    def compile_item(ftype: Type, path: tuple[str, ...]):
        if isinstance(ftype, (IndexType, BaseType)):
            return cell_fns[path]
        if isinstance(ftype, RecordType):
            subs = tuple(
                (label, compile_item(sub, path + (label,)))
                for label, sub in ftype.fields
            )
            return lambda raw, _subs=subs: {
                label: fn(raw) for label, fn in _subs
            }
        raise ShreddingError(f"cannot compile a decoder for item type {ftype}")

    from repro.shred.shred_types import inner_shred

    item_fn = compile_item(inner_shred(level.plan.element_type), ())
    return lambda raw: (raw[iter_pos], item_fn(raw))


class LoopLiftingPipeline:
    """Compile-and-run front end for the loop-lifting baseline."""

    def __init__(self, schema: Schema, use_pathfinder: bool = True) -> None:
        self.schema = schema
        self.use_pathfinder = use_pathfinder

    def compile(self, query: ast.Term) -> CompiledLoopLifted:
        normal_form = normalise(query, self.schema)
        result_type = self._result_type(normal_form, query)
        level_plans = compile_levels(normal_form, result_type, self.schema)

        levels: dict[Path, _Level] = {}
        for path, level_plan in level_plans.items():
            plan = level_plan.plan
            if self.use_pathfinder:
                # The Pathfinder round trip: serialise, parse, optimise.
                plan = optimise(deserialise(serialise(plan)))
            columns = [("__iter", level_plan.iter_column), ("__pos", level_plan.pos_column)]
            for payload in level_plan.payload:
                source = (
                    level_plan.pos_column
                    if payload.kind == "surrogate"
                    else payload.column
                )
                columns.append((payload.column, source))
            sql = render_level_sql(
                plan,
                columns,
                [level_plan.iter_column, level_plan.pos_column],
            )
            levels[path] = _Level(
                plan=LevelPlan(
                    path=level_plan.path,
                    depth=level_plan.depth,
                    plan=plan,
                    payload=level_plan.payload,
                    element_type=level_plan.element_type,
                ),
                sql=sql,
                columns=columns,
            )
        return CompiledLoopLifted(result_type=result_type, levels=levels)

    def run(self, query: ast.Term, db: Database, **kwargs) -> NestedValue:
        return self.compile(query).run(db, **kwargs)

    def _result_type(self, normal_form, original: ast.Term) -> Type:
        result_type = nf_result_type(normal_form, original, self.schema)
        if not isinstance(result_type, BagType) or not is_nested(result_type):
            raise ShreddingError(
                f"loop lifting needs a nested bag-typed query, got {result_type}"
            )
        return result_type


def loop_lift_run(query: ast.Term, db: Database, **kwargs) -> NestedValue:
    return LoopLiftingPipeline(db.schema).run(query, db, **kwargs)
