"""The naive N+1 evaluator — the "query storm / avalanche" of §1.

This is what language-integrated query systems do when they *don't* shred:
run the outer query, then issue one further query per row per nested
collection.  The number of round trips grows with the data (1 + Σ bags),
whereas shredding always issues exactly ``nesting_degree(A)`` queries.

Implementation: each nesting level is compiled once to a *parameterised*
SQL query (the natural-index scheme, §6.1, whose dynamic indexes are key
columns and can be filtered with plain WHERE); at run time the child query
is re-executed for every parent row, bound to that row's index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.database import Database, quote_identifier
from repro.backend.executor import ExecutionStats
from repro.errors import ShreddingError
from repro.normalise import normalise
from repro.normalise.normal_form import nf_to_term
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.typecheck import infer
from repro.nrc.types import BagType, RecordType, Type, is_nested
from repro.shred.indexes import NaturalIndex
from repro.shred.packages import annotation_at, shred_query_package
from repro.shred.paths import Path, paths, type_at
from repro.shred.shredded_ast import TOP_TAG
from repro.sql.ast import Lit
from repro.sql.codegen import CompiledSql, SqlOptions, compile_shredded
from repro.sql.render import render_expr
from repro.values import NestedValue

__all__ = ["AvalanchePipeline", "CompiledAvalanche", "avalanche_run"]


@dataclass
class _Level:
    compiled: CompiledSql
    filtered_sql: str  # the per-parent-row parameterised query
    dyn_width: int


@dataclass
class CompiledAvalanche:
    result_type: Type
    levels: dict[Path, _Level]

    @property
    def query_count_static(self) -> int:
        """Queries issued *per parent row* is what varies; this is just the
        number of distinct statements compiled."""
        return len(self.levels)

    def run(
        self, db: Database, stats: ExecutionStats | None = None
    ) -> NestedValue:
        top = self.levels[Path(())]
        raw = db.execute_sql(top.compiled.sql)
        if stats is not None:
            stats.record(len(raw))
        pairs = top.compiled.decode_rows(raw)
        assert isinstance(self.result_type, BagType)
        return [
            self._resolve(
                self.result_type.element, Path(()).down(), item, db, stats
            )
            for _, item in pairs
        ]

    def _resolve(
        self,
        ftype: Type,
        type_path: Path,
        value,
        db: Database,
        stats: ExecutionStats | None,
    ):
        if isinstance(ftype, BagType):
            if not isinstance(value, NaturalIndex):
                raise ShreddingError(f"expected a natural index, got {value!r}")
            level = self.levels[type_path]
            params = [value.tag] + list(value.keys) + [None] * (
                level.dyn_width - len(value.keys)
            )
            raw = db.execute_sql(level.filtered_sql, params)
            if stats is not None:
                stats.record(len(raw))
            pairs = level.compiled.decode_rows(raw)
            return [
                self._resolve(ftype.element, type_path.down(), item, db, stats)
                for _, item in pairs
            ]
        if isinstance(ftype, RecordType):
            return {
                label: self._resolve(
                    sub, type_path.label(label), value[label], db, stats
                )
                for label, sub in ftype.fields
            }
        return value


class AvalanchePipeline:
    """Compile-and-run front end for the N+1 baseline."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.options = SqlOptions(scheme="natural")

    def compile(self, query: ast.Term) -> CompiledAvalanche:
        normal_form = normalise(query, self.schema)
        result_type = infer(nf_to_term(normal_form), self.schema)
        if not isinstance(result_type, BagType) or not is_nested(result_type):
            raise ShreddingError(
                f"need a nested bag-typed query, got {result_type}"
            )
        package = shred_query_package(normal_form, result_type)
        levels: dict[Path, _Level] = {}
        for path in paths(result_type):
            bag = type_at(result_type, path)
            assert isinstance(bag, BagType)
            compiled = compile_shredded(
                annotation_at(package, path),
                bag.element,
                self.schema,
                self.options,
            )
            levels[path] = _Level(
                compiled=compiled,
                filtered_sql=_with_parent_filter(compiled),
                dyn_width=_outer_width(compiled),
            )
        return CompiledAvalanche(result_type=result_type, levels=levels)

    def run(self, query: ast.Term, db: Database, **kwargs) -> NestedValue:
        return self.compile(query).run(db, **kwargs)


def _outer_width(compiled: CompiledSql) -> int:
    width_fn = compiled.width_fn
    if isinstance(width_fn, int):
        return width_fn
    return width_fn(("outer",))


def _with_parent_filter(compiled: CompiledSql) -> str:
    """Wrap the level query with a filter binding one parent index.

    ``IS ?`` (not ``=``) so NULL padding columns compare correctly.  An
    outer column the statement does not project (the same literal in every
    branch, see ``CompiledSql.constants``) is compared as that literal."""
    constants = dict(compiled.constants)

    def column(name: str) -> str:
        if name in constants:
            return render_expr(Lit(constants[name]))
        return quote_identifier(name)

    width = _outer_width(compiled)
    conditions = [f"{column('outer_tag')} = ?"] + [
        f"{column(f'outer_dyn{i}')} IS ?" for i in range(1, width + 1)
    ]
    return (
        f"SELECT * FROM ({compiled.sql}) WHERE " + " AND ".join(conditions)
    )


def avalanche_run(
    query: ast.Term, db: Database, stats: ExecutionStats | None = None
) -> NestedValue:
    return AvalanchePipeline(db.schema).run(query, db, stats=stats)


def _unused_top_tag() -> str:  # pragma: no cover - keeps import honest
    return TOP_TAG
