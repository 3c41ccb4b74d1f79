"""Links' default flat–flat query pipeline (Fig. 1a).

Flat queries (no nested collections in the result) translate to a single
SQL query with no indexes and no OLAP operations — this is the "default"
system in the Fig. 10 experiments.  Nested queries are rejected, exactly as
Links rejects them at runtime (§1).

This module is a *baseline system*, kept for the evaluation sweeps; for
application code the primary entry point is the :mod:`repro.api` façade
(``connect()`` / ``Session``), whose shredding engine subsumes the flat
case (a flat query is simply a package of one statement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.errors import NotNormalisableError
from repro.flatten.flatten import KIND_BASE, flatten_type
from repro.flatten.unflatten import decode_base
from repro.normalise import normalise
from repro.normalise.normal_form import (
    BaseExpr,
    NormQuery,
    RecordNF,
    nf_to_term,
)
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.typecheck import infer
from repro.nrc.types import BagType, Type, is_flat
from repro.sql.ast import SelectCore, SelectItem, Statement, TableRef
from repro.sql.codegen import SqlOptions, _expr, _ExprContext, _where_sql
from repro.sql.render import render_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.plan_cache import PlanCache

__all__ = ["FlatCompiled", "compile_flat_query", "run_flat"]


@dataclass
class FlatCompiled:
    """A flat query compiled to one SQL statement."""

    sql: str
    element_type: Type
    columns: tuple[str, ...]

    def decode_rows(self, raw_rows) -> list:
        values = []
        for raw in raw_rows:
            cells = dict(zip(self.columns, raw))
            values.append(_rebuild(self.element_type, (), cells))
        return values


def _rebuild(ftype: Type, path: tuple[str, ...], cells: dict) -> object:
    from repro.nrc.types import BaseType, RecordType

    if isinstance(ftype, BaseType):
        name = "_".join(path) if path else "value"
        return decode_base(cells[name], ftype)
    if isinstance(ftype, RecordType):
        return {
            label: _rebuild(sub, path + (label,), cells)
            for label, sub in ftype.fields
        }
    raise NotNormalisableError(f"flat pipeline cannot decode type {ftype}")


def compile_flat_query(
    query: ast.Term,
    schema: Schema,
    pretty: bool = True,
    cache: PlanCache | None = None,
    optimize: bool = False,
) -> FlatCompiled:
    """Normalise and translate a flat–flat query to a single SQL statement.

    ``cache`` (a :class:`~repro.pipeline.plan_cache.PlanCache`) makes
    repeat compiles O(hash), sharing the key scheme — term fingerprint +
    schema fingerprint + options — with the shredding pipeline.

    ``optimize`` runs the statement-level logical optimizer
    (:mod:`repro.sql.optimizer`) over the generated statement; it is part
    of the plan-cache key, so optimised and unoptimised plans never mix.
    """
    if cache is not None:
        from repro.pipeline.plan_cache import plan_key

        key = plan_key(
            query,
            schema,
            SqlOptions(pretty=pretty, optimize=optimize),
            pipeline="flat",
        )
        cached = cache.lookup(key)
        if cached is not None:
            return cached
        compiled = _compile_flat_cold(
            query, schema, pretty, use_nf_memo=True, optimize=optimize
        )
        cache.store(key, compiled)
        return compiled
    return _compile_flat_cold(
        query, schema, pretty, use_nf_memo=False, optimize=optimize
    )


def _compile_flat_cold(
    query: ast.Term,
    schema: Schema,
    pretty: bool,
    use_nf_memo: bool,
    optimize: bool = False,
) -> FlatCompiled:
    from repro.normalise import normalise_cached

    normal_form = (normalise_cached if use_nf_memo else normalise)(query, schema)
    result_type = infer(nf_to_term(normal_form), schema)
    if not isinstance(result_type, BagType) or not is_flat(result_type.element):
        raise NotNormalisableError(
            f"the default flat pipeline only supports flat queries; "
            f"got result type {result_type} — use the shredding pipeline"
        )
    element_type = result_type.element
    flat_columns = flatten_type(element_type)
    names = tuple(c.name for c in flat_columns)
    assert all(c.kind == KIND_BASE for c in flat_columns)

    ctx = _ExprContext(schema)
    selects = []
    for comp in normal_form.comprehensions:
        items = []
        for column in flat_columns:
            term = _descend_nf(comp.body, column.path)
            items.append(SelectItem(_expr(term, ctx), column.name))
        selects.append(
            SelectCore(
                tuple(items),
                tuple(TableRef(g.table, g.var) for g in comp.generators),
                _where_sql([comp.where], ctx),
            )
        )
    if not selects:
        from repro.sql.ast import Lit

        selects.append(
            SelectCore(
                tuple(SelectItem(Lit(None), name) for name in names),
                (),
                Lit(False),
            )
        )
    statement = Statement((), tuple(selects), names)
    if optimize:
        from repro.sql.optimizer import optimize_statement

        statement = optimize_statement(statement)
    return FlatCompiled(
        sql=render_statement(statement, pretty),
        element_type=element_type,
        columns=names,
    )


def _descend_nf(term, labels: tuple[str, ...]) -> BaseExpr:
    current = term
    for label in labels:
        if not isinstance(current, RecordNF):
            raise NotNormalisableError(
                f"flat query body is not a record at {label!r}"
            )
        current = current.field(label)
    if isinstance(current, NormQuery):
        raise NotNormalisableError("nested query in a flat pipeline body")
    if not isinstance(current, BaseExpr):
        raise NotNormalisableError(f"expected base term, got {current!r}")
    return current


def run_flat(
    query: ast.Term,
    db: Database,
    stats: ExecutionStats | None = None,
) -> list:
    """Compile and execute a flat query via the default pipeline."""
    compiled = compile_flat_query(query, db.schema)
    raw = db.execute_sql(compiled.sql)
    if stats is not None:
        stats.record(len(raw))
    return compiled.decode_rows(raw)


def run_raw_sql(db: Database, sql: str, columns: tuple[str, ...]) -> list[dict]:
    """Run a hand-written SQL query (the Fig. 8 texts) returning dicts."""
    return [dict(zip(columns, row)) for row in db.execute_sql(sql)]
