"""SQL code generation (§7): shredded / let-inserted queries → SQL:1999.

Two plan shapes; :func:`resolve_scheme` picks one from the schema:

* **natural** (§6.1; the default whenever every table declares a key):
  plain SQL — all where-clauses amalgamated, ``a·index`` is the key
  columns of every generator in scope, padded with NULLs to a per-query
  width when union branches bind different numbers of generators.  No
  window function, no CTE, no let-insertion;
* **flat** (§6.2/§7; the fallback when some table declares no key, and
  whenever ``ordered`` output is requested): the let-inserted form, with
  ``index`` realised as ``ROW_NUMBER() OVER (ORDER BY …)`` and the
  let-bound outer query as a CTE (or an inlined FROM-subquery under the §8
  "inline WITH" optimisation).

Both emit the top-level context as the literal ``⊤·1``, and neither
projects a column whose expression is the same literal in every union
branch (static tags, the top context): :meth:`CompiledSql.fold` writes it
into the code it generates.

Determinism note (§7): the paper orders ``row_number`` by all columns of
all tables referenced from the current subquery, listing the outer query's
stored index (``z.i2``) *before* the inner generators' columns; with the
assumed unique ``id`` keys any position works.  We place ``z.idx`` *last*
so the ordering stays consistent with the child query's CTE (which
recomputes the same prefix join without an idx column) even for keyless
tables containing fully duplicate rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.backend.database import quote_identifier
from repro.errors import SqlGenerationError
from repro.flatten.flatten import (
    FlatColumn,
    KIND_BASE,
    KIND_INDEX_DYN,
    KIND_INDEX_TAG,
    flatten_type,
)
from repro.flatten.unflatten import decode_base, unflatten_value
from repro.letins.ast import (
    IndexPrim,
    LetComp,
    LetIndex,
    LetQuery,
    OuterSubquery,
    ZIndex,
    ZProj,
)
from repro.letins.translate import let_insert
from repro.normalise.normal_form import (
    BaseExpr,
    ConstNF,
    EmptyNF,
    Generator,
    NormQuery,
    ParamNF,
    PrimNF,
    TRUE_NF,
    VarField,
)
from repro.nrc.schema import Schema
from repro.nrc.types import BOOL, BaseType, RecordType, Type
from repro.shred.shred_types import INDEX, IndexType, inner_shred
from repro.shred.shredded_ast import (
    IN,
    TOP_TAG,
    IndexRef,
    ShredComp,
    ShredQuery,
    SRecord,
)
from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    Lit,
    NotExists,
    NotOp,
    Placeholder,
    RowNumber,
    SelectCore,
    SelectItem,
    SqlExpr,
    Statement,
    SubqueryRef,
    TableRef,
    placeholder_names,
)
from repro.sql.render import render_statement

__all__ = ["SqlOptions", "CompiledSql", "compile_shredded", "resolve_scheme"]


@dataclass(frozen=True)
class SqlOptions:
    """Code-generation knobs: the §8 optimisations, the §6 schemes, the §9
    extensions, and the logical optimizer (:mod:`repro.sql.optimizer`).

    ``optimize`` is the optimizer's only switch: on, every statement goes
    through its three rules (fold, dedup, prune) in order.  The whole
    (frozen, hashable) options value is a plan-cache key component, so
    optimised and unoptimised plans never collide in a cache.
    """

    #: ``None`` (default) lets :func:`resolve_scheme` decide from the
    #: schema; ``"flat"`` / ``"natural"`` force a shape (the §6 ablations).
    scheme: str | None = None
    inline_with: bool = False  # §8: inline WITH clauses (flat form only)
    order_by_keys: bool = False  # §8: keys for row numbering (flat form only)
    ordered: bool = False  # §9 list semantics: deterministic row order
    pretty: bool = True
    optimize: bool = False  # run the logical optimizer over the SQL AST
    #: Stage verification (:mod:`repro.check`): ``True``/``False`` force it,
    #: ``None`` (default) defers to ``REPRO_VERIFY`` / pytest-or-CI
    #: detection (see :func:`repro.check.verifier.verification_enabled`).
    verify: bool | None = None

    def __post_init__(self) -> None:
        if self.scheme not in (None, "flat", "natural"):
            raise SqlGenerationError(f"unknown SQL scheme {self.scheme!r}")
        if self.ordered and self.scheme == "natural":
            raise SqlGenerationError(
                "ordered (list-semantics) output requires the flat scheme"
            )
        if self.verify not in (None, True, False):
            raise SqlGenerationError(
                f"verify must be True, False or None, got {self.verify!r}"
            )


def resolve_scheme(schema: Schema, options: SqlOptions) -> tuple[str, str]:
    """The index scheme a compile under ``options`` uses on ``schema``, and
    why — ``("natural", "keys")`` when every table declares a key, else
    ``("flat", "table 't' declares no key")``.

    A function of its two arguments alone, so every statement of a package
    (and every direct caller of :func:`compile_shredded`) agrees without
    coordination, and the plan-cache key (options + schema fingerprint,
    which includes keys) already covers it.
    """
    keyless = next(
        (table.name for table in schema.tables if not table.has_declared_key),
        None,
    )
    if options.scheme == "natural":
        if keyless is not None:
            # Over bags, all-columns-as-key merges duplicate rows (§6.1).
            raise SqlGenerationError(
                f"the natural scheme needs a declared key on every table; "
                f"table {keyless!r} declares none"
            )
        return "natural", "forced by options"
    if options.scheme == "flat":
        return "flat", "forced by options"
    if options.ordered:
        return "flat", "ordered output numbers rows"
    if keyless is not None:
        return "flat", f"table {keyless!r} declares no key"
    return "natural", "keys"


@dataclass
class CompiledSql:
    """One shredded query compiled to SQL, with decode metadata.

    ``cache_key`` carries the plan-cache key the statement was compiled
    under (None for uncached compiles); the compiled :meth:`fold` is
    memoised per instance, so a cached plan folds every subsequent run
    through the same function.
    """

    statement: Statement
    sql: str
    row_type: RecordType  # ⟨item: F, outer: Index⟩
    width_fn: Callable[[tuple[str, ...]], int] | int
    natural: bool
    #: The columns the statement projects, in SELECT order.
    columns: tuple[str, ...] = field(default=())
    #: (column, literal) for every column of the flattened row type the
    #: statement does *not* project because all its branches agree on it.
    constants: tuple[tuple[str, object], ...] = field(default=())
    #: Host-parameter names this statement binds at execution time (sorted).
    params: tuple[str, ...] = field(default=())
    #: Optimizer rules that actually rewrote this statement, in application
    #: order (the fired-rule trace; empty when the optimizer is off or
    #: every rule was a no-op).
    fired_rules: tuple[str, ...] = field(default=(), compare=False)
    cache_key: object = field(default=None, compare=False)
    _fold: Callable | None = field(default=None, repr=False, compare=False)
    #: (table, columns) index hints mined from the statement — memoised by
    #: the batched executor so repeat runs of a cached plan skip the AST walk.
    index_hints: tuple | None = field(default=None, repr=False, compare=False)

    def fold(self) -> Callable[..., None]:
        """``fold(chunk, grouped, *child_buckets)``: the batched engine's one
        pass over a chunk of raw SQL tuples — built once per plan from
        :attr:`fold_source`.

        Each row becomes its *final* record, appended under its outer key
        in ``grouped`` (``{outer key: [record, …]}``, encounter order).
        ``child_buckets`` are the ``grouped`` dicts of the statements one
        nesting level down, already folded, one per index leaf of the item
        type in field order: where App. E would decode an index, the
        record takes the child's bucket list itself — no copy, no stored
        key, no second pass.  That is sound because an item index is
        injective per comprehension row (§4.2/§6.1), so no bucket has two
        parents.  Keys are flat ``(tag, key…)`` tuples (``(tag, row
        number)`` in the flat scheme), NULL padding stripped; both sides
        of every join build them from the same scheme.  Property-tested
        against :meth:`decode_rows` + :func:`repro.shred.stitch.stitch`.
        """
        if self._fold is None:
            self._fold = _load_fold(self.fold_source)
        return self._fold

    @property
    def fold_source(self) -> str:
        """The Python source of :meth:`fold` (for ``repro lint``, debugging
        and tests).  Every column is resolved to its tuple position or its
        literal up front; literals and labels enter through ``repr``."""
        positions = {name: i for i, name in enumerate(self.columns)}
        constants = dict(self.constants)
        #: Leaf path → its column names (an index leaf's are tag, dyn1, …).
        leaves: dict[tuple[str, ...], list[str]] = {}
        for column in flatten_type(self.row_type, self.width_fn):
            leaves.setdefault(column.path, []).append(column.name)
        #: Projected columns that are NULL in some branch: the padding of a
        #: union whose branches bind different numbers of key columns (§6.1).
        padded = {
            item.alias
            for select in self.statement.selects
            for item in select.items
            if item.expr == Lit(None)
        }
        children = 0

        def key(path: tuple[str, ...]) -> str:
            """The flat ``(tag, key…)`` tuple of the index leaf at ``path``."""
            parts = [
                repr(constants[name]) if name in constants else f"r[{positions[name]}]"
                for name in leaves[path]
                if constants.get(name, ...) is not None  # literal padding
            ]
            flat = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
            if padded.isdisjoint(leaves[path]):
                return flat
            return f"tuple([part for part in {flat} if part is not None])"

        def value(f: Type, path: tuple[str, ...]) -> str:
            nonlocal children
            if isinstance(f, IndexType):
                children += 1
                return f"(get{children - 1}({key(path)}) or [])"
            if isinstance(f, BaseType):
                (name,) = leaves[path]
                if name in constants:
                    return repr(decode_base(constants[name], f))
                cell = f"r[{positions[name]}]"
                return f"bool({cell})" if f == BOOL else cell
            if isinstance(f, RecordType):
                fields = ", ".join(
                    f"{label!r}: {value(ftype, path + (label,))}"
                    for label, ftype in f.fields
                )
                return "{" + fields + "}"
            raise SqlGenerationError(f"cannot fold rows of type {f}")

        item = value(self.row_type.field_type("item"), ("item",))
        outer = key(("outer",))
        arguments = "".join(f", c{i}" for i in range(children))
        lines = [f"def fold(chunk, grouped{arguments}):"]
        lines += [f"    get{i} = c{i}.get" for i in range(children)]
        if constants.keys() >= set(leaves[("outer",)]):
            # One context for every row (the top-level ⊤·1): no grouping.
            lines.append(
                f"    grouped.setdefault({outer}, []).extend([{item} for r in chunk])"
            )
        else:
            lines += [
                "    get = grouped.get",
                "    for r in chunk:",
                f"        key = {outer}",
                "        bucket = get(key)",
                "        if bucket is None:",
                f"            grouped[key] = [{item}]",
                "        else:",
                f"            bucket.append({item})",
            ]
        return "\n".join(lines) + "\n"

    @functools.cached_property
    def column_table_sql(self) -> str:
        """The statement as one row SQLite itself serialises (JSON1):
        ``(count(*), '[[column 1 cells…], [column 2 cells…], …]')`` over
        the statement's SQL, unchanged, as a subquery — the row count and
        one JSON array per projected column, in the statement's row order.
        What a shard answers a ``result: "shredded"`` request with; the
        coordinator feeds ``zip(*columns)`` to the same :meth:`fold`.
        Exact for the base types there are: Int, String, and Bool as the
        0/1 the fold already applies ``bool()`` to."""
        columns = ", ".join(
            f"json_group_array({quote_identifier(name)})" for name in self.columns
        )
        return (
            f"SELECT count(*), CAST(json_array({columns}) AS BLOB) "
            f"FROM ({self.sql})"
        )

    def decode_rows(
        self, raw_rows: Sequence[Sequence[object]]
    ) -> list[tuple[object, object]]:
        """Raw SQL tuples → ⟨index, value⟩ pairs (unflattening, App. E).

        The literal App. E reading — one name→cell dict and one
        :func:`unflatten_value` type walk per row.  The per-path engine
        uses it; the batched engine's :meth:`fold` is property-tested
        against it.
        """
        pairs = []
        constants = dict(self.constants)
        for raw in raw_rows:
            cells = constants.copy()
            cells.update(zip(self.columns, raw))
            row = unflatten_value(
                self.row_type, cells, self.width_fn, natural=self.natural
            )
            pairs.append((row["outer"], row["item"]))
        return pairs


@functools.lru_cache(maxsize=512)
def _load_fold(source: str) -> Callable[..., None]:
    """Compile a fold's source — once per distinct text, like :mod:`re`'s
    pattern cache: ``compile()`` costs ≈ 0.1 ms, and the text holds nothing
    but positions, labels and static tags, so cold compiles of one query
    shape (and sibling statements) share a code object."""
    namespace: dict[str, object] = {}
    exec(compile(source, "<fold>", "exec"), namespace)
    return namespace["fold"]  # type: ignore[return-value]


def compile_shredded(
    shredded: ShredQuery,
    element_type: Type,
    schema: Schema,
    options: SqlOptions = SqlOptions(),
    cache_key: object = None,
    tracer=None,
) -> CompiledSql:
    """Compile one shredded query whose bag element type is ``element_type``.

    ``cache_key`` (threaded down from the plan cache, when one is active)
    is recorded on the compiled statement for provenance/debugging.
    ``tracer`` (a :class:`repro.obs.Tracer`) receives an ``optimize``
    span with one child per attempted rule.
    """
    item_type = inner_shred(element_type)
    row_type = RecordType((("item", item_type), ("outer", INDEX)))
    from repro.check.verifier import verification_enabled

    verify = verification_enabled(options)
    scheme, _why = resolve_scheme(schema, options)
    if scheme == "natural":
        compiled = _compile_natural(shredded, row_type, schema, options)
    else:
        let_query = let_insert(shredded)
        if verify:
            from repro.check.verifier import verify_let_inserted

            verify_let_inserted(let_query, element_type, schema)
        compiled = _compile_flat(let_query, row_type, schema, options)
    if options.optimize:
        from repro.sql.optimizer import optimize_statement

        trace: list[str] = []
        timings: list[tuple[str, float, bool]] | None = (
            [] if tracer is not None else None
        )
        on_rewrite = None
        if verify:
            from repro.check.verifier import rewrite_hook

            on_rewrite = rewrite_hook(schema)
        optimized = optimize_statement(
            compiled.statement,
            trace=trace,
            on_rewrite=on_rewrite,
            timings=timings,
        )
        if tracer is not None and timings is not None:
            span = tracer.record(
                "optimize", sum(m for _r, m, _f in timings)
            )
            for rule, millis, fired in timings:
                span.record(rule, millis, fired=fired)
        if optimized != compiled.statement:
            compiled.statement = optimized
            compiled.sql = render_statement(optimized, options.pretty)
        compiled.fired_rules = tuple(trace)
    compiled.params = placeholder_names(compiled.statement)
    compiled.cache_key = cache_key
    if verify:
        from repro.check.verifier import verify_compiled_sql

        verify_compiled_sql(compiled, schema)
    return compiled


# --------------------------------------------------------------------------
# Shared expression rendering.


class _ExprContext:
    """Rendering context: how to resolve z-projections."""

    def __init__(self, schema: Schema, z_alias: str | None = None) -> None:
        self.schema = schema
        self.z_alias = z_alias


_OPS = {
    "=": "=",
    "<>": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "div": "/",
    "mod": "%",
    "and": "AND",
    "or": "OR",
    "^": "||",
}


def _expr(e: BaseExpr, ctx: _ExprContext) -> SqlExpr:
    if isinstance(e, VarField):
        return Col(e.var, e.label)
    if isinstance(e, ConstNF):
        return Lit(e.value)
    if isinstance(e, ParamNF):
        return Placeholder(e.name)
    if isinstance(e, ZProj):
        if ctx.z_alias is None:
            raise SqlGenerationError("z-projection outside a let body")
        return Col(ctx.z_alias, _z_column(e.position, e.label))
    if isinstance(e, PrimNF):
        if e.op == "not":
            return NotOp(_expr(e.args[0], ctx))
        sql_op = _OPS.get(e.op)
        if sql_op is None or len(e.args) != 2:
            raise SqlGenerationError(f"no SQL spelling for primitive {e.op!r}")
        return BinOp(sql_op, _expr(e.args[0], ctx), _expr(e.args[1], ctx))
    if isinstance(e, EmptyNF):
        return _empty_probe(e.query, ctx)
    raise SqlGenerationError(f"cannot render base term {e!r}")


def _empty_probe(query: NormQuery, ctx: _ExprContext) -> SqlExpr:
    """empty L → a conjunction of NOT EXISTS probes, one per comprehension."""
    from repro.shred.shredded_ast import empty_probe_parts

    probes: list[SqlExpr] = [
        NotExists(_exists_core(generators, conditions, ctx))
        for generators, conditions in empty_probe_parts(query)
    ]
    if not probes:
        return Lit(True)  # empty(∅) is vacuously true
    return _conj_sql(probes)


def _exists_core(
    generators: tuple[Generator, ...],
    conditions: list[BaseExpr],
    ctx: _ExprContext,
) -> SelectCore:
    where = _where_sql(conditions, ctx)
    return SelectCore(
        items=(),
        from_items=tuple(TableRef(g.table, g.var) for g in generators),
        where=where,
    )


def _where_sql(
    conditions: list[BaseExpr], ctx: _ExprContext
) -> SqlExpr | None:
    exprs = [_expr(c, ctx) for c in conditions if c != TRUE_NF]
    if not exprs:
        return None
    return _conj_sql(exprs)


def _conj_sql(exprs: list[SqlExpr]) -> SqlExpr:
    result = exprs[0]
    for e in exprs[1:]:
        result = BinOp("AND", result, e)
    return result


def _z_column(position: int, label: str) -> str:
    """The exposed column name for expand(y_position, t).label."""
    return f"c{position}_{label}"


# --------------------------------------------------------------------------
# Flat scheme (let-inserted, ROW_NUMBER).


def _order_columns(
    table: str, schema: Schema, options: SqlOptions
) -> tuple[str, ...]:
    """Columns used to order a generator's rows deterministically."""
    table_schema = schema.table(table)
    if options.order_by_keys and table_schema.has_declared_key:
        return table_schema.key_columns
    return tuple(sorted(table_schema.column_names))


def _compile_flat(
    let_query: LetQuery,
    row_type: RecordType,
    schema: Schema,
    options: SqlOptions,
) -> CompiledSql:
    flat_columns = flatten_type(row_type, 1)
    names = tuple(c.name for c in flat_columns)
    ctes: list[tuple[str, SelectCore]] = []
    selects: list[SelectCore] = []

    for k, comp in enumerate(let_query.comps, start=1):
        z_alias = f"z{k}"
        ctx = _ExprContext(schema, z_alias if comp.outer else None)

        from_items: list = []
        if comp.outer is not None:
            outer_core = _outer_select(comp.outer, schema, options)
            if options.inline_with:
                from_items.append(SubqueryRef(outer_core, z_alias))
            else:
                name = f"q{len(ctes) + 1}"
                ctes.append((name, outer_core))
                from_items.append(CteRef(name, z_alias))
        from_items.extend(TableRef(g.table, g.var) for g in comp.generators)

        where = _where_sql([comp.where], ctx)
        inner_order = _inner_order(comp, z_alias, schema, options)

        items: list[SelectItem] = []
        for column in flat_columns:
            items.append(
                SelectItem(
                    _flat_column_expr(column, comp, ctx, inner_order),
                    column.name,
                )
            )
        if options.ordered:
            # §9 list semantics: branch position + per-branch row order,
            # appended after the data columns so decoding can ignore them.
            items.append(SelectItem(Lit(k), "__branch"))
            items.append(SelectItem(RowNumber(inner_order), "__ord"))
        selects.append(
            SelectCore(tuple(items), tuple(from_items), where)
        )

    if not selects:
        empty = _empty_select(names)
        if options.ordered:
            empty = SelectCore(
                empty.items
                + (SelectItem(Lit(0), "__branch"), SelectItem(Lit(0), "__ord")),
                empty.from_items,
                empty.where,
            )
        selects.append(empty)

    order_by = ("__branch", "__ord") if options.ordered else ()
    selects, columns, constants = _drop_constant_columns(names, selects)
    statement = Statement(tuple(ctes), tuple(selects), columns, order_by)
    return CompiledSql(
        statement=statement,
        sql=render_statement(statement, options.pretty),
        row_type=row_type,
        width_fn=1,
        natural=False,
        columns=columns,
        constants=constants,
    )


def _drop_constant_columns(
    names: tuple[str, ...], selects: list[SelectCore]
) -> tuple[list[SelectCore], tuple[str, ...], tuple[tuple[str, object], ...]]:
    """The row diet: a column whose expression is the same literal in every
    branch (static tags, the ⊤·1 context) is not projected — SQLite would
    materialise it, and sqlite3 box it, once per row.  Returns the slimmed
    branches, the columns they still project and the (column, literal)
    pairs they no longer do."""
    constants: dict[str, object] = {}
    for position, name in enumerate(names):
        first, *rest = [select.items[position].expr for select in selects]
        if isinstance(first, Lit) and all(
            # (``Lit(1) == Lit(True)``: compare the value types too.)
            isinstance(expr, Lit)
            and type(expr.value) is type(first.value)
            and expr == first
            for expr in rest
        ):
            constants[name] = first.value
    if len(constants) == len(names):
        del constants[names[0]]  # a SELECT needs an item
    if not constants:
        return selects, names, ()
    slimmed = [
        SelectCore(
            tuple(item for item in select.items if item.alias not in constants),
            select.from_items,
            select.where,
        )
        for select in selects
    ]
    kept = tuple(name for name in names if name not in constants)
    return slimmed, kept, tuple(constants.items())


def _empty_select(names: tuple[str, ...]) -> SelectCore:
    """∅: a query with no comprehensions — SELECT NULL … WHERE 0."""
    return SelectCore(
        tuple(SelectItem(Lit(None), name) for name in names),
        (),
        Lit(False),
    )


def _outer_select(
    outer: OuterSubquery, schema: Schema, options: SqlOptions
) -> SelectCore:
    """q = for (Ḡout where Xout) return ⟨expand(ȳ), index⟩."""
    ctx = _ExprContext(schema)
    items: list[SelectItem] = []
    order: list[SqlExpr] = []
    for position, g in enumerate(outer.generators, start=1):
        for column, _ in schema.table(g.table).columns:
            items.append(
                SelectItem(Col(g.var, column), _z_column(position, column))
            )
        for column in _order_columns(g.table, schema, options):
            order.append(Col(g.var, column))
    items.append(SelectItem(RowNumber(tuple(order)), "idx"))
    return SelectCore(
        tuple(items),
        tuple(TableRef(g.table, g.var) for g in outer.generators),
        _where_sql([outer.where], ctx),
    )


def _inner_order(
    comp: LetComp, z_alias: str, schema: Schema, options: SqlOptions
) -> tuple[SqlExpr, ...]:
    """ORDER BY for the main subquery's ROW_NUMBER: the z-exposed columns,
    then the inner generators' columns, then z.idx (tie-break; see module
    docstring)."""
    order: list[SqlExpr] = []
    if comp.outer is not None:
        for position, g in enumerate(comp.outer.generators, start=1):
            for column in _order_columns(g.table, schema, options):
                order.append(Col(z_alias, _z_column(position, column)))
    for g in comp.generators:
        for column in _order_columns(g.table, schema, options):
            order.append(Col(g.var, column))
    if comp.outer is not None:
        order.append(Col(z_alias, "idx"))
    return tuple(order)


def _flat_column_expr(
    column: FlatColumn, comp: LetComp, ctx: _ExprContext, inner_order: tuple[SqlExpr, ...]
) -> SqlExpr:
    if column.path[0] == "outer":
        if column.kind == KIND_INDEX_TAG:
            return Lit(comp.body_outer.tag)
        if column.kind == KIND_INDEX_DYN:
            return _dyn_expr(comp.body_outer, ctx, inner_order)
        raise SqlGenerationError(f"unexpected outer column {column!r}")
    term = _descend(comp.body_value, column.path[1:])
    if column.kind == KIND_BASE:
        if not isinstance(term, BaseExpr):
            raise SqlGenerationError(f"expected base term at {column.path}")
        return _expr(term, ctx)
    if not isinstance(term, LetIndex):
        raise SqlGenerationError(f"expected an index at {column.path}")
    if column.kind == KIND_INDEX_TAG:
        return Lit(term.tag)
    return _dyn_expr(term, ctx, inner_order)


def _dyn_expr(
    index: LetIndex, ctx: _ExprContext, inner_order: tuple[SqlExpr, ...]
) -> SqlExpr:
    if isinstance(index.dyn, IndexPrim):
        return RowNumber(inner_order)
    if isinstance(index.dyn, ZIndex):
        if ctx.z_alias is None:
            raise SqlGenerationError("z.2 outside a let body")
        return Col(ctx.z_alias, "idx")
    if isinstance(index.dyn, int):
        return Lit(index.dyn)
    raise SqlGenerationError(f"bad dynamic index {index.dyn!r}")


def _descend(term: object, labels: tuple[str, ...]) -> object:
    current = term
    for label in labels:
        if not isinstance(current, SRecord):
            raise SqlGenerationError(
                f"cannot descend into non-record term at label {label!r}"
            )
        current = current.field(label)
    return current


# --------------------------------------------------------------------------
# Natural scheme (§6.1): plain SQL, key-based indexes, NULL padding.


def _compile_natural(
    shredded: ShredQuery,
    row_type: RecordType,
    schema: Schema,
    options: SqlOptions,
) -> CompiledSql:
    ctx = _ExprContext(schema)
    # Per comprehension: its generators, and the key expressions realising
    # its outer index (enclosing blocks) and its own index (all blocks).
    keyed: list[tuple[ShredComp, list[SqlExpr], list[SqlExpr]]] = []
    for comp in shredded.comps:
        inner_keys = _key_exprs(comp.all_generators, schema)
        if comp.outer.tag == TOP_TAG:
            outer_keys: list[SqlExpr] = [Lit(1)]  # ⊤·1, as in the flat form
        else:
            outer_keys = _key_exprs(
                tuple(g for block in comp.blocks[:-1] for g in block.generators),
                schema,
            )
        keyed.append((comp, outer_keys, inner_keys))
    outer_width = max([1] + [len(outer) for _c, outer, _i in keyed])
    inner_width = max([1] + [len(inner) for _c, _o, inner in keyed])

    def width_fn(path: tuple[str, ...]) -> int:
        return outer_width if path == ("outer",) else inner_width

    flat_columns = flatten_type(row_type, width_fn)
    names = tuple(c.name for c in flat_columns)
    selects: list[SelectCore] = []
    for comp, outer_keys, inner_keys in keyed:
        # §6.1: pad the narrower branches of a union with NULLs.
        outer_keys += [Lit(None)] * (outer_width - len(outer_keys))
        inner_keys += [Lit(None)] * (inner_width - len(inner_keys))
        selects.append(
            SelectCore(
                tuple(
                    SelectItem(
                        _natural_column_expr(
                            column, comp, ctx, outer_keys, inner_keys
                        ),
                        column.name,
                    )
                    for column in flat_columns
                ),
                tuple(TableRef(g.table, g.var) for g in comp.all_generators),
                _where_sql([block.where for block in comp.blocks], ctx),
            )
        )

    if not selects:
        selects.append(_empty_select(names))

    selects, columns, constants = _drop_constant_columns(names, selects)
    statement = Statement((), tuple(selects), columns)
    return CompiledSql(
        statement=statement,
        sql=render_statement(statement, options.pretty),
        row_type=row_type,
        width_fn=width_fn,
        natural=True,
        columns=columns,
        constants=constants,
    )


def _key_exprs(
    generators: tuple[Generator, ...], schema: Schema
) -> list[SqlExpr]:
    return [
        Col(g.var, column)
        for g in generators
        for column in schema.table(g.table).key
    ]


def _natural_column_expr(
    column: FlatColumn,
    comp: ShredComp,
    ctx: _ExprContext,
    outer_keys: list[SqlExpr],
    inner_keys: list[SqlExpr],
) -> SqlExpr:
    if column.path[0] == "outer":
        if column.kind == KIND_INDEX_TAG:
            return Lit(comp.outer.tag)
        if column.kind == KIND_INDEX_DYN:
            return outer_keys[column.dyn_position - 1]
        raise SqlGenerationError(f"unexpected outer column {column!r}")
    term = _descend(comp.inner, column.path[1:])
    if column.kind == KIND_BASE:
        if not isinstance(term, BaseExpr) or isinstance(term, IndexRef):
            raise SqlGenerationError(f"expected base term at {column.path}")
        return _expr(term, ctx)
    if not isinstance(term, IndexRef) or term.kind != IN:
        raise SqlGenerationError(f"expected a·in at {column.path}")
    if column.kind == KIND_INDEX_TAG:
        return Lit(term.tag)
    return inner_keys[column.dyn_position - 1]
