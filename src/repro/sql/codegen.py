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

A natural plan may *pin* an index (:class:`Rekey`): where the package's
edge decision (:func:`repro.pipeline.shredder.decide_edges`) found a nested
bag linked to an unfiltered parent only by declared references, the child
is keyed by its referencing columns and drops every ancestor generator,
and the parent projects the referenced columns as that field's item index.
A bare :func:`compile_shredded` call (no ``rekeys``) compiles today's
natural plan.

Both emit the top-level context as the literal ``⊤·1``, and neither
projects a column whose expression is the same literal in every union
branch (static tags, the top context): :meth:`CompiledSql.fold` writes it
into the code it generates.  Where such a static tag is the same on both
ends of a parent→child edge, :func:`key_edges` drops it from the keys of
both folds altogether (*bare* keys: a key column or a row number, not a
``(tag, key)`` tuple).

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
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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
from repro.shred.packages import Package, PkgBag, PkgRecord
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
from repro.values import copy_tree

__all__ = [
    "SqlOptions",
    "CompiledSql",
    "Pin",
    "Rekey",
    "compile_shredded",
    "key_edges",
    "resolve_scheme",
]


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


class Pin(NamedTuple):
    """One pinned equality of a comprehension's link to its parent:
    ``child`` (a column of this level's generators) is declared to
    reference ``parent`` (a column of the parent level's)."""

    child: VarField
    parent: VarField


class Rekey(NamedTuple):
    """How one comprehension of a natural statement departs from the
    natural index, as the package's edge decision made it:

    * ``anchor`` — the first block kept: the generators of the blocks
      before it leave FROM and their conditions WHERE, and block
      ``anchor``'s condition becomes ``where``, its conjuncts that read no
      dropped generator (every other one is a pinned link);
    * ``outer`` — the pins keying the outer index (this comprehension's own
      level is pinned); empty: the natural keys of the kept blocks;
    * ``items`` — ``(item leaf path, pins)`` per nested bag whose child is
      pinned: that item index projects the pins' parent columns, in order;
    * ``links`` — the pinned equalities of every dropped conjunct.
    """

    anchor: int = 0
    outer: tuple[Pin, ...] = ()
    items: tuple[tuple[tuple[str, ...], tuple[Pin, ...]], ...] = ()
    links: tuple[Pin, ...] = ()
    where: BaseExpr = TRUE_NF


@dataclass
class CompiledSql:
    """One shredded query compiled to SQL, with decode metadata.

    The compiled :meth:`fold` is memoised per instance, so a cached plan
    folds every subsequent run through the same function.
    """

    statement: Statement
    sql: str
    row_type: RecordType  # ⟨item: F, outer: Index⟩
    width_fn: Callable[[tuple[str, ...]], int] | int
    natural: bool
    #: ``flatten_type(row_type, width_fn)``, as codegen built the
    #: statement's items from it — every later reader takes it from here.
    flat_columns: tuple[FlatColumn, ...] = field(repr=False, compare=False)
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
    _fold: Callable | None = field(default=None, repr=False, compare=False)
    #: (table, columns) index hints mined from the statement — memoised by
    #: the batched executor so repeat runs of a cached plan skip the AST walk.
    index_hints: tuple | None = field(default=None, repr=False, compare=False)
    #: Index leaves (``("outer",)``, ``("item", …)``) whose keys are *bare*
    #: — their dynamic parts alone, no tag — as :func:`key_edges` decided
    #: for the package; empty for a statement folded on its own.
    bare_keys: frozenset[tuple[str, ...]] = field(
        default=frozenset(), repr=False, compare=False
    )
    #: Per UNION branch, the :class:`Rekey` it was compiled under (None:
    #: natural); empty when no branch departs from the natural index.
    rekeys: tuple[Rekey | None, ...] = field(default=(), repr=False)

    def fold(self) -> Callable[..., None]:
        """``fold(rows, grouped, *child_buckets)``: the batched engine's one
        pass over a statement's rows (any iterable of tuples holding
        exactly one cell per :attr:`columns` entry, in order, such as the
        executor's ``zip(*columns)``) — built once per plan from
        :attr:`fold_source`, which unpacks each row into locals, so no
        row tuple is kept or subscripted.

        Each row becomes its *final* record, appended under its outer key
        in ``grouped`` (``{outer key: [record, …]}``, encounter order).
        ``child_buckets`` are the ``grouped`` dicts of the statements one
        nesting level down, already folded, one per index leaf of the item
        type in field order: where App. E would decode an index, the
        record takes the child's bucket list itself — no copy, no stored
        key, no second pass.  That is sound because a natural item index is
        injective per comprehension row (§4.2/§6.1), so no bucket has two
        parents.  A pinned one (:attr:`pinned_leaves`) is not — parents
        sharing a join value share its key — so the first parent takes the
        bucket and every later one a copy of it (:func:`repro.values.
        copy_tree`): the result stays a tree.

        Keys come in two shapes, and both folds of a parent→child edge
        build the same one (:func:`key_edges` decides per edge):

        * **bare** — the index's dynamic parts alone: the value itself when
          there is one part (a key column, or a row number in the flat
          scheme), else their tuple.  Only where the tag is the same
          literal on both sides and neither pads the key with NULLs, so
          every key of the edge would carry that one tag;
        * **tagged** — the flat ``(tag, key…)`` tuple, NULL padding
          stripped.  Everywhere else, and always for the top-level
          ``(TOP_TAG, 1)``.

        Property-tested against :meth:`decode_rows` +
        :func:`repro.shred.stitch.stitch`.
        """
        if self._fold is None:
            self._fold = _load_fold(self.fold_source)
        return self._fold

    @functools.cached_property
    def _leaves(self) -> dict[tuple[str, ...], list[str]]:
        """Leaf path → its column names (an index leaf's are tag, dyn1, …).
        Read once the statement is final, like :attr:`_padded`: by
        :func:`key_edges` and :attr:`fold_source`."""
        leaves: dict[tuple[str, ...], list[str]] = {}
        for column in self.flat_columns:
            leaves.setdefault(column.path, []).append(column.name)
        return leaves

    @functools.cached_property
    def _padded(self) -> frozenset[str]:
        """Projected columns that are NULL in some branch: the padding of a
        union whose branches bind different numbers of key columns (§6.1)."""
        return frozenset(
            item.alias
            for select in self.statement.selects
            for item in select.items
            if item.expr == Lit(None)
        )

    def literal_tag(self, path: tuple[str, ...]) -> str | None:
        """The tag every key of the index leaf at ``path`` carries, when it
        is one literal and no key column of the leaf is NULL padding (in
        some branch, or in all); else None."""
        constants = dict(self.constants)
        tag_column, *dynamic = self._leaves[path]
        tag = constants.get(tag_column)
        if not isinstance(tag, str) or any(
            name in self._padded or (name in constants and constants[name] is None)
            for name in dynamic
        ):
            return None
        return tag

    @functools.cached_property
    def pinned_leaves(self) -> frozenset[tuple[str, ...]]:
        """Item index leaves some branch pins (see :class:`Rekey`)."""
        return frozenset(
            leaf for rekey in self.rekeys if rekey for leaf, _pins in rekey.items
        )

    @property
    def fold_source(self) -> str:
        """The Python source of :meth:`fold` (for ``repro lint``, debugging
        and tests).  Every column is resolved to its literal or to the
        local its row unpacks it into (``for v0, v1, … in rows``: no row
        tuple is subscripted, and ``zip`` reuses the tuple it yields) up
        front; literals and labels enter through ``repr``."""
        positions = {name: i for i, name in enumerate(self.columns)}
        cells = ", ".join(f"v{i}" for i in range(len(positions)))
        target = cells + "," if len(positions) == 1 else cells
        constants = dict(self.constants)
        leaves = self._leaves
        padded = self._padded
        children = 0

        def key(path: tuple[str, ...]) -> str:
            """The key of the index leaf at ``path``, bare or tagged."""
            bare = path in self.bare_keys
            parts = [
                repr(constants[name]) if name in constants else f"v{positions[name]}"
                for name in leaves[path][1 if bare else 0 :]
                if constants.get(name, ...) is not None  # literal padding
            ]
            if bare and len(parts) == 1:
                return parts[0]
            flat = "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"
            if padded.isdisjoint(leaves[path]):
                return flat
            return f"tuple([part for part in {flat} if part is not None])"

        takes: list[bool] = []

        def value(f: Type, path: tuple[str, ...]) -> str:
            nonlocal children
            if isinstance(f, IndexType):
                children += 1
                i, k = children - 1, key(path)
                takes.append(path in self.pinned_leaves)
                if takes[-1]:
                    # First parent of a key takes the bucket, later ones a copy.
                    return f"(take{i}({k}, None) or (_copy(c{i}[{k}]) if {k} in c{i} else []))"
                return f"(get{i}({k}) or [])"
            if isinstance(f, BaseType):
                (name,) = leaves[path]
                if name in constants:
                    return repr(decode_base(constants[name], f))
                cell = f"v{positions[name]}"
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
        lines = [f"def fold(rows, grouped{arguments}):"]
        lines += [
            f"    take{i} = dict(c{i}).pop" if take else f"    get{i} = c{i}.get"
            for i, take in enumerate(takes)
        ]
        if constants.keys() >= set(leaves[("outer",)]):
            # One context for every row (the top-level ⊤·1): no grouping.
            lines.append(
                f"    grouped.setdefault({outer}, []).extend([{item} for {target} in rows])"
            )
        else:
            lines += [
                "    get = grouped.get",
                f"    for {target} in rows:",
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
        one JSON array per projected column, in the statement's row order
        (an ``ordered`` statement's ``ORDER BY`` is consumed in order; a
        test pins it).  The only way the batched engines read a statement,
        and what a shard answers a ``result: "shredded"`` request with;
        either way ``zip(*columns)`` feeds :meth:`fold`.  Exact for the
        base types there are: Int, String, and Bool as the 0/1 the fold
        already applies ``bool()`` to."""
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
    namespace: dict[str, object] = {"_copy": copy_tree}
    exec(compile(source, "<fold>", "exec"), namespace)
    return namespace["fold"]  # type: ignore[return-value]


def key_edges(sql_package: PkgBag) -> None:
    """Decide the key shape of every parent→child edge of a compiled
    package, once, before anything folds it (see :meth:`CompiledSql.fold`).

    A child's fold files rows under its *outer* index and the parent's
    fold looks them up by the index leaf of its *item* at that edge, so
    both must build the same key.  The edge is bare — both statements'
    :attr:`CompiledSql.bare_keys` gain it — iff the leaf's tag is one
    literal on the parent's side, the child's outer tag is the same
    literal, and neither side pads the key with NULLs
    (:meth:`CompiledSql.literal_tag`): then every key of the edge carries
    that one tag and dropping it loses nothing.  Both sides are needed: a
    union parent can keep a branch (tag a column) whose child branch
    normalisation removed (tag a literal), and a child keyed bare under a
    tagged parent would match nothing."""

    def edges(node: Package, path: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], PkgBag]]:
        """(item leaf path, child bag) in field order."""
        if isinstance(node, PkgBag):
            yield path, node
        elif isinstance(node, PkgRecord):
            for label, sub in node.fields:
                yield from edges(sub, path + (label,))

    def visit(bag: PkgBag) -> None:
        parent = bag.annotation
        for leaf, child_bag in edges(bag.element, ("item",)):
            child = child_bag.annotation
            tag = parent.literal_tag(leaf)
            if tag is not None and tag == child.literal_tag(("outer",)):
                parent.bare_keys |= {leaf}
                child.bare_keys |= {("outer",)}
            visit(child_bag)

    visit(sql_package)


def compile_shredded(
    shredded: ShredQuery,
    element_type: Type,
    schema: Schema,
    options: SqlOptions = SqlOptions(),
    tracer=None,
    rekeys: Mapping[str, Rekey] | None = None,
) -> CompiledSql:
    """Compile one shredded query whose bag element type is ``element_type``.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives an ``optimize``
    span with one child per attempted rule.  ``rekeys`` (static tag →
    :class:`Rekey`, the package's edge decision) realises pinned indexes
    in a natural plan; without it every index is natural.
    """
    item_type = inner_shred(element_type)
    row_type = RecordType((("item", item_type), ("outer", INDEX)))
    from repro.check.verifier import verification_enabled

    verify = verification_enabled(options)
    scheme, _why = resolve_scheme(schema, options)
    if scheme == "natural":
        compiled = _compile_natural(shredded, row_type, schema, options, rekeys)
        if verify and compiled.rekeys:
            from repro.check.verifier import verify_rekeyed

            verify_rekeyed(compiled, shredded, schema)
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
            compiled.sql = render_statement(optimized)
        compiled.fired_rules = tuple(trace)
    compiled.params = placeholder_names(compiled.statement)
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
    flat_columns = tuple(flatten_type(row_type, 1))
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
        sql=render_statement(statement),
        row_type=row_type,
        width_fn=1,
        natural=False,
        flat_columns=flat_columns,
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
    rekeys: Mapping[str, Rekey] | None = None,
) -> CompiledSql:
    ctx = _ExprContext(schema)
    # Per comprehension: its rekey, kept generators and conditions, and the
    # key expressions realising its outer index, its own (natural) index and
    # the item indexes it pins.
    keyed = []
    for comp in shredded.comps:
        rekey = rekeys.get(comp.tag) if rekeys else None
        blocks = comp.blocks
        wheres = [block.where for block in blocks]
        pinned: dict[tuple[str, ...], list[SqlExpr]] = {}
        if rekey is not None:
            if rekey.anchor:
                blocks = blocks[rekey.anchor :]
                wheres = [rekey.where] + wheres[rekey.anchor + 1 :]
            pinned = {
                leaf: [Col(pin.parent.var, pin.parent.label) for pin in pins]
                for leaf, pins in rekey.items
            }
        generators = tuple(g for block in blocks for g in block.generators)
        if comp.outer.tag == TOP_TAG:
            outer_keys: list[SqlExpr] = [Lit(1)]  # ⊤·1, as in the flat form
        elif rekey is not None and rekey.outer:
            outer_keys = [Col(pin.child.var, pin.child.label) for pin in rekey.outer]
        else:
            outer_keys = _key_exprs(
                tuple(g for block in blocks[:-1] for g in block.generators), schema
            )
        inner_keys = _key_exprs(generators, schema)
        keyed.append((comp, generators, wheres, outer_keys, inner_keys, pinned))
    outer_width = max([1] + [len(k[3]) for k in keyed])
    inner_width = max([1] + [len(k[4]) for k in keyed])
    # A leaf some branch pins is as wide as its widest branch, pinned or not.
    pinned_widths = {
        leaf: max([1] + [len(k[5].get(leaf, k[4])) for k in keyed])
        for k in keyed
        for leaf in k[5]
    }

    def width_fn(path: tuple[str, ...]) -> int:
        if path == ("outer",):
            return outer_width
        return pinned_widths.get(path, inner_width)

    flat_columns = tuple(flatten_type(row_type, width_fn))
    names = tuple(c.name for c in flat_columns)
    selects: list[SelectCore] = []
    for comp, generators, wheres, outer_keys, inner_keys, pinned in keyed:
        # §6.1: pad the narrower branches of a union with NULLs.
        for leaf, width in pinned_widths.items():
            keys = pinned.setdefault(leaf, inner_keys[:])
            keys += [Lit(None)] * (width - len(keys))
        outer_keys += [Lit(None)] * (outer_width - len(outer_keys))
        inner_keys += [Lit(None)] * (inner_width - len(inner_keys))
        selects.append(
            SelectCore(
                tuple(
                    SelectItem(
                        _natural_column_expr(
                            column, comp, ctx, outer_keys, pinned.get(column.path, inner_keys)
                        ),
                        column.name,
                    )
                    for column in flat_columns
                ),
                tuple(TableRef(g.table, g.var) for g in generators),
                _where_sql(wheres, ctx),
            )
        )

    if not selects:
        selects.append(_empty_select(names))

    selects, columns, constants = _drop_constant_columns(names, selects)
    statement = Statement((), tuple(selects), columns)
    branch_rekeys = tuple(rekeys.get(comp.tag) for comp in shredded.comps) if rekeys else ()
    return CompiledSql(
        statement=statement,
        sql=render_statement(statement),
        row_type=row_type,
        width_fn=width_fn,
        natural=True,
        flat_columns=flat_columns,
        columns=columns,
        constants=constants,
        rekeys=branch_rekeys if any(branch_rekeys) else (),
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
