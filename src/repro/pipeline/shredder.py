"""The end-to-end shredding pipeline (Fig. 1c) — the engine room.

    normalise ──► annotate ──► shred (one query per path) ──► let-insert
    ──► flatten ──► SQL ──► execute ──► stitch

**The primary entry point now lives in** :mod:`repro.api`: a
:class:`~repro.api.session.Session` (``connect()``) owns a database, the
plan cache, the options and an engine policy, and fronts this module's
machinery with a fluent builder and the ``@query`` capture decorator::

    from repro.api import connect
    session = connect(db)
    session.query(term).run()

Constructing :class:`ShreddingPipeline` directly remains supported for
engine work (benchmarks, baselines, new translation stages).

Performance knobs:

* ``ShreddingPipeline(schema, cache=PlanCache())`` (or ``cache=True`` for
  the process-wide cache) makes repeat compiles O(hash) — keyed on the
  term's structural fingerprint, the schema fingerprint and the options;
* ``compiled.run(db, engine="batched")`` executes the whole package with
  advisory SQLite indexes, reads each statement as the column table
  SQLite's JSON1 writes for it, and runs one compiled fold per row,
  children first (decode fused into stitch) — the fast path for repeated
  execution of a cached plan (the ``shredding_cached`` benchmark system).
  Its keys are decided per parent→child edge once per compile
  (:func:`~repro.sql.codegen.key_edges`), and the same folds read a
  shard's tables at a fan-out coordinator (:meth:`CompiledQuery.fold_tables`);
* a schema that declares references lets :func:`decide_edges` *pin* a
  nested bag to its join column: its statement stops re-joining its
  ancestors (:class:`~repro.sql.codegen.Rekey`);
* ``compile(query, stats=…)`` / ``run(…, stats=…)`` record plan-cache
  hits/misses, per-query row counts and wall times in
  :class:`~repro.backend.executor.ExecutionStats`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.backend.database import Database
from repro.backend.executor import (
    ExecutionStats,
    checked_table,
    execute_compiled,
    execute_package_batched,
    execute_package_shredded,
    fold_package,
)
from repro.errors import BackendError, ShreddingError
from repro.normalise import normalise, normalise_cached
from repro.normalise.normal_form import (
    TRUE_NF,
    BaseExpr,
    Comprehension,
    NormQuery,
    NormTerm,
    PrimNF,
    RecordNF,
    VarField,
    conjoin,
    conjuncts,
    free_fields,
    nf_result_type,
)
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.types import BagType, Type, is_nested
from repro.obs.trace import traced
from repro.shred.indexes import FlatIndex, index_fn_for
from repro.shred.packages import (
    Package,
    annotation_at,
    annotations,
    package_from,
    shred_query_package,
)
from repro.shred.paths import DOWN, Path, paths, type_at
from repro.pipeline.plan_cache import PlanCache, PlanKey, plan_key, shared_plan_cache
from repro.shred.semantics import run_package
from repro.shred.stitch import stitch, stitch_grouped
from repro.sql.codegen import (
    CompiledSql,
    Pin,
    Rekey,
    SqlOptions,
    compile_shredded,
    key_edges,
    resolve_scheme,
)
from repro.values import NestedValue

__all__ = [
    "ShreddingPipeline",
    "CompiledQuery",
    "EdgePlan",
    "decide_edges",
    "KNOWN_ENGINES",
    "validate_engine",
]

#: The execution engines :meth:`CompiledQuery.run` accepts (the façade's
#: ``"auto"`` resolves to one of these before reaching the pipeline).
KNOWN_ENGINES = ("per-path", "batched", "parallel")

#: Python value classes accepted per declared parameter base type (bool is
#: excluded from Int — it is a subclass, but binding True to an Int
#: parameter is almost always a typo).
_PARAM_PYTHON_TYPES = {"Int": int, "Bool": bool, "String": str}


def collect_param_specs(query: ast.Term) -> tuple:
    """The sorted (name, type) host-parameter signature of a term.

    One name must carry one type everywhere it appears — conflicting
    declarations are an error, not a last-writer-wins merge.
    """
    specs: dict[str, object] = {}
    for sub in ast.subterms(query):
        if isinstance(sub, ast.Param):
            declared = specs.get(sub.name)
            if declared is not None and declared != sub.type:
                raise ShreddingError(
                    f"host parameter :{sub.name} declared with conflicting "
                    f"types {declared} and {sub.type}"
                )
            specs[sub.name] = sub.type
    return tuple(sorted(specs.items()))


@dataclass(frozen=True)
class EdgePlan:
    """A package's edge decision (:func:`decide_edges`): the
    :class:`~repro.sql.codegen.Rekey` of every comprehension (by static tag)
    whose statement branch departs from the natural index, and per
    statement path what each of its comprehensions' links came to."""

    rekeys: dict[str, Rekey]
    #: path steps → per comprehension: (the reason its link did not qualify,
    #: or "", its pins, the ``{variable: table}`` of each block in scope,
    #: the first block its statement keeps).
    outcomes: dict[tuple, list[tuple[str, tuple[Pin, ...], tuple[dict[str, str], ...], int]]]

    def note(self, path: Path) -> str:
        """The index realisation of the statement at ``path`` (``QS501``)."""
        seen = self.outcomes.get(path.steps, [])
        reason = next((reason for reason, *_rest in seen if reason), None)
        if not seen:
            text = "natural keys (no comprehension)"
        elif reason is None:
            text = "pinned: " + ", ".join(
                dict.fromkeys(
                    f"{_table(blocks, p.child.var)}.{p.child.label} → "
                    f"{_table(blocks, p.parent.var)}.{p.parent.label}"
                    for _r, pins, blocks, _a in seen
                    for p in pins
                )
            )
        elif reason == "top level":
            text = "top level (⊤·1)"
        else:
            text = f"natural keys ({reason})"
        dropped = sorted(
            {table for _r, _p, blocks, anchor in seen for block in blocks[:anchor]
             for table in block.values()}
        )
        return text + (f"; drops {', '.join(dropped)}" if dropped else "")


def _table(blocks: tuple[dict[str, str], ...], var: str) -> str:
    """The table ``var`` ranges over, innermost block first."""
    return next(block[var] for block in reversed(blocks) if var in block)


class _Level(NamedTuple):
    """Where one comprehension stands in the edge decision: the first block
    its statement keeps and that block's condition without its links,
    whether every row of its tables is a row of it (``whole``: the
    unfiltered top level, or a pinned level with no other condition), the
    pinned equalities at or above ``anchor``, and the ``{variable: table}``
    of each block in scope, outermost first."""

    anchor: int
    where: BaseExpr
    whole: bool
    links: tuple[Pin, ...]
    blocks: tuple[dict[str, str], ...]


def decide_edges(normal_form: NormQuery, schema: Schema) -> EdgePlan:
    """Decide, once per package, which parent→child edges are *pinned*.

    A nested bag is pinned when each of its comprehensions is linked to its
    parent only by equalities ``child.c = parent.p`` with ``c`` declared to
    reference ``p`` (conditions on the child's own generators allowed,
    nothing else of an ancestor read anywhere below), the parent level is
    *whole* (the unfiltered top level, or itself pinned with no other
    condition) and all of them pin the same parent columns.  Then the
    child's statement is keyed by the ``c`` columns and drops every
    ancestor generator, the parent projects the ``p`` columns as that
    field's item index, and statements further down count natural keys only
    from the nearest pinned level.  Parents that share a join value share a
    key, so the fold hands each of them the whole bag (copied after the
    first); a child row no parent asks for — possible only where a store
    breaks a declared reference — is read and never reached.  A function of
    the normal form and the schema alone: plans never depend on the rows.
    """
    rekeys: dict[str, Rekey] = {}
    outcomes: dict = {}

    def visit(query: NormQuery, steps: tuple, level: _Level | None) -> tuple[Pin, ...]:
        comps = query.comprehensions
        owns = [{g.var: g.table for g in comp.generators} for comp in comps]
        if level is None:
            links: list = [None] * len(comps)
            reason = "top level"
        else:
            links = [_link(comp, own, level, schema) for comp, own in zip(comps, owns)]
            reason = next((link for link in links if type(link) is str), None)
            if reason is None and len({tuple(p.parent for p in l[0]) for l in links}) > 1:
                reason = "union branches pin different parent columns"
        seen = outcomes.setdefault(steps, [])
        for comp, own, link in zip(comps, owns, links):
            pins: tuple[Pin, ...] = ()
            if level is None:
                here = _Level(0, comp.where, comp.where == TRUE_NF, (), (own,))
            elif reason is None:
                pins, where = link
                depth = len(level.blocks)
                blocks = level.blocks + (own,)
                here = _Level(depth, where, where == TRUE_NF, level.links + pins, blocks)
            else:
                blocks = level.blocks + (own,)
                here = _Level(level.anchor, level.where, False, level.links, blocks)
            seen.append((reason or "", pins, here.blocks, here.anchor))
            items = []
            for labels, sub in _nested_bags(comp.body, ()):
                child = visit(sub, steps + (DOWN,) + labels, here)
                if child:
                    items.append((("item",) + labels, child))
            if here.anchor or items:
                rekeys[comp.tag] = Rekey(  # type: ignore[index]
                    here.anchor, pins, tuple(items), here.links, here.where
                )
        return links[0][0] if reason is None and links else ()

    visit(normal_form, (), None)
    return EdgePlan(rekeys, outcomes)


def _link(
    comp: Comprehension, own: dict[str, str], level: _Level, schema: Schema
) -> tuple[tuple[Pin, ...], BaseExpr] | str:
    """The pinned equalities linking ``comp`` (binding ``own``) to its
    parent, the innermost block of ``level``, and the rest of its condition
    (on its own generators alone) — or why the link does not qualify."""
    if not level.whole:
        return "filtered ancestor"
    parent = level.blocks[-1]
    pins = []
    local = []
    for part in conjuncts(comp.where):
        if type(part) is PrimNF and part.op == "=":
            child, upper = part.args
            if type(child) is VarField and type(upper) is VarField:
                if upper.var in own:
                    child, upper = upper, child
                if child.var in own and upper.var in parent:
                    target = f"{parent[upper.var]}.{upper.label}"
                    if (child.label, target) not in schema.table(own[child.var]).references:
                        return f"no reference: {own[child.var]}.{child.label} = {target}"
                    pins.append(Pin(child, upper))
                    continue
        outside = [f for f in free_fields(part) if f.var not in own]
        if not outside:
            local.append(part)  # a condition on this level's generators alone
            continue
        far = next((f for f in outside if f.var not in parent), None)
        if far is not None:
            return f"reads ancestor column {_table(level.blocks, far.var)}.{far.label}"
        return "non-equality link"
    if not pins:
        return "no link"
    far = next(free_fields(comp.body, frozenset(own)), None)
    if far is not None:
        return f"reads ancestor column {_table(level.blocks, far.var)}.{far.label}"
    return tuple(pins), conjoin(local)


def _nested_bags(term: NormTerm, labels: tuple[str, ...]) -> list:
    """(record labels, nested query) of every bag in a comprehension body."""
    if type(term) is NormQuery:
        return [(labels, term)]
    bags = []
    if type(term) is RecordNF:
        for label, value in term.fields:  # type: ignore[union-attr]
            bags += _nested_bags(value, labels + (label,))
    return bags


def validate_engine(engine: str, extra: tuple[str, ...] = ()) -> None:
    """Reject unknown engine names up front with the known-engine list.

    ``extra`` admits façade-level aliases (``"auto"``) on top of
    :data:`KNOWN_ENGINES`.
    """
    known = tuple(extra) + KNOWN_ENGINES
    if engine not in known:
        raise ShreddingError(
            f"unknown execution engine {engine!r}; known engines: "
            + ", ".join(known)
        )


@dataclass
class CompiledQuery:
    """A nested query compiled to its package of flat SQL queries.

    ``cache_key`` is the :class:`~repro.pipeline.plan_cache.PlanKey` the
    plan was compiled under when the pipeline had a plan cache (None for
    uncached compiles).  A cached ``CompiledQuery`` is shared across calls:
    treat it as immutable.
    """

    schema: Schema
    result_type: Type
    normal_form: NormQuery
    shredded_package: Package  # annotations: ShredQuery
    sql_package: Package  # annotations: CompiledSql
    options: SqlOptions
    cache_key: PlanKey | None = field(default=None, compare=False)
    #: Host parameters of the query term, as sorted (name, BaseType) pairs:
    #: the prepared-statement signature every ``run(params=…)`` must bind.
    param_specs: tuple = field(default=())
    #: Optimizer rules that rewrote at least one statement of the package,
    #: in rule order — the fired-rule trace ``Prepared.explain()`` and
    #: ``ExecutionStats`` surface.  Empty when the optimizer is off or
    #: every rule was inert.
    fired_rules: tuple = field(default=(), compare=False)
    #: The package's edge decision (natural plans; None for flat ones).
    edges: EdgePlan | None = field(default=None, compare=False)

    @property
    def query_paths(self) -> list[Path]:
        return paths(self.result_type)

    @property
    def sql_by_path(self) -> list[tuple[str, str]]:
        """Human-readable (path, SQL) pairs — one per nesting level."""
        return [
            (str(path), compiled.sql)
            for path, compiled in annotations(self.sql_package)
        ]

    @property
    def query_count(self) -> int:
        """The number of flat queries = nesting degree of the result type."""
        return len(self.query_paths)

    @property
    def index_scheme(self) -> str:
        """The plan shape the schema and options resolved to, and why:
        ``"natural: keys"``, ``"flat: table 't' declares no key"``, …"""
        return ": ".join(resolve_scheme(self.schema, self.options))

    @functools.cached_property
    def plan_fingerprint(self) -> str:
        """A digest of the statements' SQL, in package order: two endpoints
        that report the same one fold each other's rows correctly (same
        columns, same key layout) — what a fan-out coordinator checks
        before folding a shard's column tables with its own compile."""
        digest = hashlib.sha1()
        for _path, compiled in annotations(self.sql_package):
            digest.update(compiled.sql.encode("utf-8") + b"\x00")
        return digest.hexdigest()[:16]

    @property
    def param_names(self) -> tuple[str, ...]:
        """The host-parameter names ``run(params=…)`` must bind."""
        return tuple(name for name, _type in self.param_specs)

    def check_params(self, params) -> dict[str, object]:
        """Validate host-parameter bindings against the declared specs.

        Every declared parameter must be bound with a value of its declared
        base type; unknown names are rejected (they are typos, not noise).
        Returns the validated bind dict.
        """
        supplied = dict(params or {})
        missing = [name for name, _t in self.param_specs if name not in supplied]
        if missing:
            raise ShreddingError(
                "missing host parameter(s): "
                + ", ".join(f":{name}" for name in missing)
            )
        known = {name for name, _t in self.param_specs}
        unknown = sorted(set(supplied) - known)
        if unknown:
            raise ShreddingError(
                "unknown host parameter(s): "
                + ", ".join(f":{name}" for name in unknown)
                + (
                    "; this query declares "
                    + (", ".join(f":{n}" for n in sorted(known)) or "none")
                )
            )
        for name, declared in self.param_specs:
            value = supplied[name]
            expected = _PARAM_PYTHON_TYPES.get(str(declared))
            if expected is None or not isinstance(value, expected) or (
                str(declared) != "Bool" and isinstance(value, bool)
            ):
                raise ShreddingError(
                    f"host parameter :{name} expects {declared}, got "
                    f"{type(value).__name__} ({value!r})"
                )
        return supplied

    def sql_at(self, path: Path) -> CompiledSql:
        return annotation_at(self.sql_package, path)

    def explain(self) -> str:
        """A human-readable compilation report: the result type, the paths
        it shreds at, and each level's shredded type, SQL and fold (the
        function the batched engine runs once per fetched row; ``c0``, ``c1``,
        … are the already-folded results one nesting level down)."""
        from repro.normalise.normal_form import pretty_nf
        from repro.shred.shred_types import outer_shred

        lines = [
            f"result type    : {self.result_type}",
            f"nesting degree : {self.query_count}",
            f"index scheme   : {self.index_scheme}",
            "",
            "normal form:",
            pretty_nf(self.normal_form),
        ]
        for path in self.query_paths:
            lines.append("")
            lines.append(f"── query at {path}")
            lines.append(
                f"   type : {outer_shred(self.result_type, path)}"
            )
            compiled = self.sql_at(path)
            if self.edges is not None:
                lines.append(f"   index: {self.edges.note(path)}")
            lines.append(f"   sql  : {compiled.sql}")
            fold = compiled.fold_source.rstrip().replace("\n", "\n          ")
            lines.append(f"   fold : {fold}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ run

    def run(
        self,
        db: Database,
        stats: ExecutionStats | None = None,
        collection: str = "bag",
        engine: str = "per-path",
        create_indexes: bool = True,
        params=None,
        connection=None,
        tracer=None,
        shredded: bool = False,
    ) -> NestedValue:
        """Execute all shredded queries on SQLite and stitch (§5.2).

        ``collection`` selects the §9 semantics of the result:

        * ``"bag"`` (default) — multisets, the paper's setting;
        * ``"set"`` — duplicates eliminated hereditarily in the result;
        * ``"list"`` — deterministic order; requires the pipeline to be
          built with ``SqlOptions(ordered=True)`` so the shredded queries
          carry ordering columns.

        ``engine`` selects the executor; every one reads each statement as
        the column table SQLite's JSON1 writes for it, in one fetch:

        * ``"per-path"`` (default) — one
          :func:`~repro.backend.executor.execute_compiled` call per
          shredded query, decoding into ⟨index, value⟩ pair lists that
          §5.2's ``stitch`` nests — the reference the fold is tested
          against;
        * ``"batched"`` — all queries of the package over the shared
          connection, with advisory SQLite indexes (``create_indexes``),
          then one fold per row, children first: each row becomes its
          final record, inner bags included, the one time Python touches
          it.  The fast path for repeated execution of a cached plan;
        * ``"parallel"`` — the batched engine with its statements' tables
          run by a pool of read-only connections (``REPRO_POOL_SIZE`` caps
          the pool) before the same fold runs on the calling thread.  Same
          results, same stats.

        ``params`` binds the query's host parameters (validated against the
        declared :attr:`param_specs` — the compile-once / re-bind-per-call
        prepared-statement path).  ``connection`` routes the batched engine
        onto a specific pooled read connection (service-layer leases).

        ``tracer`` (a :class:`repro.obs.Tracer`) receives ``execute``
        (with per-statement children) and ``stitch`` spans; on the batched
        engines the fold is the statements' ``decode`` and ``stitch`` only
        picks the finished ⊤·1 bucket.

        ``shredded`` stops before the stitch: the batched engine under bag
        semantics runs every statement in its column-table form and
        returns the per-statement ``(row count, JSON bytes)`` tables as
        SQLite wrote them
        (:func:`~repro.backend.executor.execute_package_shredded`) — a
        shard's half of a fan-out, stitched once at the coordinator.
        """
        validate_engine(engine)
        bound = self.check_params(params)
        if collection not in ("bag", "set", "list"):
            raise ShreddingError(f"unknown collection semantics {collection!r}")
        if collection == "list" and not self.options.ordered:
            raise ShreddingError(
                "list-semantics output needs SqlOptions(ordered=True)"
            )
        if shredded:
            if engine != "batched" or collection != "bag":
                raise ShreddingError(
                    "shredded results are the batched engine's, under bag "
                    f"semantics (got engine={engine!r}, collection={collection!r})"
                )
            with traced(tracer, "execute", engine=engine, shredded=True):
                return execute_package_shredded(
                    db,
                    self.sql_package,
                    stats=stats,
                    create_indexes=create_indexes,
                    params=bound,
                    connection=connection,
                    tracer=tracer,
                )
        if engine in ("batched", "parallel"):
            with traced(tracer, "execute", engine=engine):
                results = execute_package_batched(
                    db,
                    self.sql_package,
                    stats=stats,
                    create_indexes=create_indexes,
                    parallel=(engine == "parallel"),
                    params=bound,
                    connection=connection,
                    tracer=tracer,
                )
            with traced(tracer, "stitch"):
                value = stitch_grouped(results, self._top_key())
        elif engine == "per-path":
            with traced(tracer, "execute", engine=engine):
                results = package_from(
                    self.result_type,
                    lambda path: execute_compiled(
                        db,
                        self.sql_at(path),
                        stats,
                        params=bound,
                        connection=connection,
                        tracer=tracer,
                    ),
                )
            with traced(tracer, "stitch"):
                value = stitch(results, self._top_index_fn())
        else:
            raise ShreddingError(f"unknown execution engine {engine!r}")
        if collection == "set":
            from repro.values import dedup_nested

            return dedup_nested(value)
        return value

    def fold_tables(self, tables, outcomes: dict | None = None) -> NestedValue:
        """The nested value of column tables written elsewhere — a shard's
        ``result: "shredded"`` answer, one table per statement in package
        order: ``(count, JSON bytes)`` as SQLite wrote them, or ``{"n": …,
        "c": […]}`` off a frame.  The coordinator's half of a shredded run,
        and the batched engine's own decode-check-fold: every table is
        decoded and checked against its statement
        (:func:`~repro.backend.executor.checked_table`) before any is
        folded, so a :class:`BackendError` naming the first that does not
        fit leaves nothing half-built; then the engine's walk
        (:func:`~repro.backend.executor.fold_package`, ``outcomes`` as
        there) folds them and the ⊤·1 bucket is the answer."""
        members = [compiled for _path, compiled in annotations(self.sql_package)]
        if not isinstance(tables, list) or len(tables) != len(members):
            raise BackendError(f"expected {len(members)} tables")
        checked = {
            id(member): checked_table(member, table, f"table {position}")
            for position, (member, table) in enumerate(zip(members, tables))
        }
        grouped = fold_package(self.sql_package, lambda m: checked[id(m)], outcomes)
        return stitch_grouped(grouped, self._top_key())

    def run_in_memory(self, db: Database, scheme: str = "flat") -> NestedValue:
        """Evaluate with the shredded semantics S⟦−⟧ instead of SQL (§5.1)."""
        index = index_fn_for(scheme, self.normal_form, db, self.schema)
        results = run_package(self.shredded_package, db, index)
        return stitch(results, index)

    @staticmethod
    def _top_index_fn():
        """Every plan shape emits the top-level context as the literal ⊤·1."""
        return lambda tag, dyn: FlatIndex(tag, 1)

    @staticmethod
    def _top_key():
        """The top-level ⊤·1 context as the batched engine keys it — always
        the tagged ``(tag, 1)`` tuple, never bare (cf. ``CompiledSql.fold``)."""
        from repro.shred.shredded_ast import TOP_TAG

        return (TOP_TAG, 1)


class ShreddingPipeline:
    """Compile-and-run front end over a fixed schema.

    Knobs:

    ``options``
        :class:`~repro.sql.codegen.SqlOptions` — the §8 optimisations, the
        §6 indexing schemes and the §9 extensions.  Part of the plan-cache
        key: pipelines with different options never share plans.
    ``cache``
        A :class:`~repro.pipeline.plan_cache.PlanCache` making
        :meth:`compile` O(hash) on repeat queries: pass an instance to
        scope the cache, ``True`` for the process-wide shared cache, or
        ``None``/``False`` (default) to compile cold every time.  Keys
        combine the query term's structural fingerprint, the schema
        fingerprint and ``options``, so any input change misses.  With a
        cache enabled, normalisation is additionally
        memoised across option variants via
        :func:`~repro.normalise.norm.normalise_cached`.
    """

    def __init__(
        self,
        schema: Schema,
        options: SqlOptions | None = None,
        cache: PlanCache | bool | None = None,
    ) -> None:
        self.schema = schema
        self.options = options or SqlOptions()
        if cache is True:
            cache = shared_plan_cache()
        elif cache is False:
            cache = None
        self.cache: PlanCache | None = cache

    def compile(
        self,
        query: ast.Term,
        stats: ExecutionStats | None = None,
        tracer=None,
    ) -> CompiledQuery:
        """Compile ``query`` to its package of flat SQL queries.

        With a plan cache configured, a repeat compile of a structurally
        identical term is a single hash + dict lookup; ``stats`` (if
        given) receives the hit/miss count.  ``tracer`` (a
        :class:`repro.obs.Tracer`) receives a ``compile`` span — with
        ``normalise``/``shred``/``codegen`` children on a cache miss, or
        just the ``cached=True`` attribute on a hit.
        """
        if tracer is None:
            return self._compile(query, stats)
        with tracer.span("compile") as span:
            compiled = self._compile(query, stats, tracer=tracer, span=span)
        return compiled

    def _compile(
        self,
        query: ast.Term,
        stats: ExecutionStats | None,
        tracer=None,
        span=None,
    ) -> CompiledQuery:
        if self.cache is None:
            compiled = self._compile_cold(query, None, tracer=tracer)
            self._record_rules(compiled, stats)
            return compiled
        key = plan_key(query, self.schema, self.options)
        cached = self.cache.lookup(key)
        if stats is not None:
            stats.record_cache(cached is not None)
        if span is not None:
            span.set(cached=cached is not None)
        if cached is not None:
            self._record_rules(cached, stats)
            return cached
        compiled = self._compile_cold(query, key, tracer=tracer)
        self.cache.store(key, compiled)
        self._record_rules(compiled, stats)
        return compiled

    @staticmethod
    def _record_rules(
        compiled: CompiledQuery, stats: ExecutionStats | None
    ) -> None:
        """Fold the plan's fired-rule trace into ``stats`` (per compile —
        cache hits count too: the rules shaped the plan this compile uses)."""
        if stats is None:
            return
        for rule in compiled.fired_rules:
            stats.rules_fired[rule] = stats.rules_fired.get(rule, 0) + 1

    def _compile_cold(
        self, query: ast.Term, cache_key: PlanKey | None, tracer=None
    ) -> CompiledQuery:
        from repro.check.verifier import verification_enabled

        verify = verification_enabled(self.options)
        do_normalise = normalise if self.cache is None else normalise_cached
        with traced(tracer, "normalise"):
            normal_form = do_normalise(query, self.schema)
        result_type = self._result_type(normal_form, query)
        if verify:
            from repro.check.verifier import verify_normalisation

            verify_normalisation(query, normal_form, result_type, self.schema)
        with traced(tracer, "shred"):
            shredded_package = shred_query_package(normal_form, result_type)
        if verify:
            from repro.check.verifier import verify_shredded_package

            verify_shredded_package(shredded_package, result_type, self.schema)

        # compile_shredded runs the let-insertion and codegen-stage
        # verifiers (and, with the optimizer on, the per-rule rewrite
        # verifier) on each member — as decided above, once per compile.
        options = replace(self.options, verify=verify)
        edges = None
        if resolve_scheme(self.schema, options)[0] == "natural":
            edges = decide_edges(normal_form, self.schema)

        def codegen_at(path: Path) -> CompiledSql:
            with traced(tracer, "codegen", path=str(path)):
                return compile_shredded(
                    annotation_at(shredded_package, path),
                    self._element_type(result_type, path),
                    self.schema,
                    options,
                    cache_key=cache_key,
                    tracer=tracer,
                    rekeys=edges.rekeys if edges else None,
                )

        sql_package = package_from(result_type, codegen_at)
        key_edges(sql_package)
        param_specs = collect_param_specs(query)
        if verify:
            from repro.check.verifier import verify_compiled_package

            verify_compiled_package(
                sql_package, result_type, self.schema, param_specs
            )
        return CompiledQuery(
            schema=self.schema,
            result_type=result_type,
            normal_form=normal_form,
            shredded_package=shredded_package,
            sql_package=sql_package,
            options=self.options,
            cache_key=cache_key,
            param_specs=param_specs,
            fired_rules=_package_fired_rules(sql_package),
            edges=edges,
        )

    def run(self, query: ast.Term, db: Database, **kwargs) -> NestedValue:
        stats = kwargs.get("stats")
        return self.compile(query, stats=stats).run(db, **kwargs)

    def _result_type(self, normal_form: NormQuery, original: ast.Term) -> Type:
        """The result type, read off the normal form (see
        :func:`~repro.normalise.normal_form.nf_result_type`)."""
        result_type = nf_result_type(normal_form, original, self.schema)
        if not isinstance(result_type, BagType) or not is_nested(result_type):
            raise ShreddingError(
                f"shredding needs a nested bag-typed query, got {result_type}"
            )
        return result_type

    @staticmethod
    def _element_type(result_type: Type, path: Path) -> Type:
        bag = type_at(result_type, path)
        assert isinstance(bag, BagType)
        return bag.element


def _package_fired_rules(sql_package: Package) -> tuple:
    """The package's fired-rule trace: every optimizer rule that rewrote
    at least one member, in the optimizer's application order."""
    from repro.sql.optimizer import STATEMENT_RULES

    fired_anywhere: set[str] = set()
    for _path, compiled in annotations(sql_package):
        fired_anywhere.update(compiled.fired_rules)
    return tuple(name for name in STATEMENT_RULES if name in fired_anywhere)
