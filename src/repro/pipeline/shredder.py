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

Performance knobs (see ROADMAP.md "Performance architecture"):

* ``ShreddingPipeline(schema, cache=PlanCache())`` (or ``cache=True`` for
  the process-wide cache) makes repeat compiles O(hash) — keyed on the
  term's structural fingerprint, the schema fingerprint and the options;
* ``compiled.run(db, engine="batched")`` executes the whole package
  children first with advisory SQLite indexes and one compiled fold per
  fetched row (decode fused into stitch) — the fast path for repeated
  execution of a cached plan (the ``shredding_cached`` benchmark system);
* ``compiled.run(db, batch_size=…)`` bounds rows per ``fetchmany`` round
  trip on either engine (default ``DEFAULT_FETCH_BATCH``, 1024);
* ``compile(query, stats=…)`` / ``run(…, stats=…)`` record plan-cache
  hits/misses, per-query row counts and wall times in
  :class:`~repro.backend.executor.ExecutionStats`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

from repro.backend.database import Database
from repro.backend.executor import (
    ExecutionStats,
    execute_compiled,
    execute_package_batched,
    execute_package_shredded,
    fold_package,
)
from repro.errors import ShreddingError
from repro.normalise import normalise, normalise_cached
from repro.normalise.normal_form import NormQuery, nf_to_term
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.typecheck import infer
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
from repro.shred.paths import Path, paths, type_at
from repro.pipeline.plan_cache import PlanCache, PlanKey, plan_key, shared_plan_cache
from repro.shred.semantics import run_package
from repro.shred.stitch import stitch, stitch_grouped
from repro.sql.codegen import (
    CompiledSql,
    SqlOptions,
    compile_shredded,
    resolve_scheme,
)
from repro.values import NestedValue

__all__ = [
    "ShreddingPipeline",
    "CompiledQuery",
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
            lines.append(f"   sql  : {compiled.sql}")
            fold = compiled.fold_source.rstrip().replace("\n", "\n          ")
            lines.append(f"   fold : {fold}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ run

    def run(
        self,
        db: Database,
        one_pass_stitch: bool = True,
        stats: ExecutionStats | None = None,
        collection: str = "bag",
        engine: str = "per-path",
        batch_size: int | None = None,
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

        ``engine`` selects the executor:

        * ``"per-path"`` (default) — one
          :func:`~repro.backend.executor.execute_compiled` call per
          shredded query, decoding into ⟨index, value⟩ pair lists;
        * ``"batched"`` — all queries of the package over the shared
          connection, children first, with advisory SQLite indexes
          (``create_indexes``) and one fold per fetched row: each row
          becomes its final record, inner bags included, the one time
          Python touches it.  The fast path for repeated execution of a
          cached plan; requires ``one_pass_stitch``.
        * ``"parallel"`` — the batched engine with its statements
          executed and fetched by a pool of read-only connections
          (``REPRO_POOL_SIZE`` caps the pool) before the same fold runs on
          the calling thread.  Same results, same stats.

        ``batch_size`` bounds rows per ``fetchmany`` round trip (default
        ``DEFAULT_FETCH_BATCH``, 1024).

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
            if not one_pass_stitch:
                raise ShreddingError(
                    "the batched/parallel engines stitch as they decode; "
                    "use one_pass_stitch=True (or the per-path engine)"
                )
            with traced(tracer, "execute", engine=engine):
                results = execute_package_batched(
                    db,
                    self.sql_package,
                    stats=stats,
                    create_indexes=create_indexes,
                    batch_size=batch_size,
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
                        batch_size=batch_size,
                        params=bound,
                        connection=connection,
                        tracer=tracer,
                    ),
                )
            with traced(tracer, "stitch"):
                value = stitch(
                    results, self._top_index_fn(), one_pass=one_pass_stitch
                )
        else:
            raise ShreddingError(f"unknown execution engine {engine!r}")
        if collection == "set":
            from repro.values import dedup_nested

            return dedup_nested(value)
        return value

    def fold_rows(self, rows_of) -> NestedValue:
        """The nested value of statements' raw rows that were fetched
        elsewhere: the batched engine's walk and stitch with
        ``rows_of(compiled)`` as the row source
        (:func:`~repro.backend.executor.fold_package`) — the coordinator's
        half of a ``shredded`` run."""
        return stitch_grouped(
            fold_package(self.sql_package, rows_of), self._top_key()
        )

    def run_in_memory(
        self, db: Database, scheme: str = "flat", one_pass_stitch: bool = True
    ) -> NestedValue:
        """Evaluate with the shredded semantics S⟦−⟧ instead of SQL (§5.1)."""
        index = index_fn_for(scheme, self.normal_form, db, self.schema)
        results = run_package(self.shredded_package, db, index)
        return stitch(results, index, one_pass=one_pass_stitch)

    @staticmethod
    def _top_index_fn():
        """Every plan shape emits the top-level context as the literal ⊤·1."""
        return lambda tag, dyn: FlatIndex(tag, 1)

    @staticmethod
    def _top_key():
        """The top-level ⊤·1 context in the batched engine's flat-tuple
        index representation (cf. ``CompiledSql.fold``)."""
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
        # verifier) on each member.
        def codegen_at(path: Path) -> CompiledSql:
            with traced(tracer, "codegen", path=str(path)):
                return compile_shredded(
                    annotation_at(shredded_package, path),
                    self._element_type(result_type, path),
                    self.schema,
                    self.options,
                    cache_key=cache_key,
                    tracer=tracer,
                )

        sql_package = package_from(result_type, codegen_at)
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
        )

    def run(self, query: ast.Term, db: Database, **kwargs) -> NestedValue:
        stats = kwargs.get("stats")
        return self.compile(query, stats=stats).run(db, **kwargs)

    def _result_type(self, normal_form: NormQuery, original: ast.Term) -> Type:
        """The result type, inferred from the normal form (always closed and
        first-order, so inference never needs annotations).  The degenerate
        normal form ∅ erases the element type; fall back to the original
        term (which then needs an ``Empty(A)`` annotation)."""
        from repro.errors import TypeCheckError

        try:
            result_type = infer(nf_to_term(normal_form), self.schema)
        except TypeCheckError:
            result_type = infer(original, self.schema)
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
