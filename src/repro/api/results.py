"""Results and prepared queries: the façade's execution-side surface.

A :class:`Prepared` pairs a λNRC term with the :class:`~repro.api.session.
Session` that will run it.  Compilation happens lazily (and hits the
session's plan cache); every ``run`` produces a :class:`Result` that carries
the stitched nested value *and* the :class:`~repro.backend.executor.
ExecutionStats` of that run, so callers inspect engine behaviour without
touching pipeline internals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.backend.executor import ExecutionStats
from repro.errors import ShreddingError
from repro.values import NestedValue, render

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session
    from repro.nrc.ast import Term
    from repro.pipeline.shredder import CompiledQuery


class Runnable:
    """Mixin giving query-shaped objects the run/sql/explain surface.

    Anything that can produce a λNRC term (the fluent :class:`~repro.api.
    fluent.Query`, a union of queries, …) mixes this in and delegates to
    its session's :meth:`~repro.api.session.Session.prepare`.
    """

    _session: "Session"

    def term(self) -> "Term":
        raise NotImplementedError

    def prepare(self) -> "Prepared":
        """Compile (or fetch from the plan cache) without executing."""
        return self._session.prepare(self)

    def run(self, **kwargs: Any) -> "Result":
        """Compile and execute; see :meth:`Prepared.run` for the knobs."""
        return self.prepare().run(**kwargs)

    def sql(self) -> str:
        """The flat SQL this query shreds into, one block per path."""
        return self.prepare().sql()

    @property
    def sql_by_path(self) -> list[tuple[str, str]]:
        return self.prepare().sql_by_path

    def explain(self, **kwargs: Any) -> "str | dict":
        """Compilation + engine report; ``trace=True`` adds a traced run's
        span tree, ``json=True`` returns the structured dict."""
        return self.prepare().explain(**kwargs)

    def to_dicts(self, **kwargs: Any) -> list:
        """Run and return the nested value as plain dicts/lists."""
        return self.run(**kwargs).to_dicts()


class Prepared(Runnable):
    """A query bound to a session, compiled on first use.

    The compiled plan is cached on the instance (and, when the session has
    a plan cache, shared across structurally identical queries).  ``stats()``
    returns the :class:`ExecutionStats` of the most recent :meth:`run`.
    """

    def __init__(self, session: "Session", term: "Term") -> None:
        self._session = session
        self._term = term
        self._compiled: "CompiledQuery | None" = None
        self._last_stats: ExecutionStats | None = None

    def term(self) -> "Term":
        return self._term

    def prepare(self) -> "Prepared":
        return self

    @property
    def compiled(self) -> "CompiledQuery":
        """The underlying :class:`~repro.pipeline.shredder.CompiledQuery`."""
        return self._ensure_compiled()

    def _ensure_compiled(self, tracer=None) -> "CompiledQuery":
        if self._compiled is None:
            self._compiled = self._session._compile(self._term, tracer=tracer)
        return self._compiled

    @property
    def query_count(self) -> int:
        """Number of flat queries = nesting degree of the result type."""
        return self.compiled.query_count

    @property
    def params(self) -> tuple[str, ...]:
        """Host-parameter names every :meth:`run` must bind
        (``run(params={name: value, …})``)."""
        return self.compiled.param_names

    @property
    def sql_by_path(self) -> list[tuple[str, str]]:
        """Human-readable (path, SQL) pairs — one per nesting level."""
        return self.compiled.sql_by_path

    def sql(self) -> str:
        return "\n\n".join(
            f"-- query at path {path}\n{sql}" for path, sql in self.sql_by_path
        )

    def run(
        self,
        engine: str | None = None,
        collection: str = "bag",
        stats: ExecutionStats | None = None,
        trace: object = None,
        **kwargs: Any,
    ) -> "Result":
        """Execute on the session's database and stitch the nested result.

        ``engine`` defaults to the session's engine (``"auto"`` is the
        batched engine — see
        :meth:`~repro.api.session.Session.resolve_engine`); ``collection``
        selects bag/set/list semantics; extra keyword arguments
        (``params`` for host-parameter bindings, ``create_indexes``,
        ``connection``) pass
        through to :meth:`~repro.pipeline.shredder.CompiledQuery.run`.
        ``stats`` (if given) additionally accumulates this run's stats.

        ``trace=True`` (or an existing :class:`repro.obs.Tracer`) records
        a nested span tree for the whole run — compile (on first use),
        per-statement execution, stitch — surfaced on
        :attr:`Result.trace`.
        """
        tracer = None
        if trace:
            from repro.obs import Tracer

            tracer = trace if isinstance(trace, Tracer) else Tracer()
        if tracer is None:
            compiled = self._ensure_compiled()
            resolved = self._session.resolve_engine(engine, compiled)
            run_stats = ExecutionStats()
            value = compiled.run(
                self._session.db,
                engine=resolved,
                collection=collection,
                stats=run_stats,
                **kwargs,
            )
        else:
            with tracer.span("query") as root:
                compiled = self._ensure_compiled(tracer)
                resolved = self._session.resolve_engine(engine, compiled)
                root.set(engine=resolved, statements=compiled.query_count)
                run_stats = ExecutionStats()
                value = compiled.run(
                    self._session.db,
                    engine=resolved,
                    collection=collection,
                    stats=run_stats,
                    tracer=tracer,
                    **kwargs,
                )
        self._last_stats = run_stats
        self._session._merge_stats(run_stats)
        if stats is not None:
            stats.merge(run_stats)
        return Result(
            value=value, stats=run_stats, engine=resolved, trace=tracer
        )

    def stats(self) -> ExecutionStats:
        """The :class:`ExecutionStats` of the most recent :meth:`run`."""
        if self._last_stats is None:
            raise ShreddingError(
                "no execution stats yet: call .run() first"
            )
        return self._last_stats

    def diagnostics(self, placement: object = None) -> list:
        """Static :class:`~repro.check.diagnostics.Diagnostic` findings for
        this query, most severe first: dead host parameters, the shredding
        bound, advisory-index hints — plus the shard-plan attribution (why
        the query fans out / routes / falls back) when a
        :class:`~repro.shard.placement.Placement` is given.  Compiles (via
        the plan cache) but never executes."""
        from repro.check.diagnostics import collect_diagnostics

        return collect_diagnostics(self.compiled, placement=placement)

    def explain(
        self, trace: object = False, json: bool = False
    ) -> "str | dict":
        """The pipeline's compilation report plus the façade's engine and
        optimizer summary for this query.

        ``trace=True`` *executes the query once* with tracing on and
        appends the rendered span tree (or pass an existing
        :class:`repro.obs.Tracer` to render spans already recorded).
        ``json=True`` returns the same content as one machine-readable
        dict — the shared shape of explain/trace/diagnostics structured
        output (also ``repro sql --json`` and ``repro trace --json``).
        """
        tracer = None
        if trace:
            from repro.obs import Tracer

            if isinstance(trace, Tracer):
                tracer = trace
            else:
                tracer = self.run(trace=True).trace
        if json:
            return self.explain_payload(tracer)
        report = self._explain_text()
        if tracer is not None:
            from repro.obs import render_trace

            report += "\n\ntrace:\n" + render_trace(tracer)
        return report

    def explain_payload(self, tracer: object = None) -> dict:
        """:meth:`explain` as one JSON-serialisable dict."""
        from dataclasses import asdict

        compiled = self.compiled
        resolved = self._session.resolve_engine(None, compiled)
        payload: dict = {
            "engine": {
                "policy": self._session.engine,
                "resolved": resolved,
            },
            "optimizer": {
                "enabled": compiled.options.optimize,
                "fired_rules": list(compiled.fired_rules),
            },
            "plan_cache": self._session.pipeline.cache is not None,
            "result_type": str(compiled.result_type),
            "index_scheme": compiled.index_scheme,
            "statement_count": compiled.query_count,
            "params": [
                {"name": name, "type": str(ptype)}
                for name, ptype in compiled.param_specs
            ],
            "statements": [
                {"path": path, "sql": sql}
                for path, sql in compiled.sql_by_path
            ],
            "diagnostics": [
                asdict(diag) for diag in self.diagnostics()
            ],
        }
        if tracer is not None:
            payload["trace"] = tracer.to_dict()
        return payload

    def _explain_text(self) -> str:
        compiled = self.compiled
        resolved = self._session.resolve_engine(None, compiled)
        header = [
            f"engine         : {self._session.engine}"
            + (f" → {resolved}" if self._session.engine == "auto" else ""),
            f"optimizer      : "
            f"{'on' if compiled.options.optimize else 'off'}",
        ]
        if compiled.options.optimize:
            header.append(
                "rules fired    : "
                + (", ".join(compiled.fired_rules) or "none (all inert)")
            )
        header.append(
            f"plan cache     : "
            f"{'on' if self._session.pipeline.cache is not None else 'off'}"
        )
        return "\n".join(header) + "\n" + compiled.explain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "compiled" if self._compiled is not None else "uncompiled"
        return f"<Prepared {state} query on {self._session!r}>"


class Result:
    """A stitched nested value plus the stats of the run that produced it.

    Iterates (and indexes) like the underlying list of rows; ``engine`` is
    the concrete engine the run used after ``"auto"`` resolution;
    ``trace`` is the :class:`repro.obs.Tracer` of the run when it was
    traced (``run(trace=True)``), else None.
    """

    __slots__ = ("value", "stats", "engine", "trace")

    def __init__(
        self,
        value: NestedValue,
        stats: ExecutionStats,
        engine: str,
        trace: object = None,
    ) -> None:
        self.value = value
        self.stats = stats
        self.engine = engine
        self.trace = trace

    def to_dicts(self) -> list:
        """The nested value as a plain list of dicts/lists/base values."""
        return list(self.value)

    def sorted_by(self, *labels: str) -> list:
        """Rows sorted by the given record field(s) — a display helper
        (bags are unordered; use ``collection="list"`` for real ordering)."""
        return sorted(
            self.value, key=lambda row: tuple(row[label] for label in labels)
        )

    def render(self) -> str:
        """Pretty-print the nested value (the paper's ⟨…⟩ notation)."""
        return render(self.value)

    def __iter__(self) -> Iterator:
        return iter(self.value)

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, item):
        return self.value[item]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Result rows={len(self.value)} engine={self.engine!r} "
            f"queries={self.stats.queries}>"
        )
