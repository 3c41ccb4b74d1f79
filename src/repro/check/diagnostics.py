"""Query diagnostics: static feedback about a compiled query.

Where :mod:`repro.check.verifier` rejects *malformed* IR, this module
explains *well-formed but surprising* queries: parameters that can never
affect the result, why the shardability analysis refused to distribute a
query, how many flat statements the shredding bound guarantees, and which
advisory indexes the batched engine will want.  Surfaced as
``Prepared.diagnostics()``, ``Session.lint()`` and ``python -m repro lint``.

Diagnostic codes
----------------

========  ========  ======================================================
code      severity  meaning
========  ========  ======================================================
QS101     warning   declared host parameter bound by no SQL statement
QS102     error     SQL binds a placeholder the term never declares
QS201     info      shard plan + cause (why fanout/routed/single/fallback)
QS301     info      advisory (covering) index the batched engine will create
QS401     info      statement count vs. the paper's shredding bound
========  ========  ======================================================

Severities: ``error`` (internal invariant breach — should never survive a
verified compile), ``warning`` (almost certainly a query bug), ``info``
(explanatory).  The lint CLI exits nonzero iff any diagnostic is a warning
or an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.shredder import CompiledQuery
    from repro.shard.placement import Placement

__all__ = ["Diagnostic", "collect_diagnostics", "has_failures", "SEVERITIES"]

#: Recognised severities, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One finding about a compiled query.

    ``span`` is a logical locator (``"param :dept"``, ``"package"``,
    ``"table employees"``) — the IRs carry no source positions, so spans
    name the construct rather than a line.
    """

    code: str
    severity: str
    span: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return f"{self.code} {self.severity} [{self.span}] {self.message}"


def collect_diagnostics(
    compiled: "CompiledQuery",
    placement: "Placement | None" = None,
) -> list[Diagnostic]:
    """Every diagnostic for one compiled plan, most severe first.

    ``placement`` (optional) adds the shard-plan attribution: which mode
    the shardability analysis chose and *why* — for fallback plans, the
    exact table/shape that forced the full-copy shard.
    """
    from repro.shred.packages import annotations

    diags: list[Diagnostic] = []
    members = list(annotations(compiled.sql_package))

    declared = dict(compiled.param_specs)
    bound: set[str] = set()
    for _path, member in members:
        bound.update(member.params)
    for name in sorted(set(declared) - bound):
        diags.append(
            Diagnostic(
                "QS101",
                "warning",
                f"param :{name}",
                f"host parameter :{name} ({declared[name]}) is declared by "
                "the query term but bound by none of its "
                f"{len(members)} SQL statement(s); run(params=…) still "
                "requires a value that can never affect the result — "
                "remove the parameter or the dead condition around it",
            )
        )
    for name in sorted(bound - set(declared)):
        diags.append(
            Diagnostic(
                "QS102",
                "error",
                f"param :{name}",
                f"generated SQL binds :{name}, which the query term never "
                "declares — an internal pipeline invariant breach "
                "(re-run with verification on)",
            )
        )

    if placement is not None:
        diags.append(_shard_diagnostic(compiled, placement))

    diags.extend(_index_diagnostics(compiled, members))
    diags.append(_bound_diagnostic(compiled, members))

    order = {severity: rank for rank, severity in enumerate(SEVERITIES)}
    diags.sort(key=lambda d: (order[d.severity], d.code, d.span))
    return diags


def _shard_diagnostic(
    compiled: "CompiledQuery", placement: "Placement"
) -> Diagnostic:
    from repro.shard.analysis import analyse

    plan = analyse(compiled.normal_form, placement)
    span = f"shard-plan ({plan.mode})"
    if plan.mode == "fallback":
        message = (
            "this query cannot be distributed and will run on the "
            f"full-copy fallback shard: {plan.reason}"
        )
    elif plan.mode == "routed":
        message = (
            f"routed to a single shard of {plan.table!r} via "
            f"{plan.key_column!r}: {plan.reason}"
        )
    elif plan.mode == "single":
        message = f"runs on any one shard: {plan.reason}"
    else:  # fanout
        message = (
            f"fans out across every shard of {plan.table!r}: {plan.reason}"
        )
    return Diagnostic("QS201", "info", span, message)


def _index_diagnostics(compiled: "CompiledQuery", members: list) -> list[Diagnostic]:
    """One QS301 per index the batched engine will build — the columns
    :meth:`~repro.backend.database.Database.ensure_index` creates it on,
    from the same :func:`~repro.backend.database.covering_columns`."""
    from repro.backend.database import covering_columns
    from repro.backend.executor import index_hints

    hints = {hint for _path, member in members for hint in index_hints(member)}
    diags = []
    for table, columns in sorted(hints):
        covered = covering_columns(compiled.schema, table, columns)
        if covered is None:
            continue  # not a base table: ensure_index builds nothing
        diags.append(
            Diagnostic(
                "QS301",
                "info",
                f"table {table}",
                f"the batched engine will create an advisory index on "
                f"{table}({', '.join(covered)}) before the first run — "
                f"searched on {', '.join(columns)}, covering the table so "
                "no lookup reads a table row (pre-create it to move the "
                "cost out of query latency)",
            )
        )
    return diags


def _bound_diagnostic(compiled: "CompiledQuery", members: list) -> Diagnostic:
    count = len(members)
    return Diagnostic(
        "QS401",
        "info",
        "package",
        f"compiles to exactly {count} flat statement(s) — one per nesting "
        "path of the result type, the paper's shredding bound; a naive "
        "nested-loop evaluation would instead issue one inner query per "
        f"outer row at each of the {max(count - 1, 0)} nested level(s) "
        "(the query avalanche)",
    )


def has_failures(diags: list[Diagnostic]) -> bool:
    """True iff any diagnostic is an error or a warning (the lint CLI's
    exit-nonzero condition)."""
    return any(d.severity in ("error", "warning") for d in diags)
