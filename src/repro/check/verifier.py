"""Stage verifiers: ``-verify-each`` for the shredding pipeline.

Each pipeline stage has a verifier that re-establishes the invariants the
stage is supposed to preserve, using the *existing* typecheckers where one
exists (re-infer and compare) and direct structural walks where none does:

``verify_normalisation`` (after normalise)
    Variable hygiene over the normal form — every ``x.ℓ`` references a
    generator in scope, no duplicate binders in one comprehension, no
    binder capturing an enclosing one (the normaliser freshens, so capture
    always indicates a rewrite bug) — plus type preservation: the normal
    form re-checks against the pipeline's result type, and when the
    original term infers standalone the two types must agree (Theorem 1's
    typing half as an assertion).

``verify_shredded_package`` (after shred)
    The package's erasure is the result type, and every per-path shredded
    query re-checks against its ``shredded_row_type`` via the Fig. 13
    checker (Theorem 2 as an assertion).

``verify_let_inserted`` (flat plans only, where they let-insert)
    The let-inserted query re-checks against the shredded row type via
    the App. B checker (Theorem 5 as an assertion).

``verify_compiled_sql`` (after codegen)
    SQL well-formedness: every column reference resolves against its FROM
    scope (schema tables, earlier CTEs, subquery output), the CTE
    dependency graph is acyclic (bodies may only reference *earlier* CTEs
    — exactly the WITH-clause evaluation order), FROM-subqueries are
    uncorrelated (SQLite has no LATERAL), no duplicate aliases in one
    FROM, the main selects' item lists match the decode contract
    (``statement.columns`` plus the unprojected literals = the flattened
    row type), the placeholder set of the statement equals its declared
    ``params``, and — for key-indexed statements — every index binds
    exactly the key columns of the generators in its scope.

``verify_compiled_package`` (after the whole package is compiled)
    Package shape, placeholder discipline, and the index join: a child
    statement's outer index has the width its parent's item index has
    under the same static tag.

``verify_rewrite`` (after each individual optimizer rewrite)
    The rewritten statement is still well-formed, placeholders were not
    invented, the decode contract is untouched, and no predicate was added
    to a core that computes ``ROW_NUMBER`` (filtering before numbering
    would renumber the surviving rows — checked *after the fact* of every
    rewrite instead of trusted).

All verifiers raise :class:`~repro.errors.VerifierError` naming the stage
and the failing rule.  Enablement is resolved by
:func:`verification_enabled`: an explicit ``SqlOptions(verify=…)`` wins,
else the ``REPRO_VERIFY`` env var, else on under pytest/CI and off in
production processes.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Mapping

from repro.errors import TypeCheckError, VerifierError
from repro.normalise.normal_form import (
    BaseExpr,
    Comprehension,
    ConstNF,
    EmptyNF,
    NormQuery,
    ParamNF,
    PrimNF,
    RecordNF,
    VarField,
    nf_to_term,
)
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.typecheck import check, infer
from repro.nrc.types import Type
from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    SqlExpr,
    Statement,
    SubqueryRef,
    TableRef,
    placeholder_names,
)

__all__ = [
    "verification_enabled",
    "verify_normalisation",
    "verify_normal_form",
    "verify_shredded_package",
    "verify_let_inserted",
    "verify_statement",
    "verify_compiled_sql",
    "verify_compiled_package",
    "verify_rewrite",
    "rewrite_hook",
]

#: ``REPRO_VERIFY`` values that mean "off" (anything else truthy is "on").
_FALSY = ("", "0", "false", "off", "no")


def verification_enabled(options: object = None) -> bool:
    """Resolve whether stage verification runs for this compile.

    Precedence: an explicit ``SqlOptions(verify=True/False)`` > the
    ``REPRO_VERIFY`` environment variable > on by default under pytest or
    CI (where compile latency is test budget, not user latency), off
    otherwise.
    """
    explicit = getattr(options, "verify", None)
    if explicit is not None:
        return bool(explicit)
    env = os.environ.get("REPRO_VERIFY")
    if env is not None:
        return env.strip().lower() not in _FALSY
    return "PYTEST_CURRENT_TEST" in os.environ or bool(os.environ.get("CI"))


# --------------------------------------------------------------------------
# Stage: normalise.


def verify_normal_form(
    normal_form: NormQuery,
    schema: Schema,
    expected_type: Type | None = None,
    stage: str = "normalise",
) -> None:
    """Variable hygiene + (optional) type preservation for a normal form."""
    _hygiene_query(normal_form, frozenset(), schema, stage)
    term = nf_to_term(normal_form)
    free = ast.free_vars(term)
    if free:
        raise VerifierError(
            stage,
            "variable-hygiene",
            f"normal form is not closed: free variable(s) "
            + ", ".join(sorted(free)),
        )
    if expected_type is not None:
        try:
            check(term, expected_type, schema)
        except TypeCheckError as exc:
            raise VerifierError(
                stage,
                "type-preservation",
                f"normal form no longer checks against {expected_type}: {exc}",
            ) from exc


def verify_normalisation(
    original: ast.Term,
    normal_form: NormQuery,
    result_type: Type,
    schema: Schema,
) -> None:
    """The post-normalise verifier the pipeline runs.

    Hygiene + re-check of the normal form against ``result_type``, plus the
    cross-check that normalisation preserved the *original* term's type
    whenever that term infers standalone (captured/fluent terms always do;
    hand-built terms may need annotations, in which case only the normal
    form is checked).
    """
    verify_normal_form(normal_form, schema, expected_type=result_type)
    try:
        original_type = infer(original, schema)
    except TypeCheckError:
        return  # un-annotated ∅ / λ: nothing to compare against
    if original_type != result_type:
        raise VerifierError(
            "normalise",
            "type-preservation",
            f"normalisation changed the query type: {original_type} before, "
            f"{result_type} after",
        )


def _hygiene_query(
    query: NormQuery, scope: frozenset, schema: Schema, stage: str
) -> None:
    for comp in query.comprehensions:
        _hygiene_comp(comp, scope, schema, stage)


def _hygiene_comp(
    comp: Comprehension, scope: frozenset, schema: Schema, stage: str
) -> None:
    bound = set()
    for g in comp.generators:
        if g.var in bound:
            raise VerifierError(
                stage,
                "variable-hygiene",
                f"duplicate generator variable {g.var!r} in one comprehension",
            )
        if g.var in scope:
            raise VerifierError(
                stage,
                "variable-hygiene",
                f"generator variable {g.var!r} captures an enclosing binder "
                "(the normaliser freshens names, so this is a rewrite bug)",
            )
        if g.table not in schema:
            raise VerifierError(
                stage, "unknown-table", f"generator reads unknown table {g.table!r}"
            )
        bound.add(g.var)
    inner = scope | bound
    _hygiene_base(comp.where, inner, schema, stage)
    _hygiene_term(comp.body, inner, schema, stage)


def _hygiene_term(term, scope: frozenset, schema: Schema, stage: str) -> None:
    if isinstance(term, BaseExpr):
        _hygiene_base(term, scope, schema, stage)
    elif isinstance(term, RecordNF):
        for _label, value in term.fields:
            _hygiene_term(value, scope, schema, stage)
    elif isinstance(term, NormQuery):
        _hygiene_query(term, scope, schema, stage)


def _hygiene_base(expr: BaseExpr, scope: frozenset, schema: Schema, stage: str) -> None:
    if isinstance(expr, VarField):
        if expr.var not in scope:
            raise VerifierError(
                stage,
                "variable-hygiene",
                f"projection {expr.var}.{expr.label} references a variable "
                "with no generator in scope",
            )
    elif isinstance(expr, PrimNF):
        for arg in expr.args:
            _hygiene_base(arg, scope, schema, stage)
    elif isinstance(expr, EmptyNF):
        # empty-probes are correlated: they see the enclosing scope.
        if isinstance(expr.query, NormQuery):
            _hygiene_query(expr.query, scope, schema, stage)
    elif isinstance(expr, (ConstNF, ParamNF)):
        pass


# --------------------------------------------------------------------------
# Stage: shred.


def verify_shredded_package(package, result_type: Type, schema: Schema) -> None:
    """Package shape + per-path re-check via the Fig. 13 shredded-query
    typechecker (Theorem 2 as an assertion)."""
    from repro.shred.packages import annotations, erase
    from repro.shred.shredded_ast import ShredQuery
    from repro.shred.shred_types import shredded_row_type
    from repro.shred.typecheck import check_shredded_query
    from repro.nrc.types import BagType
    from repro.shred.paths import type_at

    erased = erase(package)
    if erased != result_type:
        raise VerifierError(
            "shred",
            "package-shape",
            f"package erases to {erased}, expected the result type "
            f"{result_type}",
        )
    for path, shredded in annotations(package):
        if not isinstance(shredded, ShredQuery):
            raise VerifierError(
                "shred",
                "package-shape",
                f"annotation at {path} is {type(shredded).__name__}, "
                "expected a ShredQuery",
            )
        bag = type_at(result_type, path)
        assert isinstance(bag, BagType)
        expected = shredded_row_type(bag.element)
        try:
            check_shredded_query(shredded, expected, schema)
        except TypeCheckError as exc:
            raise VerifierError(
                "shred",
                "type-preservation",
                f"shredded query at {path} no longer checks against "
                f"{expected}: {exc}",
            ) from exc


# --------------------------------------------------------------------------
# Stage: let-insertion (flat plans only).


def verify_let_inserted(let_query, element_type: Type, schema: Schema) -> None:
    """The let-inserted form of a shredded query whose bag element type is
    ``element_type`` re-checks against ``Bag ⟨Index, ⟨element_type⟩⟩``
    (Theorem 5 as an assertion)."""
    from repro.letins.typecheck import check_let_query
    from repro.shred.shred_types import shredded_row_type

    expected = shredded_row_type(element_type)
    try:
        check_let_query(let_query, expected, schema)
    except TypeCheckError as exc:
        raise VerifierError(
            "letins",
            "type-preservation",
            f"let-inserted query no longer checks against {expected}: {exc}",
        ) from exc


# --------------------------------------------------------------------------
# Stage: codegen (SQL well-formedness).

#: alias → known output columns (None for opaque sources, never produced
#: today but kept so the walker degrades gracefully).
_Scope = dict


def _core_output(core: SelectCore) -> tuple[str, ...]:
    return tuple(item.alias for item in core.items)


def _check_expr(
    expr: SqlExpr,
    scope: Mapping[str, tuple[str, ...] | None],
    ctes: Mapping[str, tuple[str, ...]],
    schema: Schema,
    stage: str,
    rule: str,
) -> None:
    if isinstance(expr, Col):
        columns = scope.get(expr.alias, _MISSING)
        if columns is _MISSING:
            raise VerifierError(
                stage,
                rule,
                f"column {expr.alias}.{expr.name} references alias "
                f"{expr.alias!r} which is not in scope",
            )
        if columns is not None and expr.name not in columns:
            raise VerifierError(
                stage,
                rule,
                f"column {expr.alias}.{expr.name} does not exist: "
                f"{expr.alias!r} exposes ({', '.join(columns)})",
            )
    elif isinstance(expr, BinOp):
        _check_expr(expr.left, scope, ctes, schema, stage, rule)
        _check_expr(expr.right, scope, ctes, schema, stage, rule)
    elif isinstance(expr, NotOp):
        _check_expr(expr.operand, scope, ctes, schema, stage, rule)
    elif isinstance(expr, RowNumber):
        for e in expr.order_by:
            _check_expr(e, scope, ctes, schema, stage, rule)
    elif isinstance(expr, NotExists):
        # EXISTS probes are correlated: they see the enclosing scope.
        _check_core(expr.select, scope, ctes, schema, stage, rule)


_MISSING = object()


def _check_core(
    core: SelectCore,
    outer_scope: Mapping[str, tuple[str, ...] | None],
    ctes: Mapping[str, tuple[str, ...]],
    schema: Schema,
    stage: str,
    rule: str,
) -> None:
    scope: _Scope = dict(outer_scope)
    local: set[str] = set()
    for item in core.from_items:
        if isinstance(item, TableRef):
            if item.table in schema:
                columns: tuple[str, ...] | None = schema.table(
                    item.table
                ).column_names
            else:
                raise VerifierError(
                    stage,
                    rule,
                    f"FROM references unknown table {item.table!r}",
                )
        elif isinstance(item, CteRef):
            if item.cte not in ctes:
                raise VerifierError(
                    stage,
                    rule,
                    f"FROM references CTE {item.cte!r} which is not defined "
                    "earlier in the WITH clause (undefined, forward or "
                    "cyclic reference)",
                )
            columns = ctes[item.cte]
        elif isinstance(item, SubqueryRef):
            # FROM-subqueries must be self-contained: SQLite has no
            # LATERAL, so a correlated one is invalid SQL.
            _check_core(item.select, {}, ctes, schema, stage, rule)
            columns = _core_output(item.select)
        else:  # pragma: no cover - no other FromItem exists
            raise VerifierError(
                stage, rule, f"unknown FROM item {type(item).__name__}"
            )
        if item.alias in local:
            raise VerifierError(
                stage,
                rule,
                f"duplicate alias {item.alias!r} in one FROM clause",
            )
        local.add(item.alias)
        scope[item.alias] = columns
    for item in core.items:
        _check_expr(item.expr, scope, ctes, schema, stage, rule)
    if core.where is not None:
        _check_expr(core.where, scope, ctes, schema, stage, rule)


def verify_statement(
    statement: Statement,
    schema: Schema,
    stage: str = "codegen",
    rule: str = "sql-wellformed",
) -> None:
    """Structural SQL well-formedness of one statement (see module doc)."""
    defined: dict[str, tuple[str, ...]] = {}
    for name, core in statement.ctes:
        if name in defined:
            raise VerifierError(
                stage, rule, f"duplicate CTE name {name!r} in one WITH clause"
            )
        # A CTE body sees only *earlier* CTEs — `defined` so far — which
        # makes the dependency graph acyclic by construction of this check.
        _check_core(core, {}, defined, schema, stage, rule)
        if not core.items:
            raise VerifierError(
                stage, rule, f"CTE {name!r} exposes no columns"
            )
        defined[name] = _core_output(core)
    if not statement.selects:
        raise VerifierError(stage, rule, "statement has no SELECT branches")
    expected = None
    if statement.columns:
        expected = tuple(statement.columns)
        if statement.order_by:
            expected = expected + tuple(statement.order_by)
    for position, core in enumerate(statement.selects):
        _check_core(core, {}, defined, schema, stage, rule)
        if expected is not None and _core_output(core) != expected:
            raise VerifierError(
                stage,
                "decode-contract",
                f"UNION branch {position} exposes "
                f"({', '.join(_core_output(core))}), but the decode "
                f"contract requires ({', '.join(expected)})",
            )
    for name in statement.order_by:
        if statement.selects and name not in _core_output(statement.selects[0]):
            raise VerifierError(
                stage,
                rule,
                f"ORDER BY references {name!r} which no branch exposes",
            )


def verify_compiled_sql(
    compiled,
    schema: Schema,
    declared_params: Iterable[str] | None = None,
    stage: str = "codegen",
) -> None:
    """Codegen-level verifier for one :class:`~repro.sql.codegen.CompiledSql`:
    well-formed statement + column layout consistent with the decoders +
    placeholder bookkeeping."""
    from repro.flatten.flatten import flatten_type

    verify_statement(compiled.statement, schema, stage)
    expected_names = tuple(
        c.name for c in flatten_type(compiled.row_type, compiled.width_fn)
    )
    literals = {name for name, _value in compiled.constants}
    projected = tuple(n for n in expected_names if n not in literals)
    if tuple(compiled.columns) != projected or not literals <= set(expected_names):
        raise VerifierError(
            stage,
            "column-layout",
            f"decode metadata lists columns ({', '.join(compiled.columns)}) "
            f"and literals ({', '.join(sorted(literals))}) but the flattened "
            f"row type needs ({', '.join(expected_names)})",
        )
    if tuple(compiled.statement.columns) != tuple(compiled.columns):
        raise VerifierError(
            stage,
            "column-layout",
            "statement.columns disagrees with the compiled column list",
        )
    if compiled.natural:
        _verify_key_layout(compiled, schema, stage)
    in_sql = set(placeholder_names(compiled.statement))
    if in_sql != set(compiled.params):
        raise VerifierError(
            stage,
            "placeholder-set",
            f"statement binds {sorted(in_sql)} but declares params "
            f"{sorted(compiled.params)}",
        )
    if declared_params is not None:
        undeclared = in_sql - set(declared_params)
        if undeclared:
            raise VerifierError(
                stage,
                "placeholder-set",
                "SQL binds placeholder(s) the query term never declares: "
                + ", ".join(f":{name}" for name in sorted(undeclared)),
            )


def _index_leaves(compiled) -> dict[tuple[str, ...], tuple[str, list[str]]]:
    """path → (tag column, [dyn columns]) for every index leaf of the
    compiled row type."""
    from repro.flatten.flatten import KIND_INDEX_DYN, KIND_INDEX_TAG, flatten_type

    leaves: dict[tuple[str, ...], tuple[str, list[str]]] = {}
    for column in flatten_type(compiled.row_type, compiled.width_fn):
        if column.kind == KIND_INDEX_TAG:
            leaves[column.path] = (column.name, [])
        elif column.kind == KIND_INDEX_DYN:
            leaves[column.path][1].append(column.name)
    return leaves


def _branch_cells(compiled):
    """Per non-∅ UNION branch: the branch and its column → expression map,
    unprojected literals included."""
    from repro.sql.ast import Lit

    literals = {name: Lit(value) for name, value in compiled.constants}
    for position, core in enumerate(compiled.statement.selects):
        if not core.from_items and core.where == Lit(False):
            continue  # ∅ (SELECT NULL … WHERE 0) binds nothing
        cells = dict(literals)
        cells.update((item.alias, item.expr) for item in core.items)
        yield position, core, cells


def _bound_keys(cells, dyns: list[str]) -> list[SqlExpr]:
    """An index's dynamic expressions with the NULL padding stripped."""
    from repro.sql.ast import Lit

    bound = [cells[name] for name in dyns]
    while bound and bound[-1] == Lit(None):
        bound.pop()
    return bound


def _verify_key_layout(compiled, schema: Schema, stage: str) -> None:
    """Key-indexed (natural) statements: in every branch, each item index
    is exactly the key columns of all generators in scope, and the outer
    index is a prefix of them — or the literal 1 of the ⊤·1 context."""
    from repro.shred.shredded_ast import TOP_TAG
    from repro.sql.ast import Lit

    leaves = _index_leaves(compiled)
    for position, core, cells in _branch_cells(compiled):
        # (Key-indexed statements have no CTEs or subqueries: every FROM
        # item is a schema table.)
        keys: list[SqlExpr] = [
            Col(item.alias, column)
            for item in core.from_items
            for column in schema.table(item.table).key
        ]
        for path, (tag, dyns) in leaves.items():
            bound = _bound_keys(cells, dyns)
            if path != ("outer",):
                expected = keys
            elif cells[tag] == Lit(TOP_TAG):
                expected = [Lit(1)]
            else:
                expected = keys[: len(bound)]
            if bound != expected:
                raise VerifierError(
                    stage,
                    "key-layout",
                    f"UNION branch {position}: the index at "
                    f"{'.'.join(path)} binds {len(bound)} key column(s) "
                    f"where the generators in scope have {len(expected)} "
                    "(a dropped or misplaced key column merges distinct rows)",
                )


def _index_widths(compiled, path: tuple[str, ...]) -> dict[object, set[int]]:
    """static tag → the widths (bound dynamic columns) the index at ``path``
    takes across the statement's branches."""
    tag, dyns = _index_leaves(compiled)[path]
    widths: dict[object, set[int]] = {}
    for _position, _core, cells in _branch_cells(compiled):
        tag_value = getattr(cells[tag], "value", None)
        widths.setdefault(tag_value, set()).add(len(_bound_keys(cells, dyns)))
    return widths


def _verify_index_joins(package, at: str = "ε") -> None:
    """Parent item index and child outer index are the two sides of one
    join: under the same static tag they must have the same width."""
    from repro.shred.packages import PkgBag, PkgRecord

    def child_bags(node, labels: tuple[str, ...]):
        if isinstance(node, PkgBag):
            yield labels, node
        elif isinstance(node, PkgRecord):
            for label, sub in node.fields:
                yield from child_bags(sub, labels + (label,))

    for labels, child in child_bags(package.element, ()):
        where = f"{at}.↓.{'.'.join(labels)}" if labels else f"{at}.↓"
        produced = _index_widths(package.annotation, ("item",) + labels)
        consumed = _index_widths(child.annotation, ("outer",))
        for tag in produced.keys() & consumed.keys():
            if produced[tag] != consumed[tag]:
                raise VerifierError(
                    "package",
                    "index-join",
                    f"statement at {where} reads outer indexes {tag}·… of "
                    f"width {sorted(consumed[tag])}, but its parent emits "
                    f"them with width {sorted(produced[tag])}",
                )
        _verify_index_joins(child, where)


def verify_compiled_package(
    sql_package,
    result_type: Type,
    schema: Schema,
    param_specs: Iterable[tuple[str, object]],
) -> None:
    """Package-level verifier: shape, per-member placeholder discipline,
    and the parent/child index-join widths."""
    from repro.shred.packages import annotations, erase

    erased = erase(sql_package)
    if erased != result_type:
        raise VerifierError(
            "package",
            "package-shape",
            f"SQL package erases to {erased}, expected {result_type}",
        )
    declared = {name for name, _type in param_specs}
    for path, compiled in annotations(sql_package):
        undeclared = set(compiled.params) - declared
        if undeclared:
            raise VerifierError(
                "package",
                "placeholder-set",
                f"statement at {path} binds undeclared parameter(s) "
                + ", ".join(f":{name}" for name in sorted(undeclared)),
            )
    _verify_index_joins(sql_package)


# --------------------------------------------------------------------------
# Stage: optimizer rewrites (the per-rule hook).


def _conjunct_count(expr: SqlExpr | None) -> int:
    if expr is None:
        return 0
    if isinstance(expr, BinOp) and expr.op == "AND":
        return _conjunct_count(expr.left) + _conjunct_count(expr.right)
    return 1


def _has_rownumber_items(core: SelectCore) -> bool:
    def contains(expr: SqlExpr) -> bool:
        if isinstance(expr, RowNumber):
            return True
        if isinstance(expr, BinOp):
            return contains(expr.left) or contains(expr.right)
        if isinstance(expr, NotOp):
            return contains(expr.operand)
        return False

    return any(contains(item.expr) for item in core.items)


def _numbering_cores(statement: Statement) -> dict[str, SelectCore]:
    """Every named core of the statement that *computes* row numbers:
    CTE bodies by CTE name, FROM-subqueries by ``select-index/alias``."""
    found: dict[str, SelectCore] = {}
    for name, core in statement.ctes:
        if _has_rownumber_items(core):
            found[f"cte:{name}"] = core

    def walk(core: SelectCore, prefix: str) -> None:
        for item in core.from_items:
            if isinstance(item, SubqueryRef):
                if _has_rownumber_items(item.select):
                    found[f"{prefix}/{item.alias}"] = item.select
                walk(item.select, f"{prefix}/{item.alias}")

    for position, core in enumerate(statement.selects):
        walk(core, f"select:{position}")
    return found


def verify_rewrite(
    before: Statement, after: Statement, rule: str, schema: Schema
) -> None:
    """Invariants every individual optimizer rewrite must preserve.

    Raises :class:`VerifierError` with ``stage="optimize"`` and ``rule``
    set to the rewrite's name, so a broken rule is attributed by name.
    """
    try:
        verify_statement(after, schema, stage="optimize", rule=rule)
    except VerifierError as exc:
        raise VerifierError(
            "optimize", rule, f"rewrite produced malformed SQL — {exc.detail}"
        ) from exc
    invented = set(placeholder_names(after)) - set(placeholder_names(before))
    if invented:
        raise VerifierError(
            "optimize",
            rule,
            "rewrite invented placeholder(s) "
            + ", ".join(f":{name}" for name in sorted(invented)),
        )
    if len(after.selects) > len(before.selects):
        raise VerifierError(
            "optimize",
            rule,
            "rewrite added UNION branches "
            f"({len(before.selects)} → {len(after.selects)})",
        )
    # A core that computes ROW_NUMBER must never *gain* WHERE conjuncts —
    # filtering before numbering renumbers the surviving rows and breaks
    # the cross-statement index join.  (Sound rewrites only simplify or move
    # conjuncts *out of* such cores, never into them.)
    from repro.sql.optimizer import fold_expr

    before_numbering = _numbering_cores(before)
    after_numbering = _numbering_cores(after)
    for name, core in after_numbering.items():
        prior = before_numbering.get(name)
        if prior is None:
            continue  # new numbering core: nothing ranked rows before it
        # Counted on the folded form: ``NOT NOT (a AND b)`` → ``a AND b``
        # spells one filter as two conjuncts without adding any.
        if _conjunct_count(core.where and fold_expr(core.where)) > _conjunct_count(
            prior.where and fold_expr(prior.where)
        ):
            raise VerifierError(
                "optimize",
                rule,
                f"rewrite added a WHERE conjunct to {name}, which computes "
                "ROW_NUMBER — filtering before numbering renumbers rows",
            )


def rewrite_hook(schema: Schema) -> Callable[[str, Statement, Statement], None]:
    """The ``on_rewrite`` callback :func:`~repro.sql.optimizer.
    optimize_statement` accepts: verify every rewrite it applies."""

    def hook(rule: str, before: Statement, after: Statement) -> None:
        verify_rewrite(before, after, rule, schema)

    return hook
