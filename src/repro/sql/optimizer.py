"""Logical optimisation of the generated SQL (the §8 programme, extended).

The shredding translation emits deliberately naive SQL: every comprehension
re-exposes all outer columns, and conditions arrive as the normaliser left
them (``NOT (NOT …)`` chains from ``empty`` hoisting).  This module is a
small rewrite engine over the :mod:`repro.sql.ast` that cleans that up
*without* changing any statement's result multiset.  It holds the three
statement-local rules that fire on the pipeline's output, applied in this
order by :func:`optimize_statement` under the one switch
``SqlOptions(optimize=True)``:

* **constant folding** (``opt_fold``) — ``NOT NOT x → x``, boolean
  identity laws (``TRUE AND x → x``, ``FALSE AND x → FALSE``, …), literal
  arithmetic/comparison/concatenation, ``NOT EXISTS (… WHERE FALSE) →
  TRUE``; a ``WHERE`` that folds to ``TRUE`` is dropped, and a UNION ALL
  branch whose ``WHERE`` folds to ``FALSE`` is removed entirely;
* **CTE deduplication** (``opt_dedup``) — byte-identical CTE bodies within
  a statement merge into one (sibling union branches over the same outer
  prefix produce identical outer queries, cf. §8's q′2);
* **projection pruning** (``opt_prune``) — CTE select items never
  referenced by any consumer are dropped (narrower materialisation), and
  CTEs referenced by nobody disappear.  The *main* selects are never
  pruned: their item list is the decode contract.

Key-indexed (default) plans have no CTEs, so only folding can fire there;
dedup and prune pay on the keyless ``ROW_NUMBER`` form.  Nothing here
crosses statements: a package stays a set of independent ``SELECT``
statements, so executing it never writes.

Soundness invariants every rule preserves:

* the main selects' item lists (names, order, count) — decoders resolve
  columns by position;
* the multiset of rows each ``ROW_NUMBER`` ranks over — index values join
  statements to each other, so numbering inputs are untouchable;
* SQL three-valued logic — boolean laws are only applied where they hold
  under NULL (``FALSE AND NULL = FALSE``, but ``x AND TRUE → x`` only
  rewrites the ``TRUE`` side away, never invents non-NULL-ness).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    Lit,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    SelectItem,
    SqlExpr,
    Statement,
    SubqueryRef,
)
from repro.sql.render import render_select

__all__ = [
    "optimize_statement",
    "fold_expr",
    "statement_rule_names",
    "STATEMENT_RULES",
]

TRUE = Lit(True)
FALSE = Lit(False)

#: rule name → human-readable description, in application order.
#: ``repro sql --explain`` and the docs render this.
statement_rule_names: tuple[tuple[str, str], ...] = (
    ("opt_fold", "constant folding + dead-branch elimination"),
    ("opt_dedup", "within-statement CTE deduplication"),
    ("opt_prune", "CTE projection pruning + unreferenced-CTE removal"),
)


# --------------------------------------------------------------------------
# Generic traversal helpers.


def _map_expr(
    expr: SqlExpr, core_fn: Callable[[SelectCore], SelectCore]
) -> SqlExpr:
    """Rebuild ``expr`` bottom-up, mapping ``core_fn`` over embedded cores."""
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, _map_expr(expr.left, core_fn), _map_expr(expr.right, core_fn)
        )
    if isinstance(expr, NotOp):
        return NotOp(_map_expr(expr.operand, core_fn))
    if isinstance(expr, NotExists):
        return NotExists(core_fn(expr.select))
    if isinstance(expr, RowNumber):
        return RowNumber(tuple(_map_expr(e, core_fn) for e in expr.order_by))
    return expr


def _map_cores(
    statement: Statement, core_fn: Callable[[SelectCore], SelectCore]
) -> Statement:
    """Map ``core_fn`` over every :class:`SelectCore` of a statement,
    innermost first (subqueries and NOT-EXISTS probes included)."""

    def rebuild(core: SelectCore) -> SelectCore:
        items = tuple(
            SelectItem(_map_expr(item.expr, rebuild), item.alias)
            for item in core.items
        )
        from_items = tuple(
            SubqueryRef(rebuild(item.select), item.alias)
            if isinstance(item, SubqueryRef)
            else item
            for item in core.from_items
        )
        where = None if core.where is None else _map_expr(core.where, rebuild)
        return core_fn(SelectCore(items, from_items, where))

    return Statement(
        tuple((name, rebuild(core)) for name, core in statement.ctes),
        tuple(rebuild(core) for core in statement.selects),
        statement.columns,
        statement.order_by,
    )


def _walk_exprs(expr: SqlExpr, visit: Callable[[SqlExpr], None]) -> None:
    """Visit every subexpression, descending into embedded cores."""
    visit(expr)
    if isinstance(expr, BinOp):
        _walk_exprs(expr.left, visit)
        _walk_exprs(expr.right, visit)
    elif isinstance(expr, NotOp):
        _walk_exprs(expr.operand, visit)
    elif isinstance(expr, RowNumber):
        for e in expr.order_by:
            _walk_exprs(e, visit)
    elif isinstance(expr, NotExists):
        _walk_core_exprs(expr.select, visit)


def _walk_core_exprs(
    core: SelectCore, visit: Callable[[SqlExpr], None]
) -> None:
    for item in core.items:
        _walk_exprs(item.expr, visit)
    for from_item in core.from_items:
        if isinstance(from_item, SubqueryRef):
            _walk_core_exprs(from_item.select, visit)
    if core.where is not None:
        _walk_exprs(core.where, visit)


# --------------------------------------------------------------------------
# Rule: constant folding.


def _is_bool_lit(expr: SqlExpr, value: bool) -> bool:
    return isinstance(expr, Lit) and expr.value is value


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def _numeric(value: object) -> bool:
    return isinstance(value, (bool, int)) and not isinstance(value, float)


def _fold_literals(op: str, left: Lit, right: Lit) -> SqlExpr | None:
    """Fold a binary operator over two non-NULL literals, where the Python
    result provably matches SQLite's (same-class ints/strings only; ``/``
    and ``%`` are skipped — SQLite truncates toward zero, Python floors)."""
    a, b = left.value, right.value
    if a is None or b is None:
        return None  # NULL propagates; leave three-valued logic to SQLite
    if op in _COMPARISONS:
        if (_numeric(a) and _numeric(b)) or (
            isinstance(a, str) and isinstance(b, str)
        ):
            return Lit(_COMPARISONS[op](a, b))
        return None
    if op in _ARITHMETIC and _numeric(a) and _numeric(b):
        return Lit(_ARITHMETIC[op](int(a), int(b)))
    if op == "||" and isinstance(a, str) and isinstance(b, str):
        return Lit(a + b)
    if op in ("AND", "OR") and isinstance(a, bool) and isinstance(b, bool):
        return Lit(a and b if op == "AND" else a or b)
    return None


def fold_expr(expr: SqlExpr) -> SqlExpr:
    """Bottom-up constant folding, sound under SQL three-valued logic."""
    if isinstance(expr, BinOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if expr.op == "AND":
            # FALSE AND x ≡ FALSE even for x = NULL; TRUE AND x ≡ x.
            if _is_bool_lit(left, False) or _is_bool_lit(right, False):
                return FALSE
            if _is_bool_lit(left, True):
                return right
            if _is_bool_lit(right, True):
                return left
        if expr.op == "OR":
            if _is_bool_lit(left, True) or _is_bool_lit(right, True):
                return TRUE
            if _is_bool_lit(left, False):
                return right
            if _is_bool_lit(right, False):
                return left
        if isinstance(left, Lit) and isinstance(right, Lit):
            folded = _fold_literals(expr.op, left, right)
            if folded is not None:
                return folded
        return BinOp(expr.op, left, right)
    if isinstance(expr, NotOp):
        operand = fold_expr(expr.operand)
        if isinstance(operand, NotOp):
            return operand.operand  # NOT NOT x ≡ x (NULL-safe)
        if isinstance(operand, Lit) and isinstance(operand.value, bool):
            return Lit(not operand.value)
        return NotOp(operand)
    if isinstance(expr, NotExists):
        core = _fold_core(expr.select)
        if _is_bool_lit(core.where if core.where is not None else TRUE, False):
            return TRUE  # probe can never produce a row
        if not core.from_items and core.where is None:
            return FALSE  # SELECT 1 with no FROM always produces one row
        return NotExists(core)
    if isinstance(expr, RowNumber):
        return RowNumber(tuple(fold_expr(e) for e in expr.order_by))
    return expr


def _fold_core(core: SelectCore) -> SelectCore:
    items = tuple(
        SelectItem(fold_expr(item.expr), item.alias) for item in core.items
    )
    where = None if core.where is None else fold_expr(core.where)
    if where is not None and _is_bool_lit(where, True):
        where = None
    return SelectCore(items, core.from_items, where)


def _rule_fold(statement: Statement) -> Statement:
    statement = _map_cores(statement, _fold_core)
    # Dead-branch elimination: a UNION ALL operand whose WHERE folded to
    # FALSE contributes no rows.  Keep at least one branch so the statement
    # stays executable (and keeps its column aliases).
    live = tuple(
        core
        for core in statement.selects
        if not (core.where is not None and _is_bool_lit(core.where, False))
    )
    if not live:
        live = statement.selects[:1]
    if len(live) == len(statement.selects):
        return statement
    return Statement(statement.ctes, live, statement.columns, statement.order_by)


# --------------------------------------------------------------------------
# Rule: within-statement CTE deduplication.


def _rule_dedup(statement: Statement) -> Statement:
    if len(statement.ctes) < 2:
        return statement
    kept: list[tuple[str, SelectCore]] = []
    by_body: dict[str, str] = {}
    rename: dict[str, str] = {}
    for name, core in statement.ctes:
        body = render_select(core)
        existing = by_body.get(body)
        if existing is None:
            by_body[body] = name
            kept.append((name, core))
        else:
            rename[name] = existing
    if not rename:
        return statement

    def remap(core: SelectCore) -> SelectCore:
        from_items = tuple(
            CteRef(rename.get(item.cte, item.cte), item.alias)
            if isinstance(item, CteRef)
            else item
            for item in core.from_items
        )
        return SelectCore(core.items, from_items, core.where)

    return _map_cores(
        Statement(tuple(kept), statement.selects, statement.columns, statement.order_by),
        remap,
    )


# --------------------------------------------------------------------------
# Rule: projection pruning + unreferenced-CTE removal.


def _rule_prune(statement: Statement) -> Statement:
    if not statement.ctes:
        return statement
    # Conservative usage analysis: any Col(alias, c) anywhere in the
    # statement marks column c used for *every* CTE some CteRef binds to
    # that alias (generated aliases are unique; ambiguity only widens the
    # kept set, never narrows it).
    alias_to_ctes: dict[str, set[str]] = {}
    referenced: set[str] = set()

    def collect_refs(core: SelectCore) -> SelectCore:
        for item in core.from_items:
            if isinstance(item, CteRef):
                alias_to_ctes.setdefault(item.alias, set()).add(item.cte)
                referenced.add(item.cte)
        return core

    _map_cores(statement, collect_refs)

    used: dict[str, set[str]] = {name: set() for name, _ in statement.ctes}

    def collect_cols(expr: SqlExpr) -> None:
        if isinstance(expr, Col):
            for cte in alias_to_ctes.get(expr.alias, ()):
                if cte in used:
                    used[cte].add(expr.name)

    for _name, core in statement.ctes:
        _walk_core_exprs(core, collect_cols)
    for core in statement.selects:
        _walk_core_exprs(core, collect_cols)

    changed = False
    new_ctes: list[tuple[str, SelectCore]] = []
    for name, core in statement.ctes:
        if name not in referenced:
            changed = True
            continue
        keep = tuple(si for si in core.items if si.alias in used[name])
        if not keep:
            keep = core.items[:1]  # a CTE must expose at least one column
        if len(keep) != len(core.items):
            changed = True
            core = SelectCore(keep, core.from_items, core.where)
        new_ctes.append((name, core))
    if not changed:
        return statement
    return Statement(
        tuple(new_ctes), statement.selects, statement.columns, statement.order_by
    )


# --------------------------------------------------------------------------
# The statement-level driver.


#: rule name → rule function, in application order (same order as
#: :data:`statement_rule_names`).  Tests call entries directly to isolate
#: a rule, and monkeypatch them to prove the per-rule verifier catches a
#: deliberately broken rewrite.
STATEMENT_RULES: dict[str, Callable[[Statement], Statement]] = {
    "opt_fold": _rule_fold,
    "opt_dedup": _rule_dedup,
    "opt_prune": _rule_prune,
}


def optimize_statement(
    statement: Statement,
    trace: list[str] | None = None,
    on_rewrite: Callable[[str, Statement, Statement], None] | None = None,
    timings: list[tuple[str, float, bool]] | None = None,
) -> Statement:
    """Apply the three statement-local rules, in order.

    ``trace`` (a list, if given) receives the name of every rule that
    actually *changed* the statement — the fired-rule trace surfaced by
    ``Prepared.explain()`` and ``ExecutionStats``.  ``on_rewrite`` (a
    ``(rule, before, after)`` callable, if given) runs after each such
    rewrite — the per-rule verify hook
    (:func:`repro.check.verifier.rewrite_hook`), LLVM's ``-verify-each``
    for this rewrite engine.

    ``timings`` (a list, if given) receives ``(rule, millis, fired)`` for
    every *attempted* rule — inert attempts included, since the time a
    rule spends deciding not to fire is still compile time; the tracer's
    per-rule ``optimize`` children are built from this.
    """
    for name, rule in STATEMENT_RULES.items():
        started = time.perf_counter()
        rewritten = rule(statement)
        fired = rewritten != statement
        if timings is not None:
            timings.append(
                (name, (time.perf_counter() - started) * 1000.0, fired)
            )
        if not fired:
            continue
        if trace is not None:
            trace.append(name)
        if on_rewrite is not None:
            on_rewrite(name, statement, rewritten)
        statement = rewritten
    return statement
