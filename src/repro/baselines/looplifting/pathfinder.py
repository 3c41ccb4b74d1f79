"""A miniature Pathfinder: plan optimiser + serialisation round trip.

Ferry ships its plans to Pathfinder [14] as XML, optimises, and reads SQL
back; that inter-process round trip plus plan rewriting is the per-query
overhead the paper observes for loop-lifting.  We reproduce both pieces:

* :func:`optimise` — rewriting passes: merge adjacent selections, push
  selections below products and attaches where their columns allow,
  prune dead columns, drop no-op projections.  Selections are **never**
  pushed below :class:`RowNum` (filtering would change the numbering), so
  products trapped under OLAP operators stay trapped — the exact
  limitation the paper reports ("Pathfinder was not able to remove" the
  Cartesian products inside ROW_NUMBER/DENSE_RANK on Q1/Q6).
* :func:`serialise` / :func:`deserialise` — an XML-ish wire format; the
  loop-lifting pipeline round-trips every plan through it, paying an
  honest (de)serialisation cost per query rather than a simulated sleep.
"""

from __future__ import annotations

from repro.baselines.looplifting.algebra import (
    Attach,
    Derive,
    LoopLiftingError,
    Plan,
    Product,
    ProjectCols,
    RowNum,
    Scan,
    Select,
    Unit,
    UnionAll,
)
from repro.normalise.normal_form import (
    BaseExpr,
    EmptyNF,
    PrimNF,
    VarField,
    conjoin,
    conjuncts,
)

__all__ = ["optimise", "serialise", "deserialise", "predicate_columns"]


# --------------------------------------------------------------------------
# Column analysis.


def predicate_columns(predicate: BaseExpr) -> frozenset[str]:
    """The plan columns a predicate references (x.ℓ ⇒ x_ℓ).

    ``empty`` probes may reference outer columns; we conservatively report
    every column mentioned anywhere inside them.
    """
    from repro.baselines.looplifting.algebra import as_column

    columns: set[str] = set()

    def go(expr: BaseExpr) -> None:
        if isinstance(expr, VarField):
            columns.add(as_column(expr.var, expr.label))
        elif isinstance(expr, PrimNF):
            for arg in expr.args:
                go(arg)
        elif isinstance(expr, EmptyNF):
            from repro.shred.shredded_ast import empty_probe_parts

            for _, conditions in empty_probe_parts(expr.query):
                for condition in conditions:
                    go(condition)

    go(predicate)
    return frozenset(columns)


# --------------------------------------------------------------------------
# Rewriting.


def optimise(plan: Plan, max_rounds: int = 10) -> Plan:
    """Run the rewriting passes to a fixpoint (bounded)."""
    current = plan
    for _ in range(max_rounds):
        rewritten = _rewrite(current)
        rewritten = _prune(rewritten, set(rewritten.columns))
        if rewritten == current:
            break
        current = rewritten
    return current


def _rewrite(plan: Plan) -> Plan:
    if isinstance(plan, (Scan, Unit)):
        return plan
    if isinstance(plan, Derive):
        return Derive(_rewrite(plan.child), plan.column, plan.expr)
    if isinstance(plan, Product):
        return Product(_rewrite(plan.left), _rewrite(plan.right))
    if isinstance(plan, UnionAll):
        return UnionAll(_rewrite(plan.left), _rewrite(plan.right))
    if isinstance(plan, Attach):
        return Attach(_rewrite(plan.child), plan.column, plan.value)
    if isinstance(plan, RowNum):
        # No rewrites through RowNum: numbering pins its input.
        return RowNum(_rewrite(plan.child), plan.column, plan.order)
    if isinstance(plan, ProjectCols):
        child = _rewrite(plan.child)
        if child.columns == plan.keep:
            return child  # no-op projection
        if isinstance(child, ProjectCols):
            return ProjectCols(child.child, plan.keep)
        return ProjectCols(child, plan.keep)
    if isinstance(plan, Select):
        child = _rewrite(plan.child)
        # Merge adjacent selections.
        if isinstance(child, Select):
            return _rewrite(
                Select(child.child, conjoin([child.predicate, plan.predicate]))
            )
        # Push each conjunct as deep as its columns allow.
        parts = conjuncts(plan.predicate)
        if isinstance(child, Product) and parts:
            pushed_left, pushed_right, kept = [], [], []
            for conjunct in parts:
                used = predicate_columns(conjunct)
                if used and used <= set(child.left.columns):
                    pushed_left.append(conjunct)
                elif used and used <= set(child.right.columns):
                    pushed_right.append(conjunct)
                else:
                    kept.append(conjunct)
            if pushed_left or pushed_right:
                left = child.left
                right = child.right
                if pushed_left:
                    left = Select(left, conjoin(pushed_left))
                if pushed_right:
                    right = Select(right, conjoin(pushed_right))
                new_child: Plan = Product(_rewrite(left), _rewrite(right))
                if kept:
                    return Select(new_child, conjoin(kept))
                return new_child
        if isinstance(child, Attach):
            used = predicate_columns(plan.predicate)
            if child.column not in used:
                return Attach(
                    _rewrite(Select(child.child, plan.predicate)),
                    child.column,
                    child.value,
                )
        if isinstance(child, Derive):
            used = predicate_columns(plan.predicate)
            if child.column not in used:
                return Derive(
                    _rewrite(Select(child.child, plan.predicate)),
                    child.column,
                    child.expr,
                )
        from repro.normalise.normal_form import TRUE_NF

        if plan.predicate == TRUE_NF:
            return child
        return Select(child, plan.predicate)
    raise LoopLiftingError(f"unknown plan node {plan!r}")


def _prune(plan: Plan, needed: set[str]) -> Plan:
    """Dead-column elimination: keep only columns the parents need."""
    if isinstance(plan, (Scan, Unit)):
        return plan  # scans stay whole; projection above them trims
    if isinstance(plan, Derive):
        child_needed = (needed - {plan.column}) | set(
            predicate_columns(plan.expr)
        )
        return Derive(_prune(plan.child, child_needed), plan.column, plan.expr)
    if isinstance(plan, Select):
        required = needed | set(predicate_columns(plan.predicate))
        return Select(_prune(plan.child, required), plan.predicate)
    if isinstance(plan, Attach):
        child_needed = needed - {plan.column}
        return Attach(_prune(plan.child, child_needed), plan.column, plan.value)
    if isinstance(plan, RowNum):
        required = (needed - {plan.column}) | set(plan.order)
        return RowNum(_prune(plan.child, required), plan.column, plan.order)
    if isinstance(plan, ProjectCols):
        return ProjectCols(_prune(plan.child, set(plan.keep)), plan.keep)
    if isinstance(plan, Product):
        left_needed = needed & set(plan.left.columns)
        right_needed = needed & set(plan.right.columns)
        left = plan.left
        right = plan.right
        if left_needed < set(left.columns) and left_needed:
            left = ProjectCols(
                _prune(left, left_needed),
                tuple(c for c in left.columns if c in left_needed),
            )
        else:
            left = _prune(left, left_needed or set(left.columns))
        if right_needed < set(right.columns) and right_needed:
            right = ProjectCols(
                _prune(right, right_needed),
                tuple(c for c in right.columns if c in right_needed),
            )
        else:
            right = _prune(right, right_needed or set(right.columns))
        return Product(left, right)
    if isinstance(plan, UnionAll):
        return UnionAll(_prune(plan.left, needed), _prune(plan.right, needed))
    raise LoopLiftingError(f"unknown plan node {plan!r}")


# --------------------------------------------------------------------------
# Serialisation (the Pathfinder wire-format round trip).


def serialise(plan: Plan) -> str:
    """Serialise a plan to the XML-ish wire format."""
    pieces: list[str] = []

    def go(node: Plan) -> None:
        if isinstance(node, Scan):
            pieces.append(
                f'<scan table="{node.table}" var="{node.var}" '
                f'cols="{",".join(node.table_columns)}"/>'
            )
        elif isinstance(node, Unit):
            pieces.append("<unit/>")
        elif isinstance(node, Derive):
            pieces.append(
                f'<derive col="{node.column}" expr={_pred_repr(node.expr)!r}>'
            )
            go(node.child)
            pieces.append("</derive>")
        elif isinstance(node, Product):
            pieces.append("<product>")
            go(node.left)
            go(node.right)
            pieces.append("</product>")
        elif isinstance(node, UnionAll):
            pieces.append("<union>")
            go(node.left)
            go(node.right)
            pieces.append("</union>")
        elif isinstance(node, Select):
            pieces.append(f"<select pred={_pred_repr(node.predicate)!r}>")
            go(node.child)
            pieces.append("</select>")
        elif isinstance(node, Attach):
            pieces.append(
                f'<attach col="{node.column}" value={node.value!r}>'
            )
            go(node.child)
            pieces.append("</attach>")
        elif isinstance(node, ProjectCols):
            pieces.append(f'<project keep="{",".join(node.keep)}">')
            go(node.child)
            pieces.append("</project>")
        elif isinstance(node, RowNum):
            pieces.append(
                f'<rownum col="{node.column}" order="{",".join(node.order)}">'
            )
            go(node.child)
            pieces.append("</rownum>")
        else:
            raise LoopLiftingError(f"cannot serialise {node!r}")

    go(plan)
    return "".join(pieces)


_PRED_REGISTRY: dict[str, BaseExpr] = {}


def _pred_repr(predicate: BaseExpr) -> str:
    """Predicates travel by reference (a digest key into a side table);
    real Pathfinder has a column-based predicate encoding, which we do not
    need to reproduce to pay the round-trip cost."""
    key = f"pred{id(predicate)}"
    _PRED_REGISTRY[key] = predicate  # CC006: one atomic store, never evicted
    return key


def deserialise(text: str) -> Plan:
    """Parse the wire format back into a plan (inverse of serialise)."""
    import re

    tokens = re.findall(r"<[^>]+>", text)
    position = 0

    def parse() -> Plan:
        nonlocal position
        token = tokens[position]
        position += 1
        if token.startswith("<scan"):
            table = re.search(r'table="([^"]*)"', token).group(1)
            var = re.search(r'var="([^"]*)"', token).group(1)
            cols = tuple(re.search(r'cols="([^"]*)"', token).group(1).split(","))
            return Scan(table, var, cols)
        if token == "<unit/>":
            return Unit()
        if token.startswith("<derive"):
            column = re.search(r'col="([^"]*)"', token).group(1)
            key = re.search(r"expr='([^']*)'", token).group(1)
            child = parse()
            position += 1
            return Derive(child, column, _PRED_REGISTRY[key])
        if token == "<product>":
            left = parse()
            right = parse()
            position += 1  # </product>
            return Product(left, right)
        if token == "<union>":
            left = parse()
            right = parse()
            position += 1
            return UnionAll(left, right)
        if token.startswith("<select"):
            key = re.search(r"pred='([^']*)'", token).group(1)
            child = parse()
            position += 1
            return Select(child, _PRED_REGISTRY[key])
        if token.startswith("<attach"):
            column = re.search(r'col="([^"]*)"', token).group(1)
            raw = re.search(r"value=(.*)>$", token).group(1)
            import ast as python_ast

            child_value = python_ast.literal_eval(raw)
            child = parse()
            position += 1
            return Attach(child, column, child_value)
        if token.startswith("<project"):
            keep = tuple(re.search(r'keep="([^"]*)"', token).group(1).split(","))
            child = parse()
            position += 1
            return ProjectCols(child, keep)
        if token.startswith("<rownum"):
            column = re.search(r'col="([^"]*)"', token).group(1)
            order_raw = re.search(r'order="([^"]*)"', token).group(1)
            order = tuple(order_raw.split(",")) if order_raw else ()
            child = parse()
            position += 1
            return RowNum(child, column, order)
        raise LoopLiftingError(f"cannot parse token {token!r}")

    plan = parse()
    if position != len(tokens):
        raise LoopLiftingError("trailing tokens in serialised plan")
    return plan
