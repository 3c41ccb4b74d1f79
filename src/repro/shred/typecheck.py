"""Typing rules for shredded terms (App. B, Fig. 13) — Theorem 2 runnable.

    ⊢ ⟦L⟧p : ⟦A⟧p

A shredded query has type ``Bag ⟨Index, F⟩``; this checker validates the
comprehension chains (generators over Σ-tables, boolean conditions, distinct
binders), the body's outer index position, and the inner term against the
flat type F.  It is used by tests and by the pipeline's debug assertions —
the translation itself never produces ill-typed output (that is the
theorem), so failures indicate bugs in a translation stage.
"""

from __future__ import annotations

from repro.errors import TypeCheckError
from repro.normalise.normal_form import (
    BaseExpr,
    ConstNF,
    ParamNF,
    EmptyNF,
    NormQuery,
    PrimNF,
    VarField,
)
from repro.nrc.primitives import check_prim
from repro.nrc.schema import Schema
from repro.nrc.types import BOOL, BagType, BaseType, RecordType, Type
from repro.shred.shred_types import IndexType
from repro.shred.shredded_ast import (
    IN,
    OUT,
    IndexRef,
    ShredComp,
    ShredQuery,
    SRecord,
)

__all__ = ["check_shredded_query", "infer_base_type"]

Env = dict[str, RecordType]


def check_shredded_query(
    query: ShredQuery, expected: BagType, schema: Schema
) -> None:
    """⊢ query : expected, where expected = Bag ⟨Index, F⟩ (Fig. 13 UNION)."""
    element = expected.element
    if not isinstance(element, RecordType) or element.labels != ("#1", "#2"):
        raise TypeCheckError(
            f"shredded queries have type Bag ⟨Index, F⟩, got {expected}"
        )
    if not isinstance(element.field_type("#1"), IndexType):
        raise TypeCheckError("first component must be Index")
    item_type = element.field_type("#2")
    for comp in query.comps:
        _check_comp(comp, item_type, schema)


def _check_comp(comp: ShredComp, item_type: Type, schema: Schema) -> None:
    """The FOR/SINGLETON rules: build the row environment block by block,
    checking each condition at Bool, then the body pair."""
    env: Env = {}
    for block in comp.blocks:
        for generator in block.generators:
            if generator.var in env:
                raise TypeCheckError(
                    f"duplicate binder {generator.var!r} in comprehension"
                )
            env[generator.var] = schema.table(generator.table).row_type
        _check_base(block.where, BOOL, env, schema)
    if comp.outer.kind != OUT:
        raise TypeCheckError("comprehension body outer index must be a·out")
    _check_inner(comp.inner, item_type, env, schema)


def _check_inner(term, expected: Type, env: Env, schema: Schema) -> None:
    if isinstance(term, IndexRef):
        # The INDEX rule: a·in : Index.
        if term.kind != IN:
            raise TypeCheckError("only a·in may appear inside inner terms")
        if not isinstance(expected, IndexType):
            raise TypeCheckError(f"index used where {expected} expected")
        return
    if isinstance(term, SRecord):
        if not isinstance(expected, RecordType):
            raise TypeCheckError(f"record used where {expected} expected")
        if term.labels != expected.labels:
            raise TypeCheckError(
                f"record labels {term.labels} do not match {expected.labels}"
            )
        for label, value in term.fields:
            _check_inner(value, expected.field_type(label), env, schema)
        return
    if isinstance(term, BaseExpr):
        if not isinstance(expected, BaseType):
            raise TypeCheckError(f"base term used where {expected} expected")
        _check_base(term, expected, env, schema)
        return
    raise TypeCheckError(f"not a shredded inner term: {term!r}")


def _check_base(
    expr: BaseExpr, expected: BaseType, env: Env, schema: Schema
) -> None:
    actual = infer_base_type(expr, env, schema)
    if actual != expected:
        raise TypeCheckError(f"expected {expected}, got {actual} for {expr!r}")


def infer_base_type(expr: BaseExpr, env: Env, schema: Schema) -> BaseType:
    """Synthesise the base type of a (shredded) base term X."""
    if isinstance(expr, ConstNF):
        if isinstance(expr.value, bool):
            from repro.nrc.types import BOOL as bool_type

            return bool_type
        if isinstance(expr.value, int):
            from repro.nrc.types import INT

            return INT
        if isinstance(expr.value, str):
            from repro.nrc.types import STRING

            return STRING
        raise TypeCheckError(f"bad constant {expr.value!r}")
    if isinstance(expr, ParamNF):
        if not isinstance(expr.type, BaseType):
            raise TypeCheckError(f"parameter :{expr.name} is not base-typed")
        return expr.type
    if isinstance(expr, VarField):
        row = env.get(expr.var)
        if row is None:
            raise TypeCheckError(f"unbound row variable {expr.var!r}")
        ftype = row.field_type(expr.label)
        if not isinstance(ftype, BaseType):
            raise TypeCheckError(f"{expr.var}.{expr.label} is not base-typed")
        return ftype
    if isinstance(expr, PrimNF):
        return check_prim(
            expr.op, [infer_base_type(arg, env, schema) for arg in expr.args]
        )
    if isinstance(expr, EmptyNF):
        # The ISEMPTY rule: empty L : Bool, for well-formed L (emptiness
        # needs only generators + conditions, §4.1).
        _check_probe(expr.query, env, schema)
        return BOOL
    raise TypeCheckError(f"not a base term: {expr!r}")


def _check_probe(query, env: Env, schema: Schema) -> None:
    from repro.shred.shredded_ast import empty_probe_parts

    for generators, conditions in empty_probe_parts(query):
        inner: Env = dict(env)
        for generator in generators:
            inner[generator.var] = schema.table(generator.table).row_type
        for condition in conditions:
            _check_base(condition, BOOL, inner, schema)
