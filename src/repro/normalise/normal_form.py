"""Normal forms for flat–nested queries (§2.2).

    Query terms      L ::= ⊎ C̄
    Comprehensions   C ::= for (Ḡ where X) returnᵃ M
    Generators       G ::= x ← t
    Normalised terms M ::= X | R | L
    Record terms     R ::= ⟨ℓ = M, …⟩
    Base terms       X ::= x.ℓ | c(X̄) | empty L

(Constants are nullary primitives ``c()``; we give them their own node for
clarity.)  The superscript ``a`` on ``return`` is the *static index* added by
the annotation pass (§4); it is ``None`` until then.

This module defines the normal-form dataclasses, conversion back to λNRC
terms (used by tests and the correctness properties), the typing of a
normal form (the pipelines' result type), an evaluator for base terms
(shared by the shredded and let-inserted semantics), and a pretty printer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union as PyUnion

from repro.errors import NormalisationError, TypeCheckError, UnboundVariableError
from repro.nrc import ast
from repro.nrc import builders as b
from repro.nrc.primitives import apply_prim, check_prim
from repro.nrc.schema import Schema
from repro.nrc.semantics import TableProvider
from repro.nrc.typecheck import _base_type_of_const, infer
from repro.nrc.types import BOOL, BagType, RecordType, Type

__all__ = [
    "BaseExpr",
    "ConstNF",
    "VarField",
    "ParamNF",
    "PrimNF",
    "EmptyNF",
    "RecordNF",
    "NormQuery",
    "Comprehension",
    "Generator",
    "NormTerm",
    "TRUE_NF",
    "conj",
    "neg",
    "nf_to_term",
    "nf_type",
    "nf_result_type",
    "base_to_term",
    "eval_base",
    "pretty_nf",
    "iter_comprehensions",
    "conjuncts",
    "conjoin",
    "free_fields",
]


class BaseExpr:
    """Abstract base class for normalised base terms X."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstNF(BaseExpr):
    """A constant of base type (a nullary primitive in the paper)."""

    value: object


@dataclass(frozen=True)
class VarField(BaseExpr):
    """A projection ``x.ℓ`` from a generator-bound row variable."""

    var: str
    label: str


@dataclass(frozen=True)
class ParamNF(BaseExpr):
    """A typed host-parameter placeholder ``:name`` (a constant whose value
    is bound at execution time; see :class:`repro.nrc.ast.Param`)."""

    name: str
    type: object  # a repro.nrc.types.BaseType

    def eval_in_env(self, env: dict, tables) -> object:
        from repro.errors import EvaluationError

        raise EvaluationError(
            f"host parameter :{self.name} has no value in the in-memory "
            f"semantics; bind it through the SQL pipeline (run(params=...))"
        )


@dataclass(frozen=True)
class PrimNF(BaseExpr):
    """A primitive application ``c(X₁, …, Xₙ)``."""

    op: str
    args: tuple[BaseExpr, ...]


@dataclass(frozen=True)
class EmptyNF(BaseExpr):
    """An emptiness test ``empty L`` over a normalised query."""

    query: "NormQuery"


@dataclass(frozen=True)
class Generator:
    """A generator ``x ← t`` ranging over a flat table."""

    var: str
    table: str


@dataclass(frozen=True)
class RecordNF:
    """A record term ⟨ℓ₁ = M₁, …⟩ (fields sorted by label)."""

    fields: tuple[tuple[str, "NormTerm"], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fields", tuple(sorted(self.fields, key=lambda f: f[0]))
        )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def field(self, label: str) -> "NormTerm":
        for name, term in self.fields:
            if name == label:
                return term
        raise NormalisationError(f"record normal form has no field {label!r}")


@dataclass(frozen=True)
class Comprehension:
    """``for (x₁ ← t₁, …, xₙ ← tₙ where X) returnᵃ M``."""

    generators: tuple[Generator, ...]
    where: BaseExpr
    body: "NormTerm"
    tag: str | None = None

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(g.var for g in self.generators)


@dataclass(frozen=True)
class NormQuery:
    """A union of comprehensions ⊎ C̄ (empty tuple = the empty bag ∅)."""

    comprehensions: tuple[Comprehension, ...]


NormTerm = PyUnion[BaseExpr, RecordNF, NormQuery]

TRUE_NF: BaseExpr = ConstNF(True)


def conj(left: BaseExpr, right: BaseExpr) -> BaseExpr:
    """Smart conjunction: drops ``true`` units (App. C starts from true)."""
    if left == TRUE_NF:
        return right
    if right == TRUE_NF:
        return left
    return PrimNF("and", (left, right))


def neg(expr: BaseExpr) -> BaseExpr:
    """Smart negation (¬true = false, ¬¬X = X)."""
    if isinstance(expr, ConstNF) and isinstance(expr.value, bool):
        return ConstNF(not expr.value)
    if isinstance(expr, PrimNF) and expr.op == "not":
        return expr.args[0]
    return PrimNF("not", (expr,))


# --------------------------------------------------------------------------
# Conversion back to λNRC (the normal form is a sub-language of λNRC).


def base_to_term(expr: BaseExpr) -> ast.Term:
    if isinstance(expr, ConstNF):
        return ast.Const(expr.value)
    if isinstance(expr, ParamNF):
        return ast.Param(expr.name, expr.type)
    if isinstance(expr, VarField):
        return ast.Project(ast.Var(expr.var), expr.label)
    if isinstance(expr, PrimNF):
        return ast.Prim(expr.op, tuple(base_to_term(arg) for arg in expr.args))
    if isinstance(expr, EmptyNF):
        return ast.IsEmpty(nf_to_term(expr.query))
    raise NormalisationError(f"not a base normal form: {expr!r}")


def _term_of(term: NormTerm) -> ast.Term:
    if isinstance(term, BaseExpr):
        return base_to_term(term)
    if isinstance(term, RecordNF):
        return ast.Record(
            tuple((label, _term_of(value)) for label, value in term.fields)
        )
    if isinstance(term, NormQuery):
        return nf_to_term(term)
    raise NormalisationError(f"not a normalised term: {term!r}")


def nf_to_term(query: NormQuery) -> ast.Term:
    """Convert a normal form back into an (equivalent) λNRC term."""
    branches: list[ast.Term] = []
    for comp in query.comprehensions:
        body: ast.Term = ast.Return(_term_of(comp.body))
        if comp.where != TRUE_NF:
            body = b.where(base_to_term(comp.where), body)
        for generator in reversed(comp.generators):
            body = ast.For(generator.var, ast.Table(generator.table), body)
        branches.append(body)
    if not branches:
        return ast.Empty()
    return b.union(*branches)


# --------------------------------------------------------------------------
# Typing.  Normalisation preserves types (Theorem 1), so a pipeline reads
# its result type off the normal form: generators over tables type the row
# variables, and the rest is the base-term and record rules of Fig. 12.


def nf_type(query: NormQuery, schema: Schema) -> Type:
    """The type of a normal form, checked — ``infer(nf_to_term(query))``
    without building the term.

    The same bidirectional rules as :func:`repro.nrc.typecheck.infer` over
    the term :func:`nf_to_term` would build, so it raises
    :class:`TypeCheckError` exactly where that does: a ``where`` is checked
    against ``Bool``; a union infers from its first branch that infers and
    checks the others against it (∅ has no type of its own, so a normal
    form with no comprehensions does not infer); an emptiness test in
    checking position accepts any query it cannot infer."""
    return _infer_query(query, schema, {})


def nf_result_type(
    normal_form: NormQuery, original: ast.Term, schema: Schema
) -> Type:
    """A pipeline's result type: the normal form's (:func:`nf_type`), or —
    whenever the normal form does not infer on its own (∅ at the top, ∅ in
    every branch of a nested bag, or a real type error) — the original
    term's, so an error names the term the caller wrote."""
    try:
        return nf_type(normal_form, schema)
    except TypeCheckError:
        return infer(original, schema)


def _infer_query(query: NormQuery, schema: Schema, env: dict) -> Type:
    if not query.comprehensions:
        raise TypeCheckError(
            "cannot infer the element type of ∅; annotate with Empty(A)"
        )
    result: Type | None = None
    unknown: list[Comprehension] = []
    for comp in query.comprehensions:
        try:
            found = _infer_comp(comp, schema, env)
        except TypeCheckError:
            unknown.append(comp)
            continue
        if result is None:
            result = found
        elif found != result:
            raise TypeCheckError(
                f"union of mismatched bag types: {result} vs {found}"
            )
    if result is None:
        raise TypeCheckError("cannot infer any comprehension of a union")
    for comp in unknown:
        _check_comp(comp, result, schema, env)
    return result


def _scope(comp: Comprehension, schema: Schema, env: dict) -> dict:
    """``env`` extended with the comprehension's row variables — each bound
    to its table's columns, the fields of Σ(t)'s row type — and its
    ``where`` checked against ``Bool`` under them."""
    scope = dict(env)
    for generator in comp.generators:
        scope[generator.var] = schema.table(generator.table).columns
    if comp.where != TRUE_NF:
        _check_base(comp.where, BOOL, schema, scope)
    return scope


def _infer_comp(comp: Comprehension, schema: Schema, env: dict) -> Type:
    return BagType(_infer_term(comp.body, schema, _scope(comp, schema, env)))


def _check_comp(
    comp: Comprehension, expected: Type, schema: Schema, env: dict
) -> None:
    scope = _scope(comp, schema, env)
    if not isinstance(expected, BagType):
        raise TypeCheckError(f"return used at non-bag type {expected}")
    _check_term(comp.body, expected.element, schema, scope)


def _infer_term(term: NormTerm, schema: Schema, env: dict) -> Type:
    if isinstance(term, NormQuery):
        return _infer_query(term, schema, env)
    if isinstance(term, RecordNF):
        return RecordType(
            tuple(
                (label, _infer_term(value, schema, env))
                for label, value in term.fields
            )
        )
    return _infer_base(term, schema, env)


def _check_term(term: NormTerm, expected: Type, schema: Schema, env: dict) -> None:
    if isinstance(term, NormQuery):
        if not isinstance(expected, BagType):
            raise TypeCheckError(f"query used at non-bag type {expected}")
        for comp in term.comprehensions:
            _check_comp(comp, expected, schema, env)
    elif isinstance(term, RecordNF):
        if not isinstance(expected, RecordType):
            raise TypeCheckError(f"record used at non-record type {expected}")
        if term.labels != expected.labels:
            raise TypeCheckError(
                f"record fields ({', '.join(term.labels)}) do not match "
                f"expected {expected}"
            )
        for (_label, value), (_same, ftype) in zip(term.fields, expected.fields):
            _check_term(value, ftype, schema, env)
    else:
        _check_base(term, expected, schema, env)


def _infer_base(expr: BaseExpr, schema: Schema, env: dict) -> Type:
    if isinstance(expr, VarField):
        try:
            columns = env[expr.var]
        except KeyError:
            raise UnboundVariableError(expr.var) from None
        for label, column_type in columns:
            if label == expr.label:
                return column_type
        raise TypeCheckError(f"{expr.var} has no field {expr.label!r}")
    if isinstance(expr, ConstNF):
        return _base_type_of_const(expr.value)
    if isinstance(expr, ParamNF):
        return expr.type
    if isinstance(expr, PrimNF):
        return check_prim(
            expr.op, [_infer_base(arg, schema, env) for arg in expr.args]
        )
    if isinstance(expr, EmptyNF):
        _infer_query(expr.query, schema, env)
        return BOOL
    raise NormalisationError(f"not a base normal form: {expr!r}")


def _check_base(expr: BaseExpr, expected: Type, schema: Schema, env: dict) -> None:
    if isinstance(expr, EmptyNF):
        # ``empty L : Bool`` for any L, and one that does not infer (an ∅
        # inside) is accepted — as ``check`` accepts ``IsEmpty``.
        if expected != BOOL:
            raise TypeCheckError(f"empty-test used at non-bool type {expected}")
        try:
            _infer_query(expr.query, schema, env)
        except TypeCheckError:
            pass
        return
    if isinstance(expr, PrimNF) and expr.op in ("and", "or", "not"):
        # Connectives pass the expected Bool on to their operands.
        result = check_prim(expr.op, [BOOL] * len(expr.args))
        if result != expected:
            raise TypeCheckError(f"expected {expected}, got {result}")
        for arg in expr.args:
            _check_base(arg, BOOL, schema, env)
        return
    actual = _infer_base(expr, schema, env)
    if actual != expected:
        raise TypeCheckError(f"expected {expected}, got {actual}")


# --------------------------------------------------------------------------
# Evaluation of base terms (shared by S⟦−⟧ and L⟦−⟧).


def eval_base(expr: BaseExpr, env: dict, tables: TableProvider) -> object:
    """Evaluate a base term under a row environment — N⟦X⟧ρ."""
    if isinstance(expr, ConstNF):
        return expr.value
    if isinstance(expr, VarField):
        return env[expr.var][expr.label]
    if isinstance(expr, PrimNF):
        return apply_prim(
            expr.op, [eval_base(arg, env, tables) for arg in expr.args]
        )
    if isinstance(expr, EmptyNF):
        if isinstance(expr.query, NormQuery):
            return _query_is_empty(expr.query, env, tables)
        # After shredding, emptiness tests in comprehension *bodies* wrap a
        # ShredQuery (⟨empty L⟩ₐ = empty ⟦L⟧ε); delegate to its evaluator.
        from repro.shred.semantics import shred_query_is_empty

        return shred_query_is_empty(expr.query, env, tables)
    # Later pipeline stages extend the base-term grammar (z-projections and
    # the index primitive of §6.2); those leaves evaluate themselves.
    evaluator = getattr(expr, "eval_in_env", None)
    if evaluator is not None:
        return evaluator(env, tables)
    raise NormalisationError(f"not a base normal form: {expr!r}")


def _query_is_empty(query: NormQuery, env: dict, tables: TableProvider) -> bool:
    for comp in query.comprehensions:
        if _comp_inhabited(comp, env, tables):
            return False
    return True


def _comp_inhabited(
    comp: Comprehension, env: dict, tables: TableProvider
) -> bool:
    def go(index: int, scope: dict) -> bool:
        if index == len(comp.generators):
            return bool(eval_base(comp.where, scope, tables))
        generator = comp.generators[index]
        for row in tables.rows(generator.table):
            inner = dict(scope)
            inner[generator.var] = row
            if go(index + 1, inner):
                return True
        return False

    return go(0, dict(env))


# --------------------------------------------------------------------------
# Traversal and pretty printing.


def iter_comprehensions(query: NormQuery) -> Iterator[Comprehension]:
    """Yield every comprehension in the query, DFS pre-order.

    The order matches the static-tag assignment of the annotation pass.
    """
    for comp in query.comprehensions:
        yield comp
        yield from _iter_term(comp.body)


def _iter_term(term: NormTerm) -> Iterator[Comprehension]:
    if isinstance(term, NormQuery):
        yield from iter_comprehensions(term)
    elif isinstance(term, RecordNF):
        for _, value in term.fields:
            yield from _iter_term(value)


def conjuncts(expr: BaseExpr) -> list[BaseExpr]:
    """The conjuncts of a condition, left to right (``true`` has none)."""
    if isinstance(expr, PrimNF) and expr.op == "and":
        return [part for arg in expr.args for part in conjuncts(arg)]
    return [] if expr == TRUE_NF else [expr]


def conjoin(parts) -> BaseExpr:
    """The conjunction of ``parts`` (``true`` when there are none)."""
    result = TRUE_NF
    for part in parts:
        result = conj(result, part)
    return result


def free_fields(term: NormTerm, bound: frozenset = frozenset()) -> Iterator[VarField]:
    """Every ``x.ℓ`` of ``term`` whose ``x`` no generator inside it (or in
    ``bound``) binds — emptiness tests and nested queries included."""
    if isinstance(term, VarField):
        if term.var not in bound:
            yield term
    elif isinstance(term, PrimNF):
        for arg in term.args:
            yield from free_fields(arg, bound)
    elif isinstance(term, EmptyNF):
        yield from free_fields(term.query, bound)
    elif isinstance(term, RecordNF):
        for _label, value in term.fields:
            yield from free_fields(value, bound)
    elif isinstance(term, NormQuery):
        for comp in term.comprehensions:
            inner = bound | {g.var for g in comp.generators}
            yield from free_fields(comp.where, inner)
            yield from free_fields(comp.body, inner)


def pretty_nf(query: NormQuery, indent: int = 0) -> str:
    """Render a normal form in paper-style notation."""
    pad = "  " * indent
    if not query.comprehensions:
        return pad + "∅"
    pieces = [_pretty_comp(comp, indent) for comp in query.comprehensions]
    return ("\n" + pad + "⊎\n").join(pieces)


def _pretty_comp(comp: Comprehension, indent: int) -> str:
    pad = "  " * indent
    gens = ", ".join(f"{g.var} ← {g.table}" for g in comp.generators)
    tag = comp.tag or ""
    where = ""
    if comp.where != TRUE_NF:
        where = f" where {_pretty_base(comp.where)}"
    body = _pretty_term(comp.body, indent + 1)
    return f"{pad}for ({gens}{where})\n{pad}  return^{tag} {body}"


def _pretty_term(term: NormTerm, indent: int) -> str:
    if isinstance(term, BaseExpr):
        return _pretty_base(term)
    if isinstance(term, RecordNF):
        inner = ", ".join(
            f"{label} = {_pretty_term(value, indent)}"
            for label, value in term.fields
        )
        return f"⟨{inner}⟩"
    if isinstance(term, NormQuery):
        return "(\n" + pretty_nf(term, indent + 1) + ")"
    raise NormalisationError(f"not a normalised term: {term!r}")


def _pretty_base(expr: BaseExpr) -> str:
    from repro.nrc.pretty import pretty

    return pretty(base_to_term(expr))
