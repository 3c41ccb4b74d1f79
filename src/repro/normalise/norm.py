"""Stage 3 of normalisation: the structural function norm_A (App. C.3), plus
the static-index annotation pass (§4) and the top-level entry point.

    norm_A(M) = ⌊nf_h(nf_c(M))⌋_A

After stages 1–2, a closed flat–nested query has a restricted shape:
variables are generator-bound table rows (flat records), conditionals occur
only at bag type, and comprehension sources are tables.  The structural pass
(⌊−⌋, B⌊−⌋*, F⌊−⌋ in the paper) therefore dispatches on term shape, using
the environment of generator row types where the paper's presentation uses
the expected type (tables are flat, so the two coincide).

Generator variables are renamed apart (``x1, x2, …``) during this pass; the
let-insertion stage (§6.2) requires all bound names distinct.  The renaming
is a lookup, not a substitution: the environment maps each source generator
variable to its fresh name and row type, and ``Var``/``Project`` nodes read
the fresh name from there.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import NotNormalisableError
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.nrc.types import RecordType
from repro.normalise.hoist import hoist_ifs
from repro.normalise.normal_form import (
    TRUE_NF,
    BaseExpr,
    Comprehension,
    ConstNF,
    EmptyNF,
    Generator,
    NormQuery,
    NormTerm,
    ParamNF,
    PrimNF,
    RecordNF,
    VarField,
    conj,
    neg,
)
from repro.normalise.rewrite import symbolic_eval

__all__ = ["normalise", "normalise_cached", "annotate", "tag_names"]

#: Source generator variable → (its renamed-apart name xₙ, its row type).
_Env = dict[str, tuple[str, RecordType]]


def normalise(
    term: ast.Term, schema: Schema, with_tags: bool = True
) -> NormQuery:
    """Normalise a closed flat–nested query (Theorem 1) and annotate it.

    Raises :class:`NotNormalisableError` if the term is outside the
    flat–nested fragment (free variables, higher-order result, …).
    """
    stage1 = symbolic_eval(term)
    stage2 = hoist_ifs(stage1)
    query = _Normaliser(schema).query(stage2, {})
    return annotate(query) if with_tags else query


#: Memo table for :func:`normalise_cached`, keyed on the structural
#: fingerprints of the term and schema.  Bounded LRU: normal forms are
#: shared across SqlOptions variants (the plan cache keys on options too,
#: but normalisation does not depend on them), so one memoised normal form
#: can feed several compiled plans.  Server worker threads compile
#: concurrently, so lookup-and-touch and store-and-evict each happen under
#: ``_NF_MEMO_LOCK`` (normalisation itself runs outside it).
_NF_MEMO: "OrderedDict[tuple[str, str, bool], NormQuery]" = OrderedDict()
_NF_MEMO_LIMIT = 512
_NF_MEMO_LOCK = threading.Lock()


def normalise_cached(
    term: ast.Term, schema: Schema, with_tags: bool = True
) -> NormQuery:
    """:func:`normalise`, memoised on (term, schema) fingerprints.

    Normal forms are immutable, so the cached instance is shared.  Used by
    the plan cache's cold path: two pipelines differing only in SqlOptions
    re-normalise nothing.
    """
    key = (ast.term_fingerprint(term), schema.fingerprint(), with_tags)
    with _NF_MEMO_LOCK:
        cached = _NF_MEMO.get(key)
        if cached is not None:
            _NF_MEMO.move_to_end(key)
            return cached
    normal_form = normalise(term, schema, with_tags)
    with _NF_MEMO_LOCK:
        _NF_MEMO[key] = normal_form
        while len(_NF_MEMO) > _NF_MEMO_LIMIT:
            _NF_MEMO.popitem(last=False)
    return normal_form


class _Normaliser:
    """The structural functions ⌊−⌋ / B⌊−⌋* / F⌊−⌋ of App. C.3."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"x{self._counter}"

    # -------------------------------------------------------------- queries

    def query(self, term: ast.Term, env: _Env) -> NormQuery:
        """⌊M⌋_{Bag A} = ⊎ (B⌊M⌋*_{A, [], true})."""
        return NormQuery(tuple(self.comps(term, (), TRUE_NF, env)))

    def comps(
        self,
        term: ast.Term,
        generators: tuple[Generator, ...],
        condition: BaseExpr,
        env: _Env,
    ) -> list[Comprehension]:
        """B⌊M⌋*_{A, Ḡ, L}: flatten into a list of comprehensions."""
        if isinstance(term, ast.Return):
            body = self.term(term.element, env)
            return [Comprehension(generators, condition, body)]

        if isinstance(term, ast.For):
            if not isinstance(term.source, ast.Table):
                raise NotNormalisableError(
                    f"comprehension source is not a table after stages 1-2: "
                    f"{type(term.source).__name__}"
                )
            table = self.schema.table(term.source.name)
            fresh = self._fresh()
            return self.comps(
                term.body,
                generators + (Generator(fresh, table.name),),
                condition,
                {**env, term.var: (fresh, table.row_type)},
            )

        if isinstance(term, ast.Table):
            # B⌊table t⌋* = B⌊return x⌋* with x ← t appended (η-expansion).
            table = self.schema.table(term.name)
            fresh = self._fresh()
            return self.comps(
                ast.Return(ast.Var(fresh)),
                generators + (Generator(fresh, table.name),),
                condition,
                {**env, fresh: (fresh, table.row_type)},
            )

        if isinstance(term, ast.Empty):
            return []

        if isinstance(term, ast.Union):
            return self.comps(term.left, generators, condition, env) + self.comps(
                term.right, generators, condition, env
            )

        if isinstance(term, ast.If):
            # B⌊if L' then M else N⌋*: split on the condition.
            branch_cond = self.base(term.cond, env)
            return self.comps(
                term.then, generators, conj(condition, branch_cond), env
            ) + self.comps(
                term.orelse, generators, conj(condition, neg(branch_cond)), env
            )

        raise NotNormalisableError(
            f"not a normalisable query term: {type(term).__name__}"
        )

    # ---------------------------------------------------------------- terms

    def term(self, term: ast.Term, env: _Env) -> NormTerm:
        """⌊M⌋_A: normalise a comprehension body."""
        if isinstance(term, ast.Var):
            # η-expand a row variable: ⌊x⌋_⟨ℓ:A⟩ = ⟨ℓᵢ = ⌊x.ℓᵢ⌋⟩ (F⌊−⌋).
            name, row_type = self._generator(term.name, env)
            return RecordNF(
                tuple((label, VarField(name, label)) for label, _ in row_type.fields)
            )

        if isinstance(term, ast.Record):
            return RecordNF(
                tuple(
                    (label, self.term(value, env))
                    for label, value in term.fields
                )
            )

        if isinstance(term, ast.Project):
            return self._project(term, env)

        if isinstance(term, (ast.Const, ast.Param, ast.Prim, ast.IsEmpty)):
            return self.base(term, env)

        if isinstance(
            term, (ast.For, ast.Table, ast.Empty, ast.Union, ast.Return, ast.If)
        ):
            return self.query(term, env)

        raise NotNormalisableError(
            f"not a normalisable term: {type(term).__name__}"
        )

    # ----------------------------------------------------------- base terms

    def base(self, term: ast.Term, env: _Env) -> BaseExpr:
        """⌊X⌋_O: normalise a base term."""
        if isinstance(term, ast.Const):
            return ConstNF(term.value)

        if isinstance(term, ast.Param):
            return ParamNF(term.name, term.type)

        if isinstance(term, ast.Project):
            result = self._project(term, env)
            if not isinstance(result, BaseExpr):
                raise NotNormalisableError(
                    f"projection .{term.label} is not base-typed"
                )
            return result

        if isinstance(term, ast.Prim):
            return PrimNF(
                term.op, tuple(self.base(arg, env) for arg in term.args)
            )

        if isinstance(term, ast.IsEmpty):
            return EmptyNF(self.query(term.bag, env))

        raise NotNormalisableError(
            f"not a normalisable base term: {type(term).__name__}"
        )

    # -------------------------------------------------------------- helpers

    def _project(self, term: ast.Project, env: _Env) -> NormTerm:
        if not isinstance(term.record, ast.Var):
            raise NotNormalisableError(
                "projection from a non-variable after stages 1-2: "
                f"{type(term.record).__name__}"
            )
        name, row_type = self._generator(term.record.name, env)
        row_type.field_type(term.label)  # raises if the label is unknown
        return VarField(name, term.label)

    def _generator(self, name: str, env: _Env) -> tuple[str, RecordType]:
        try:
            return env[name]
        except KeyError:
            raise NotNormalisableError(
                f"free variable {name!r} — the query must be closed"
            ) from None


# --------------------------------------------------------------------------
# Static-index annotation (§4): every comprehension body gets a unique name.


def tag_names() -> "TagGenerator":
    """The tag alphabet: a, b, …, z, a1, b1, … (⊤ is reserved for top)."""
    return TagGenerator()


class TagGenerator:
    def __init__(self) -> None:
        self._index = 0

    def __next__(self) -> str:
        letters = "abcdefghijklmnopqrstuvwxyz"
        index, self._index = self._index, self._index + 1
        letter = letters[index % 26]
        round_number = index // 26
        return letter if round_number == 0 else f"{letter}{round_number}"


def annotate(query: NormQuery) -> NormQuery:
    """Assign static tags in DFS pre-order (matches the paper's example:
    the running example's comprehensions receive a, b, c, d, e)."""
    tags = tag_names()
    return _annotate_query(query, tags)


def _annotate_query(query: NormQuery, tags: TagGenerator) -> NormQuery:
    return NormQuery(
        tuple(_annotate_comp(comp, tags) for comp in query.comprehensions)
    )


def _annotate_comp(comp: Comprehension, tags: TagGenerator) -> Comprehension:
    tag = next(tags)
    body = _annotate_term(comp.body, tags)
    where = _annotate_base(comp.where, tags)
    return Comprehension(comp.generators, where, body, tag)


def _annotate_term(term: NormTerm, tags: TagGenerator) -> NormTerm:
    if isinstance(term, NormQuery):
        return _annotate_query(term, tags)
    if isinstance(term, RecordNF):
        return RecordNF(
            tuple((label, _annotate_term(value, tags)) for label, value in term.fields)
        )
    if isinstance(term, BaseExpr):
        return _annotate_base(term, tags)
    raise NotNormalisableError(f"not a normalised term: {term!r}")


def _annotate_base(expr: BaseExpr, tags: TagGenerator) -> BaseExpr:
    if isinstance(expr, PrimNF):
        return PrimNF(
            expr.op, tuple(_annotate_base(arg, tags) for arg in expr.args)
        )
    if isinstance(expr, EmptyNF):
        # Subqueries inside emptiness tests are tagged too: they are shredded
        # (top level only) when compiled to SQL, and tags keep that uniform.
        return EmptyNF(_annotate_query(expr.query, tags))
    return expr
