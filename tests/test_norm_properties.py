"""Property tests focused on the normaliser (App. C invariants)."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.normalise import (
    hoist_ifs,
    is_c_normal,
    is_h_normal,
    normalise,
    symbolic_eval,
)
from repro.normalise.norm import tag_names
from repro.normalise.normal_form import (
    BaseExpr,
    NormQuery,
    RecordNF,
    iter_comprehensions,
)
from repro.check.verifier import verify_normalisation
from repro.normalise.normal_form import nf_to_term
from repro.nrc.ast import App, Lam, substitute_params, subterms
from repro.nrc.semantics import evaluate
from repro.nrc.typecheck import infer
from repro.values import bag_equal

from .strategies import queries_with_bindings, queries_with_nesting
from .test_property_pipeline import DB as SMALL_DB

SCHEMA = ORGANISATION_SCHEMA
DB = figure3_database()

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(queries_with_nesting())
@_settings
def test_stage1_reaches_c_normal_form(query):
    assert is_c_normal(symbolic_eval(query))


@given(queries_with_nesting())
@_settings
def test_stage1_idempotent(query):
    once = symbolic_eval(query)
    assert symbolic_eval(once) == once


@given(queries_with_bindings())
@_settings
def test_stage1_is_deterministic(query_and_bindings):
    """Two runs over one term — with other normalisations in between — give
    equal terms: fresh names come from a per-call counter."""
    query, _bindings = query_and_bindings
    first = symbolic_eval(query)
    symbolic_eval(first)
    assert symbolic_eval(query) == first
    assert normalise(query, SCHEMA) == normalise(query, SCHEMA)


@given(queries_with_bindings())
@_settings
def test_normalise_preserves_semantics_and_passes_the_verifier(query_and_bindings):
    """N⟦M⟧ = N⟦norm(M)⟧ with host parameters bound (on the 16-row cut of
    Fig. 3 — the oracle's cost is the product of the table sizes), and the
    pipeline's post-normalise verifier stage accepts the normal form."""
    query, bindings = query_and_bindings
    nf = normalise(query, SCHEMA)
    closed = substitute_params(query, bindings)
    assert bag_equal(
        evaluate(closed, SMALL_DB),
        evaluate(substitute_params(nf_to_term(nf), bindings), SMALL_DB),
    )
    verify_normalisation(query, nf, infer(query, SCHEMA), SCHEMA)


@given(queries_with_nesting())
@_settings
def test_stage1_eliminates_higher_order(query):
    out = symbolic_eval(query)
    assert not any(isinstance(t, (Lam, App)) for t in subterms(out))


@given(queries_with_nesting())
@_settings
def test_stage2_reaches_h_normal_form(query):
    assert is_h_normal(hoist_ifs(symbolic_eval(query)))


@given(queries_with_nesting())
@_settings
def test_normal_form_grammar_invariants(query):
    """The §2.2 grammar: generators over tables, base-term conditions,
    bodies built from base/record/query terms, unique tags, and binders
    distinct along every comprehension *chain* (a binder name may recur in
    sibling branches — they never share a scope — but not in a nested
    comprehension under it, which let-insertion will merge into one
    generator list)."""
    nf = normalise(query, SCHEMA)
    assert isinstance(nf, NormQuery)
    seen_tags: list[str] = []

    def walk_query(q: NormQuery, inherited: frozenset[str]) -> None:
        for comp in q.comprehensions:
            assert comp.tag is not None
            seen_tags.append(comp.tag)
            scope = set(inherited)
            for generator in comp.generators:
                assert generator.table in SCHEMA
                assert generator.var not in scope, "binder reused in chain"
                scope.add(generator.var)
            assert isinstance(comp.where, BaseExpr)
            assert isinstance(comp.body, (BaseExpr, RecordNF, NormQuery))
            walk_term(comp.body, frozenset(scope))

    def walk_term(term, inherited: frozenset[str]) -> None:
        if isinstance(term, NormQuery):
            walk_query(term, inherited)
        elif isinstance(term, RecordNF):
            for _, value in term.fields:
                walk_term(value, inherited)

    walk_query(nf, frozenset())
    assert len(set(seen_tags)) == len(seen_tags)


@given(queries_with_nesting(max_depth=1))
@_settings
def test_tags_assigned_in_traversal_order(query):
    """Tags are drawn from one DFS-preorder stream; subqueries under
    `empty` consume names too (invisible to iter_comprehensions), so the
    visible sequence is strictly increasing rather than contiguous."""
    nf = normalise(query, SCHEMA)
    stream = tag_names()
    rank = {next(stream): i for i in range(200)}
    ranks = [rank[comp.tag] for comp in iter_comprehensions(nf)]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)
