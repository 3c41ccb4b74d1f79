"""``nf_type`` — the result type read off a normal form — agrees with the
round trip it replaces, ``infer(nf_to_term(nf))``: the same type where that
infers, a :class:`TypeCheckError` where that raises one."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.organisation import ORGANISATION_SCHEMA
from repro.errors import TypeCheckError
from repro.normalise import nf_to_term, normalise
from repro.normalise.normal_form import (
    ConstNF,
    EmptyNF,
    NormQuery,
    PrimNF,
    RecordNF,
    VarField,
    nf_result_type,
    nf_type,
)
from repro.nrc import builders as b
from repro.nrc.typecheck import infer
from repro.service.registry import paper_registry

from .strategies import queries_with_bindings, queries_with_nesting

SCHEMA = ORGANISATION_SCHEMA

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _outcome(typing, normal_form):
    """The type ``typing`` gives, or the exception class it raises."""
    try:
        return typing(normal_form)
    except TypeCheckError:
        return TypeCheckError


def _round_trip(normal_form):
    return infer(nf_to_term(normal_form), SCHEMA)


def _read_off(normal_form):
    return nf_type(normal_form, SCHEMA)


def _agree(normal_form):
    expected = _outcome(_round_trip, normal_form)
    assert _outcome(_read_off, normal_form) == expected
    return expected


# --------------------------------------------------------------------------
# Well-typed normal forms.


REGISTRY = paper_registry()


@pytest.mark.parametrize("name", REGISTRY.names())
def test_registry_queries(name):
    normal_form = normalise(REGISTRY.lookup(name).term, SCHEMA)
    assert nf_type(normal_form, SCHEMA) == _round_trip(normal_form)


@given(queries_with_nesting(max_depth=3))
@_settings
def test_generated_queries(query):
    _agree(normalise(query, SCHEMA))


@given(queries_with_bindings())
@_settings
def test_generated_queries_with_params(query_and_bindings):
    query, _bindings = query_and_bindings
    _agree(normalise(query, SCHEMA))


def test_empty_normal_form_falls_back_to_the_term():
    """∅ has no element type: ``nf_type`` raises as the round trip does,
    and ``nf_result_type`` asks the original term."""
    query = b.for_(
        "x",
        b.table("employees"),
        lambda x: b.where(b.const(False), b.ret(b.record(name=x["name"]))),
    )
    normal_form = normalise(query, SCHEMA)
    assert normal_form == NormQuery(())
    assert _agree(normal_form) is TypeCheckError
    assert nf_result_type(normal_form, query, SCHEMA) == infer(query, SCHEMA)


def test_checked_positions_accept_what_infer_cannot():
    """A branch whose nested bag is ∅ does not infer on its own but checks
    against a sibling; an emptiness test of ∅ in a where is accepted."""
    query = b.union(
        b.for_(
            "d",
            b.table("departments"),
            lambda d: b.ret(b.record(n=d["name"], xs=b.ret(d["id"]))),
        ),
        b.for_(
            "d",
            b.table("departments"),
            lambda d: b.ret(
                b.record(
                    n=d["name"],
                    xs=b.for_(
                        "e",
                        b.table("employees"),
                        lambda e: b.where(b.const(False), b.ret(e["id"])),
                    ),
                )
            ),
        ),
    )
    normal_form = normalise(query, SCHEMA)
    first, second = normal_form.comprehensions
    assert _agree(NormQuery((second,))) is TypeCheckError
    assert _agree(normal_form) is not TypeCheckError
    probe = dataclasses.replace(first, where=EmptyNF(NormQuery(())))
    assert _agree(NormQuery((probe,))) is not TypeCheckError


# --------------------------------------------------------------------------
# Ill-typed mutants.


def _mutate_where(comp, draw):
    var = comp.generators[0].var
    return dataclasses.replace(
        comp,
        where=draw(
            st.sampled_from(
                [
                    # a String argument to >
                    PrimNF(">", (VarField(var, "id"), ConstNF("zzz"))),
                    # a non-Bool where
                    ConstNF(7),
                    VarField(var, "id"),
                    # an unknown field
                    PrimNF("=", (VarField(var, "no_such_column"), ConstNF(1))),
                ]
            )
        ),
    )


def _disagreeing_branch(comp):
    return dataclasses.replace(comp, body=RecordNF((("other", ConstNF(1)),)))


@given(queries_with_nesting(), st.data())
@_settings
def test_top_level_mutants_raise_from_both(query, data):
    """Every mutant of a top-level comprehension is ill-typed: both typings
    raise."""
    normal_form = normalise(query, SCHEMA)
    comps = list(normal_form.comprehensions)
    if not comps or not comps[0].generators:
        return
    mutation = data.draw(st.sampled_from(["where", "union"]))
    if mutation == "where":
        comps[0] = _mutate_where(comps[0], data.draw)
    else:
        comps.append(_disagreeing_branch(comps[0]))
    assert _agree(NormQuery(tuple(comps))) is TypeCheckError


def _all_comps(term):
    """Every comprehension of ``term``, emptiness probes included."""
    if isinstance(term, NormQuery):
        for comp in term.comprehensions:
            yield comp
            yield from _all_comps(comp.where)
            yield from _all_comps(comp.body)
    elif isinstance(term, RecordNF):
        for _label, value in term.fields:
            yield from _all_comps(value)
    elif isinstance(term, EmptyNF):
        yield from _all_comps(term.query)
    elif isinstance(term, PrimNF):
        for arg in term.args:
            yield from _all_comps(arg)


def _replace_comp(term, target, new):
    """``term`` with the comprehension ``target`` (by identity) replaced."""
    if isinstance(term, NormQuery):
        return NormQuery(
            tuple(
                new if comp is target else _replace_in_comp(comp, target, new)
                for comp in term.comprehensions
            )
        )
    if isinstance(term, RecordNF):
        return RecordNF(
            tuple(
                (label, _replace_comp(value, target, new))
                for label, value in term.fields
            )
        )
    if isinstance(term, EmptyNF):
        return EmptyNF(_replace_comp(term.query, target, new))
    if isinstance(term, PrimNF):
        return PrimNF(
            term.op, tuple(_replace_comp(arg, target, new) for arg in term.args)
        )
    return term


def _replace_in_comp(comp, target, new):
    return dataclasses.replace(
        comp,
        where=_replace_comp(comp.where, target, new),
        body=_replace_comp(comp.body, target, new),
    )


@given(queries_with_nesting(max_depth=3), st.data())
@_settings
def test_nested_mutants_agree(query, data):
    """A mutant anywhere — a nested bag, an emptiness probe in a where —
    is typed alike: checked positions are as lenient in both."""
    normal_form = normalise(query, SCHEMA)
    comps = [comp for comp in _all_comps(normal_form) if comp.generators]
    if not comps:
        return
    target = data.draw(st.sampled_from(comps))
    mutant = (
        _mutate_where(target, data.draw)
        if data.draw(st.booleans())
        else _disagreeing_branch(target)
    )
    _agree(_replace_comp(normal_form, target, mutant))
