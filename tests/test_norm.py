"""Tests for stage 3 + the full normalisation pipeline (§2.2, App. C.3)."""

from __future__ import annotations

import pytest

from repro.data import queries
from repro.errors import NotNormalisableError
from repro.nrc import builders as b
from repro.nrc.ast import Var
from repro.nrc.semantics import evaluate
from repro.normalise import normalise, nf_to_term, pretty_nf
from repro.normalise.normal_form import (
    Comprehension,
    EmptyNF,
    NormQuery,
    PrimNF,
    RecordNF,
    TRUE_NF,
    VarField,
    iter_comprehensions,
)
from repro.values import bag_equal


class TestShapes:
    def test_simple_select(self, schema):
        nf = normalise(queries.QF1, schema)
        assert isinstance(nf, NormQuery)
        assert len(nf.comprehensions) == 1
        comp = nf.comprehensions[0]
        assert [g.table for g in comp.generators] == ["employees"]
        assert comp.where != TRUE_NF
        assert isinstance(comp.body, RecordNF)

    def test_join_merges_generators(self, schema):
        nf = normalise(queries.QF2, schema)
        comp = nf.comprehensions[0]
        assert [g.table for g in comp.generators] == ["employees", "tasks"]

    def test_union_splits_comprehensions(self, schema):
        nf = normalise(queries.QF4, schema)
        assert len(nf.comprehensions) == 2

    def test_generators_renamed_apart(self, schema):
        nf = normalise(queries.QF3, schema)
        comp = nf.comprehensions[0]
        names = comp.var_names
        assert len(set(names)) == len(names)
        all_names = [
            g.var
            for comp in iter_comprehensions(nf)
            for g in comp.generators
        ]
        assert len(set(all_names)) == len(all_names)

    def test_empty_probe_becomes_empty_nf(self, schema):
        nf = normalise(queries.QF5, schema)
        comp = nf.comprehensions[0]
        found = _find_empty(comp.where)
        assert found, "anti-join should normalise to an empty() condition"

    def test_table_eta_expansion(self, schema):
        nf = normalise(b.table("departments"), schema)
        comp = nf.comprehensions[0]
        assert [g.table for g in comp.generators] == ["departments"]
        assert isinstance(comp.body, RecordNF)
        assert comp.body.labels == ("id", "name")

    def test_qcomp_structure_matches_paper(self, schema):
        """§2.2/§3: the normal form of Q6 = Q(Qorg) is Qcomp."""
        nf = normalise(queries.Q6, schema)
        # Top level: a single comprehension over departments, tag a.
        assert len(nf.comprehensions) == 1
        top = nf.comprehensions[0]
        assert top.tag == "a"
        assert [g.table for g in top.generators] == ["departments"]
        assert isinstance(top.body, RecordNF)
        assert top.body.labels == ("department", "people")
        people = top.body.field("people")
        assert isinstance(people, NormQuery)
        # people = employees-branch ⊎ contacts-branch, tags b and d.
        assert len(people.comprehensions) == 2
        emp_branch, con_branch = people.comprehensions
        assert emp_branch.tag == "b"
        assert con_branch.tag == "d"
        assert [g.table for g in emp_branch.generators] == ["employees"]
        assert [g.table for g in con_branch.generators] == ["contacts"]
        # Inner task queries, tags c and e.
        emp_tasks = emp_branch.body.field("tasks")
        con_tasks = con_branch.body.field("tasks")
        assert emp_tasks.comprehensions[0].tag == "c"
        assert [g.table for g in emp_tasks.comprehensions[0].generators] == [
            "tasks"
        ]
        assert con_tasks.comprehensions[0].tag == "e"
        assert con_tasks.comprehensions[0].generators == ()

    def test_tags_unique_across_query(self, schema):
        nf = normalise(queries.Q6, schema)
        tags = [comp.tag for comp in iter_comprehensions(nf)]
        assert tags == ["a", "b", "c", "d", "e"]

    def test_higher_order_eliminated_in_q2(self, schema):
        nf = normalise(queries.Q2, schema)
        # Q2 is a flat query: single-level comprehensions with an all/contains
        # condition turned into nested empty() probes.
        for comp in nf.comprehensions:
            assert isinstance(comp.body, RecordNF)
            assert _find_empty(comp.where)


class TestErrors:
    def test_free_variable_rejected(self, schema):
        with pytest.raises(NotNormalisableError):
            normalise(b.ret(Var("x")["f"]), schema)

    def test_lambda_result_rejected(self, schema):
        with pytest.raises(NotNormalisableError):
            normalise(b.ret(b.lam("x", lambda x: x)), schema)


class TestSemanticsPreservation:
    """Theorem 1: normalisation preserves N⟦−⟧."""

    @pytest.mark.parametrize("name", sorted(queries.FLAT_QUERIES))
    def test_flat_queries(self, name, schema, db):
        query = queries.FLAT_QUERIES[name]
        nf = normalise(query, schema)
        assert bag_equal(
            evaluate(query, db), evaluate(nf_to_term(nf), db)
        ), f"{name} changed meaning under normalisation"

    @pytest.mark.parametrize("name", sorted(queries.NESTED_QUERIES))
    def test_nested_queries(self, name, schema, db):
        query = queries.NESTED_QUERIES[name]
        nf = normalise(query, schema)
        assert bag_equal(
            evaluate(query, db), evaluate(nf_to_term(nf), db)
        ), f"{name} changed meaning under normalisation"

    @pytest.mark.parametrize("name", sorted(queries.NESTED_QUERIES))
    def test_on_random_database(self, name, schema, small_random_db):
        query = queries.NESTED_QUERIES[name]
        nf = normalise(query, schema)
        assert bag_equal(
            evaluate(query, small_random_db),
            evaluate(nf_to_term(nf), small_random_db),
        )

    def test_on_empty_database(self, schema, empty_db):
        nf = normalise(queries.Q6, schema)
        assert evaluate(nf_to_term(nf), empty_db) == []


class TestPretty:
    def test_pretty_mentions_tags_and_tables(self, schema):
        text = pretty_nf(normalise(queries.Q6, schema))
        for piece in ["return^a", "return^e", "departments", "“buy”"]:
            assert piece in text


def _find_empty(expr) -> bool:
    if isinstance(expr, EmptyNF):
        return True
    if isinstance(expr, PrimNF):
        return any(_find_empty(arg) for arg in expr.args)
    return False


class TestWorkBars:
    """Counts, not clocks: normalisation substitutes nothing and computes
    free variables at most once (to seed the machine's scope)."""

    def test_normalise_never_substitutes(self, schema, count_calls):
        from repro.nrc import ast
        from repro.service.registry import paper_registry

        registry = paper_registry()
        terms = {name: registry.lookup(name).term for name in registry.names()}
        assert {"Q1", "Q6", "dept_staff"} <= set(terms)
        substitutions = count_calls(ast.substitute)
        free_var_walks = count_calls(ast.free_vars)
        fresh_names = count_calls(ast.fresh_name)
        for name, term in terms.items():
            del free_var_walks[:]
            normalise(term, schema)
            assert len(free_var_walks) <= 1, name
        assert substitutions == [] and fresh_names == []
        ast.substitute(terms["Q1"], "x", Var("y"))  # the spies do see calls
        assert substitutions
