"""Host parameters: typed ``Param`` placeholders compile once, bind per call.

Covers the whole thread: fingerprinting (plan-cache identity), SQL
placeholders in both indexing schemes, executor binding on every engine,
validation errors, and the fluent/captured surfaces.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Param, connect, param, query
from repro.errors import EvaluationError, ShreddingError, TypeCheckError
from repro.nrc import ast, builders as b
from repro.nrc.ast import term_fingerprint
from repro.nrc.semantics import evaluate
from repro.nrc.types import BOOL, INT, STRING, bag, record_type
from repro.pipeline.plan_cache import PlanCache
from repro.pipeline.shredder import ShreddingPipeline, collect_param_specs
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

from .strategies import queries_with_bindings


def _staff_above(threshold: ast.Term) -> ast.Term:
    """for (e ← employees) where (e.salary > X) return ⟨name, salary⟩."""
    return b.for_(
        "e",
        b.table("employees"),
        lambda e: b.where(
            b.gt(e["salary"], threshold),
            b.ret(b.record(name=e["name"], salary=e["salary"])),
        ),
    )


class TestParamNode:
    def test_param_requires_identifier_name(self):
        with pytest.raises(TypeCheckError):
            ast.Param("not an identifier", INT)

    def test_param_requires_base_type(self):
        with pytest.raises(TypeCheckError):
            ast.Param("rows", bag(record_type(n=INT)))

    def test_param_rejects_unit(self):
        from repro.nrc.types import UNIT

        with pytest.raises(TypeCheckError, match="Int/Bool/String"):
            ast.Param("u", UNIT)

    def test_fingerprint_ignores_nothing_but_values(self):
        # Same name+type → same fingerprint; either differing → different.
        assert term_fingerprint(ast.Param("x", INT)) == term_fingerprint(
            ast.Param("x", INT)
        )
        assert term_fingerprint(ast.Param("x", INT)) != term_fingerprint(
            ast.Param("y", INT)
        )
        assert term_fingerprint(ast.Param("x", INT)) != term_fingerprint(
            ast.Param("x", STRING)
        )

    def test_parameterised_queries_share_a_fingerprint(self):
        one = _staff_above(ast.Param("min_salary", INT))
        two = _staff_above(ast.Param("min_salary", INT))
        assert term_fingerprint(one) == term_fingerprint(two)

    def test_collect_param_specs_sorted_and_deduplicated(self):
        p = ast.Param("lo", INT)
        term = b.for_(
            "e",
            b.table("employees"),
            lambda e: b.where(
                b.and_(b.gt(e["salary"], p), b.lt(e["salary"], ast.Param("hi", INT))),
                b.ret(e["name"]),
            ),
        )
        assert collect_param_specs(term) == (("hi", INT), ("lo", INT))

    def test_conflicting_param_types_rejected(self):
        term = b.for_(
            "e",
            b.table("employees"),
            lambda e: b.where(
                b.and_(
                    b.gt(e["salary"], ast.Param("x", INT)),
                    b.eq(e["name"], ast.Param("x", STRING)),
                ),
                b.ret(e["name"]),
            ),
        )
        with pytest.raises(ShreddingError, match="conflicting"):
            collect_param_specs(term)

    def test_conflict_names_the_first_declaration_in_pre_order(self):
        """The walk meets subterms in ``ast.subterms`` order, so the type a
        conflict names first is the one declared first in that order."""
        for first, second in ((INT, STRING), (STRING, INT)):
            term = b.union(
                b.for_(
                    "e",
                    b.table("employees"),
                    lambda e: b.where(
                        b.eq(e["dept"], b.const("x")),
                        b.ret(b.record(v=ast.Param("x", first))),
                    ),
                ),
                b.ret(b.record(v=ast.Param("x", second))),
            )
            order = [
                sub.type for sub in ast.subterms(term) if isinstance(sub, ast.Param)
            ]
            assert order == [first, second]
            with pytest.raises(
                ShreddingError, match=f"types {first} and {second}$"
            ):
                collect_param_specs(term)

    def test_params_of_branches_normalisation_drops_are_declared(self, schema):
        """The signature is the term's, not the normal form's: a parameter
        only a ``where false`` branch uses must still be bound."""
        term = b.union(
            _staff_above(ast.Param("lo", INT)),
            b.for_(
                "e",
                b.table("employees"),
                lambda e: b.where(
                    b.const(False),
                    b.where(
                        b.gt(e["salary"], ast.Param("hi", INT)),
                        b.ret(b.record(name=e["name"], salary=e["salary"])),
                    ),
                ),
            ),
        )
        compiled = ShreddingPipeline(schema).compile(term)
        assert len(compiled.normal_form.comprehensions) == 1
        assert compiled.param_specs == (("hi", INT), ("lo", INT))

    def test_in_memory_semantics_rejects_params(self, db):
        with pytest.raises(EvaluationError, match="min_salary"):
            evaluate(_staff_above(ast.Param("min_salary", INT)), db)


class TestParamExecution:
    @pytest.mark.parametrize("engine", ["per-path", "batched", "parallel"])
    def test_rebinding_matches_substituted_constants(self, db, engine):
        session = connect(db, cache=False)
        prepared = session.prepare(_staff_above(ast.Param("min_salary", INT)))
        for threshold in (0, 900, 50000, 10**9):
            bound = prepared.run(engine=engine, params={"min_salary": threshold})
            expected = session.run(_staff_above(b.const(threshold))).value
            assert bag_equal(bound.value, expected), threshold

    def test_one_miss_then_hits_across_rebinds(self, db):
        cache = PlanCache()
        session = connect(db, cache=cache)
        term = _staff_above(ast.Param("min_salary", INT))
        for i, threshold in enumerate((0, 900, 50000)):
            # A fresh prepare per call models the service's execute path.
            session.prepare(term).run(params={"min_salary": threshold})
            assert cache.misses == 1
            assert cache.hits == i
        totals = session.stats_snapshot()
        assert totals["cache_misses"] == 1
        assert totals["cache_hits"] == 2

    def test_params_in_nested_subquery(self, db):
        session = connect(db, cache=False)
        lo = param("lo", "int")
        nested = (
            session.table("departments", alias="d")
            .select(department="name")
            .nest(
                staff=lambda d: session.table("employees")
                .where(lambda e: (e.dept == d.name) & (e.salary > lo))
                .select("name")
            )
        )
        out = nested.prepare().run(params={"lo": 900}).sorted_by("department")
        assert all(
            staff["name"] != "Bert"
            for row in out
            for staff in row["staff"]
        )
        # The inner bags still exist for every department (left-outer shape).
        assert {row["department"] for row in out} == {
            row["name"] for row in db.rows("departments")
        }

    def test_params_inside_empty_probe(self, db):
        session = connect(db, cache=False)
        lo = param("lo", "int")
        probe = (
            session.table("departments", alias="d")
            .where(
                lambda d: session.table("employees")
                .where(lambda e: (e.dept == d.name) & (e.salary > lo))
                .is_empty()
            )
            .select("name")
        )
        high = probe.prepare().run(params={"lo": 10**9}).to_dicts()
        low = probe.prepare().run(params={"lo": -1}).to_dicts()
        # Threshold above every salary: every department's probe is empty.
        assert {row["name"] for row in high} == {
            row["name"] for row in db.rows("departments")
        }
        # Threshold below every salary: only staff-less departments remain.
        staffed = {row["dept"] for row in db.rows("employees")}
        assert {row["name"] for row in low} == {
            row["name"]
            for row in db.rows("departments")
            if row["name"] not in staffed
        }

    def test_natural_scheme_binds_params(self, db):
        session = connect(db, options=SqlOptions(scheme="natural"), cache=False)
        prepared = session.prepare(_staff_above(ast.Param("min_salary", INT)))
        assert "(:min_salary)" not in prepared.sql()  # rendered bare
        assert ":min_salary" in prepared.sql()
        out = prepared.run(params={"min_salary": 900})
        expected = session.run(_staff_above(b.const(900))).value
        assert bag_equal(out.value, expected)

    def test_optimizer_keeps_placeholders(self, db):
        session = connect(db, options=SqlOptions(optimize=True), cache=False)
        prepared = session.prepare(_staff_above(ast.Param("min_salary", INT)))
        assert ":min_salary" in prepared.sql()
        out = prepared.run(params={"min_salary": 900})
        expected = connect(db, cache=False).run(_staff_above(b.const(900))).value
        assert bag_equal(out.value, expected)

    def test_string_and_bool_params(self, db):
        session = connect(db, cache=False)
        dept = param("dept", "str")
        by_dept = (
            session.table("employees", alias="e")
            .where(lambda e: e.dept == dept)
            .select("name")
        )
        names = {
            row["name"]
            for row in by_dept.prepare().run(params={"dept": "Research"})
        }
        assert names == {
            row["name"] for row in db.rows("employees") if row["dept"] == "Research"
        }
        flag = param("flag", "bool")
        clients = (
            session.table("contacts", alias="c")
            .where(lambda c: c["client"] == flag)
            .select("name")
        )
        expected = {
            row["name"] for row in db.rows("contacts") if row["client"] is True
        }
        got = {
            row["name"] for row in clients.prepare().run(params={"flag": True})
        }
        assert got == expected

    def test_captured_query_closes_over_params(self, db):
        session = connect(db, cache=False)
        min_salary = param("min_salary", "int")

        @query
        def staff_above():
            return [
                {"name": e.name}
                for e in employees  # noqa: F821
                if e.salary > min_salary
            ]

        out = session.query(staff_above).run(params={"min_salary": 50000})
        assert {row["name"] for row in out} == {"Drew", "Erik", "Gina"}


class TestParamValidation:
    @pytest.fixture
    def prepared(self, db):
        session = connect(db, cache=False)
        return session.prepare(_staff_above(ast.Param("min_salary", INT)))

    def test_prepared_reports_params(self, prepared):
        assert prepared.params == ("min_salary",)

    def test_missing_param_rejected(self, prepared):
        with pytest.raises(ShreddingError, match=":min_salary"):
            prepared.run()

    def test_unknown_param_rejected(self, prepared):
        with pytest.raises(ShreddingError, match=":typo"):
            prepared.run(params={"min_salary": 1, "typo": 2})

    def test_wrong_type_rejected(self, prepared):
        with pytest.raises(ShreddingError, match="expects Int"):
            prepared.run(params={"min_salary": "high"})

    def test_bool_is_not_an_int(self, prepared):
        with pytest.raises(ShreddingError, match="expects Int"):
            prepared.run(params={"min_salary": True})

    def test_unparameterised_query_rejects_params(self, db):
        session = connect(db, cache=False)
        prepared = session.table("departments").select("name").prepare()
        with pytest.raises(ShreddingError, match="declares none"):
            prepared.run(params={"x": 1})

    def test_unknown_param_type_string(self):
        with pytest.raises(ShreddingError, match="unknown parameter type"):
            param("x", "float")

    def test_api_exports_param_both_ways(self):
        assert isinstance(param("x", BOOL).term, Param)


class TestPipelineLevelParams:
    def test_compiled_query_carries_specs(self, schema):
        pipeline = ShreddingPipeline(schema)
        compiled = pipeline.compile(_staff_above(ast.Param("min_salary", INT)))
        assert compiled.param_specs == (("min_salary", INT),)
        assert compiled.param_names == ("min_salary",)
        # Every statement that names the placeholder records it.
        from repro.shred.packages import annotations

        members = [c for _p, c in annotations(compiled.sql_package)]
        assert any("min_salary" in member.params for member in members)


def _nodes_by_fields(term: ast.Term) -> list:
    """The reference walk, independent of ``ast.subterms``: every term in
    every dataclass field of every node, pre-order in field order."""
    nodes: list = []

    def visit(value) -> None:
        if isinstance(value, ast.Term):
            nodes.append(value)
            for spec in dataclasses.fields(value):
                visit(getattr(value, spec.name))
        elif isinstance(value, tuple):
            for item in value:
                visit(item)

    visit(term)
    return nodes


@given(queries_with_bindings(max_depth=3))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_subterms_and_param_walk_match_a_field_walk(query_and_bindings):
    query, _bindings = query_and_bindings
    nodes = _nodes_by_fields(query)
    assert list(ast.subterms(query)) == nodes
    specs: dict = {}
    for node in nodes:
        if isinstance(node, ast.Param):
            specs.setdefault(node.name, node.type)
    assert collect_param_specs(query) == tuple(sorted(specs.items()))
