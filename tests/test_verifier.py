"""Tests for the ``-verify-each`` stage verifiers (:mod:`repro.check`).

Two halves:

* **silence** — the verifiers accept everything the real pipeline produces,
  across paper queries, random well-typed queries, schemes and optimizer
  settings (a verifier that cries wolf is worse than none);
* **mutation proofs** — hand-corrupted IR and a deliberately broken
  optimizer rule are rejected at the *right stage with the right rule
  name*: the normalise-stage verifier catches unbound/duplicated/captured
  variables, the shred-stage verifier catches package-shape and type
  regressions, the codegen-stage verifier catches unresolvable SQL and
  key-indexed statements that drop a key column, the package-stage
  verifier catches a child whose outer index is narrower than its parent's
  item index, and the per-rewrite verifier catches an unguarded predicate
  pushdown the moment it filters a ROW_NUMBER CTE.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.check import (
    VerifierError,
    verification_enabled,
    verify_compiled_sql,
    verify_normal_form,
    verify_rewrite,
    verify_shredded_package,
    verify_statement,
)
from repro.data.organisation import ORGANISATION_SCHEMA
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.normalise import normalise
from repro.normalise.normal_form import (
    Comprehension,
    Generator,
    NormQuery,
    RecordNF,
    TRUE_NF,
    VarField,
)
from repro.nrc import builders as b
from repro.nrc.ast import Param, Project, Var
from repro.nrc.typecheck import infer
from repro.nrc.types import INT, STRING, BagType, RecordType
from repro.pipeline.shredder import ShreddingPipeline
from repro.shred.packages import pmap, shred_query_package
from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    Lit,
    NotOp,
    Placeholder,
    RowNumber,
    SelectCore,
    SelectItem,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.sql.codegen import SqlOptions

from .strategies import queries_with_nesting

SCHEMA = ORGANISATION_SCHEMA
ALL_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}

#: Option spread for the silence tests: every scheme/optimizer combination
#: the pipeline supports, each with verification forced on.
OPTION_SPREAD = [
    SqlOptions(verify=True),
    SqlOptions(verify=True, optimize=True),
    SqlOptions(verify=True, scheme="flat"),
    SqlOptions(verify=True, scheme="flat", optimize=True),
    SqlOptions(verify=True, ordered=True),
    SqlOptions(verify=True, scheme="flat", inline_with=True, optimize=True),
]


def _proj(var: str, label: str) -> Project:
    return Project(Var(var), label)


# ==========================================================================
# Silence: the verifiers accept everything the pipeline produces.


class TestVerifierSilence:
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_paper_queries_verify_clean(self, name):
        for options in OPTION_SPREAD:
            compiled = ShreddingPipeline(SCHEMA, options).compile(
                ALL_QUERIES[name]
            )
            assert compiled.query_count >= 1, (name, options)

    @given(queries_with_nesting())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    def test_random_well_typed_queries_verify_clean(self, query):
        """The headline property: verification never fires on output the
        pipeline actually produced, under either scheme, with and without
        the optimizer."""
        for options in (
            SqlOptions(verify=True),
            SqlOptions(verify=True, optimize=True),
            SqlOptions(verify=True, scheme="flat"),
            SqlOptions(verify=True, scheme="flat", optimize=True),
        ):
            ShreddingPipeline(SCHEMA, options).compile(query)


class TestEnablementResolution:
    def test_explicit_option_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert verification_enabled(SqlOptions(verify=True)) is True
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verification_enabled(SqlOptions(verify=False)) is False

    def test_env_wins_over_autodetect(self, monkeypatch):
        for falsy in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_VERIFY", falsy)
            assert verification_enabled(None) is False, falsy
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verification_enabled(None) is True

    def test_on_under_pytest_off_in_production(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        # Under pytest this very process carries the marker env var.
        assert verification_enabled(None) is True
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("CI", raising=False)
        assert verification_enabled(None) is False
        monkeypatch.setenv("CI", "true")
        assert verification_enabled(None) is True

    def test_verify_is_a_validated_option(self):
        from repro.errors import SqlGenerationError

        with pytest.raises(SqlGenerationError):
            SqlOptions(verify="yes")

    def test_verify_off_skips_stage_checks(self, monkeypatch):
        """With verification resolved off, even a pipeline whose optimizer
        is sabotaged compiles without a VerifierError (production shape)."""
        monkeypatch.setenv("REPRO_VERIFY", "0")
        from repro.sql import optimizer

        monkeypatch.setitem(
            optimizer.STATEMENT_RULES, "opt_fold", _sabotaged_fold
        )
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(scheme="flat", optimize=True)
        ).compile(_pushdown_bait_query())
        assert compiled.query_count == 2  # compiled; nobody checked


# ==========================================================================
# Stage: normalise — hygiene and type preservation on corrupted IR.


def _comp(generators, where=TRUE_NF, body=None):
    body = body or RecordNF((("name", VarField("x", "name")),))
    return Comprehension(tuple(generators), where, body, None)


class TestNormaliseStage:
    def test_unbound_variable_rejected(self):
        nf = NormQuery(
            (
                Comprehension(
                    (Generator("x", "departments"),),
                    TRUE_NF,
                    RecordNF((("name", VarField("y", "name")),)),
                    None,
                ),
            )
        )
        with pytest.raises(VerifierError) as err:
            verify_normal_form(nf, SCHEMA)
        assert err.value.stage == "normalise"
        assert err.value.rule == "variable-hygiene"
        assert "y.name" in str(err.value)

    def test_duplicate_binder_rejected(self):
        nf = NormQuery(
            (
                _comp(
                    [Generator("x", "departments"), Generator("x", "employees")]
                ),
            )
        )
        with pytest.raises(VerifierError) as err:
            verify_normal_form(nf, SCHEMA)
        assert err.value.rule == "variable-hygiene"
        assert "duplicate" in err.value.detail

    def test_capture_of_enclosing_binder_rejected(self):
        # Inner bag re-binds the outer comprehension's variable: legal
        # λ-calculus, but the normaliser freshens — so this is a rewrite bug.
        inner = NormQuery(
            (
                Comprehension(
                    (Generator("x", "employees"),),
                    TRUE_NF,
                    RecordNF((("emp", VarField("x", "name")),)),
                    "a",
                ),
            )
        )
        nf = NormQuery(
            (
                Comprehension(
                    (Generator("x", "departments"),),
                    TRUE_NF,
                    RecordNF((("people", inner),)),
                    None,
                ),
            )
        )
        with pytest.raises(VerifierError) as err:
            verify_normal_form(nf, SCHEMA)
        assert err.value.rule == "variable-hygiene"
        assert "captures" in err.value.detail

    def test_unknown_table_rejected(self):
        nf = NormQuery((_comp([Generator("x", "does_not_exist")]),))
        with pytest.raises(VerifierError) as err:
            verify_normal_form(nf, SCHEMA)
        assert err.value.rule == "unknown-table"

    def test_type_regression_rejected(self):
        query = b.for_(
            "x",
            b.table("departments"),
            b.ret(b.record(name=_proj("x", "name"))),
        )
        nf = normalise(query, SCHEMA)
        wrong = BagType(RecordType((("name", INT),)))
        with pytest.raises(VerifierError) as err:
            verify_normal_form(nf, SCHEMA, expected_type=wrong)
        assert err.value.stage == "normalise"
        assert err.value.rule == "type-preservation"


# ==========================================================================
# Stage: shred — package shape and per-path typing.


def _nested_query():
    return b.for_(
        "d",
        b.table("departments"),
        b.ret(
            b.record(
                dept=_proj("d", "name"),
                people=b.for_(
                    "e",
                    b.table("employees"),
                    b.where(
                        b.eq(_proj("e", "dept"), _proj("d", "name")),
                        b.ret(b.record(emp=_proj("e", "name"))),
                    ),
                ),
            )
        ),
    )


class TestShredStage:
    def test_wrong_result_type_rejected(self):
        query = _nested_query()
        nf = normalise(query, SCHEMA)
        result_type = infer(query, SCHEMA)
        package = shred_query_package(nf, result_type)
        wrong = BagType(RecordType((("other", STRING),)))
        with pytest.raises(VerifierError) as err:
            verify_shredded_package(package, wrong, SCHEMA)
        assert err.value.stage == "shred"
        assert err.value.rule == "package-shape"

    def test_non_shredquery_annotation_rejected(self):
        query = _nested_query()
        nf = normalise(query, SCHEMA)
        result_type = infer(query, SCHEMA)
        package = pmap(lambda _: "bogus", shred_query_package(nf, result_type))
        with pytest.raises(VerifierError) as err:
            verify_shredded_package(package, result_type, SCHEMA)
        assert err.value.rule == "package-shape"

    def test_swapped_path_annotations_rejected(self):
        """Every path's shredded query must check against *that* path's row
        type: grafting the outer query onto the inner path is a type error
        the Fig. 13 checker reports through the verifier."""
        query = _nested_query()
        nf = normalise(query, SCHEMA)
        result_type = infer(query, SCHEMA)
        package = shred_query_package(nf, result_type)
        from repro.shred.packages import annotations

        (_, outer), *_rest = list(annotations(package))
        corrupted = pmap(lambda _: outer, package)
        with pytest.raises(VerifierError) as err:
            verify_shredded_package(corrupted, result_type, SCHEMA)
        assert err.value.stage == "shred"
        assert err.value.rule == "type-preservation"
        assert "↓" in str(err.value)  # names the failing path


# ==========================================================================
# Stage: let-insertion — Theorem 5, where flat plans let-insert.


class TestLetInsertStage:
    def test_ill_typed_let_insertion_caught_on_flat_plans(
        self, monkeypatch
    ):
        """Mutation proof: a let-insertion that returns the *outer* path's
        query for every path fails the App. B checker at the ``letins``
        stage — on flat plans only; key-indexed plans never let-insert."""
        from repro.sql import codegen

        real = codegen.let_insert
        outer = []

        def stuck_on_the_first_query(shredded):
            outer.append(shredded)
            return real(outer[0])

        monkeypatch.setattr(codegen, "let_insert", stuck_on_the_first_query)
        with pytest.raises(VerifierError) as err:
            ShreddingPipeline(
                SCHEMA, SqlOptions(verify=True, scheme="flat")
            ).compile(_nested_query())
        assert (err.value.stage, err.value.rule) == (
            "letins",
            "type-preservation",
        )
        ShreddingPipeline(SCHEMA, SqlOptions(verify=True)).compile(
            _nested_query()
        )


# ==========================================================================
# Stage: codegen — SQL well-formedness on hand-built statements.


def _stmt(cores, ctes=(), columns=("name",), order_by=()):
    return Statement(tuple(ctes), tuple(cores), tuple(columns), tuple(order_by))


def _core(items, from_items, where=None):
    return SelectCore(tuple(items), tuple(from_items), where)


def _item(alias, expr=None):
    return SelectItem(expr if expr is not None else Col("d", alias), alias)


class TestCodegenStage:
    def test_unknown_table_rejected(self):
        stmt = _stmt([_core([_item("name")], [TableRef("nope", "d")])])
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert err.value.stage == "codegen"
        assert "unknown table 'nope'" in err.value.detail

    def test_out_of_scope_alias_rejected(self):
        stmt = _stmt(
            [
                _core(
                    [SelectItem(Col("z", "name"), "name")],
                    [TableRef("departments", "d")],
                )
            ]
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert "not in scope" in err.value.detail

    def test_nonexistent_column_rejected(self):
        stmt = _stmt(
            [
                _core(
                    [SelectItem(Col("d", "salary"), "name")],
                    [TableRef("departments", "d")],
                )
            ]
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert "does not exist" in err.value.detail

    def test_forward_cte_reference_rejected(self):
        # q1 references q2, defined *later*: valid in no WITH dialect we
        # target, and the degenerate form of a CTE cycle.
        uses_q2 = _core(
            [SelectItem(Col("c", "name"), "name")], [CteRef("q2", "c")]
        )
        defines = _core(
            [SelectItem(Col("d", "name"), "name")],
            [TableRef("departments", "d")],
        )
        stmt = _stmt(
            [_core([SelectItem(Col("c", "name"), "name")], [CteRef("q1", "c")])],
            ctes=[("q1", uses_q2), ("q2", defines)],
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert "forward or cyclic" in err.value.detail

    def test_duplicate_alias_rejected(self):
        stmt = _stmt(
            [
                _core(
                    [SelectItem(Col("d", "name"), "name")],
                    [
                        TableRef("departments", "d"),
                        TableRef("employees", "d"),
                    ],
                )
            ]
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert "duplicate alias" in err.value.detail

    def test_correlated_from_subquery_rejected(self):
        # SQLite has no LATERAL: a FROM-subquery must not see its siblings.
        correlated = _core(
            [SelectItem(Col("d", "name"), "name")], [TableRef("employees", "e")]
        )
        stmt = _stmt(
            [
                _core(
                    [SelectItem(Col("s", "name"), "name")],
                    [
                        TableRef("departments", "d"),
                        SubqueryRef(correlated, "s"),
                    ],
                )
            ]
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert "not in scope" in err.value.detail

    def test_decode_contract_mismatch_rejected(self):
        stmt = _stmt(
            [
                _core(
                    [SelectItem(Col("d", "name"), "wrong_alias")],
                    [TableRef("departments", "d")],
                )
            ],
            columns=("name",),
        )
        with pytest.raises(VerifierError) as err:
            verify_statement(stmt, SCHEMA)
        assert err.value.rule == "decode-contract"

    def test_placeholder_bookkeeping_rejected(self):
        """A compiled member whose declared param set disagrees with the
        placeholders actually in its statement is rejected."""
        query = b.for_(
            "x",
            b.table("employees"),
            b.where(
                b.ge(_proj("x", "salary"), Param("min_salary", INT)),
                b.ret(b.record(name=_proj("x", "name"))),
            ),
        )
        pipeline = ShreddingPipeline(SCHEMA, SqlOptions(verify=False))
        compiled = pipeline.compile(query)
        member = compiled.sql_package.annotation
        assert member.params == ("min_salary",)
        member.params = ()  # corrupt the bookkeeping
        with pytest.raises(VerifierError) as err:
            verify_compiled_sql(member, SCHEMA)
        assert err.value.rule == "placeholder-set"

    def test_column_layout_mismatch_rejected(self):
        query = b.for_(
            "x",
            b.table("departments"),
            b.ret(b.record(id=_proj("x", "id"), name=_proj("x", "name"))),
        )
        pipeline = ShreddingPipeline(SCHEMA, SqlOptions(verify=False))
        member = pipeline.compile(query).sql_package.annotation
        assert member.columns == ("item_id", "item_name")
        # The ⊤·1 context is the same literal in every branch: not projected.
        assert member.constants == (("outer_tag", "top"), ("outer_dyn1", 1))
        verify_compiled_sql(member, SCHEMA)
        for corrupt in (
            {"columns": ("item_name", "item_id")},  # reordered
            {"constants": member.constants[:1]},  # a literal went missing
            {"constants": member.constants + (("item_bogus", 0),)},
        ):
            broken = replace(member, **corrupt)
            with pytest.raises(VerifierError) as err:
                verify_compiled_sql(broken, SCHEMA)
            assert err.value.rule == "column-layout", corrupt


def _with_item(core: SelectCore, alias: str, expr) -> SelectCore:
    """``core`` with the expression of select item ``alias`` replaced."""
    return SelectCore(
        tuple(
            SelectItem(expr, item.alias) if item.alias == alias else item
            for item in core.items
        ),
        core.from_items,
        core.where,
    )


def _corrupt_member(member, alias: str, expr, branches=None):
    """A copy of a compiled statement with ``alias`` rebound to ``expr`` in
    the given UNION branches (default: all)."""
    selects = tuple(
        _with_item(core, alias, expr)
        if branches is None or position in branches
        else core
        for position, core in enumerate(member.statement.selects)
    )
    statement = Statement(
        member.statement.ctes, selects, member.statement.columns
    )
    return replace(member, statement=statement)


class TestKeyIndexedLayout:
    """The rules that keep key-indexed (natural) plans joinable: a statement
    binds exactly the keys of the generators in scope, and parent and child
    agree on each static tag's index width."""

    @pytest.fixture
    def q6(self):
        return ShreddingPipeline(SCHEMA, SqlOptions(verify=False)).compile(
            NESTED_QUERIES["Q6"]
        )

    def test_dropped_key_column_rejected(self, q6):
        people = q6.sql_at(q6.query_paths[1])
        verify_compiled_sql(people, SCHEMA)
        # Employees of one department would all share ⟨b, department id⟩.
        broken = _corrupt_member(people, "item_tasks_dyn2", Lit(None), {0})
        with pytest.raises(VerifierError) as err:
            verify_compiled_sql(broken, SCHEMA)
        assert (err.value.stage, err.value.rule) == ("codegen", "key-layout")
        assert "branch 0" in err.value.detail

    def test_misplaced_key_column_rejected(self, q6):
        people = q6.sql_at(q6.query_paths[1])
        broken = _corrupt_member(people, "outer_dyn1", Col("x2", "id"), {0})
        with pytest.raises(VerifierError) as err:
            verify_compiled_sql(broken, SCHEMA)
        assert err.value.rule == "key-layout"

    def test_parent_child_width_mismatch_rejected(self, q6):
        from repro.check import verify_compiled_package

        people_path, tasks_path = q6.query_paths[1:]
        tasks = q6.sql_at(tasks_path)
        # The child reads ⟨b, department⟩ where its parent emits
        # ⟨b, department, employee⟩: a prefix, so each statement is fine on
        # its own — only the package sees that the join no longer meets.
        narrow = _corrupt_member(tasks, "outer_dyn2", Lit(None))
        verify_compiled_sql(narrow, SCHEMA)
        package = pmap(
            lambda member: narrow if member is tasks else member,
            q6.sql_package,
        )
        verify_compiled_package(
            q6.sql_package, q6.result_type, SCHEMA, q6.param_specs
        )
        with pytest.raises(VerifierError) as err:
            verify_compiled_package(
                package, q6.result_type, SCHEMA, q6.param_specs
            )
        assert (err.value.stage, err.value.rule) == ("package", "index-join")
        assert "↓.people" in err.value.detail

    def test_codegen_that_drops_a_key_is_caught_by_the_pipeline(
        self, monkeypatch
    ):
        """Mutation proof: break the key projection itself and the
        *pipeline* rejects the compile at the codegen stage — and, the
        control group, sails through with verification off."""
        from repro.sql import codegen

        real = codegen._key_exprs

        def lossy_key_exprs(generators, schema):
            return real(generators, schema)[:1]  # keep only the first key

        monkeypatch.setattr(codegen, "_key_exprs", lossy_key_exprs)
        with pytest.raises(VerifierError) as err:
            ShreddingPipeline(SCHEMA, SqlOptions(verify=True)).compile(
                NESTED_QUERIES["Q6"]
            )
        assert (err.value.stage, err.value.rule) == ("codegen", "key-layout")
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(verify=False)
        ).compile(NESTED_QUERIES["Q6"])
        assert compiled.query_count == 3  # compiled; nobody checked


# ==========================================================================
# Stage: optimize — per-rewrite invariants, and the mutation proof.


def _numbered_cte_statement(extra_where=None):
    """WITH q1 AS (SELECT …, ROW_NUMBER() … FROM departments) SELECT …"""
    numbering = _core(
        [
            SelectItem(Col("x", "name"), "c1_name"),
            SelectItem(RowNumber((Col("x", "id"),)), "idx"),
        ],
        [TableRef("departments", "x")],
        where=extra_where,
    )
    main = _core(
        [
            SelectItem(Col("z", "c1_name"), "name"),
            SelectItem(Col("z", "idx"), "outer_dyn1"),
        ],
        [CteRef("q1", "z")],
    )
    return _stmt([main], ctes=[("q1", numbering)], columns=("name", "outer_dyn1"))


class TestRewriteVerifier:
    def test_malformed_rewrite_rejected(self):
        before = _numbered_cte_statement()
        after = _stmt(
            [
                _core(
                    [SelectItem(Col("d", "name"), "name")],
                    [TableRef("nope", "d")],
                )
            ],
            columns=("name",),
        )
        with pytest.raises(VerifierError) as err:
            verify_rewrite(before, after, "opt_fold", SCHEMA)
        assert err.value.stage == "optimize"
        assert err.value.rule == "opt_fold"
        assert "malformed" in err.value.detail

    def test_invented_placeholder_rejected(self):
        before = _numbered_cte_statement()
        main = before.selects[0]
        after = Statement(
            before.ctes,
            (
                SelectCore(
                    main.items,
                    main.from_items,
                    BinOp("=", Col("z", "c1_name"), Placeholder("sneaky")),
                ),
            ),
            before.columns,
            before.order_by,
        )
        with pytest.raises(VerifierError) as err:
            verify_rewrite(before, after, "opt_prune", SCHEMA)
        assert err.value.rule == "opt_prune"
        assert ":sneaky" in err.value.detail

    def test_added_union_branch_rejected(self):
        before = _numbered_cte_statement()
        after = Statement(
            before.ctes,
            before.selects + before.selects,
            before.columns,
            before.order_by,
        )
        with pytest.raises(VerifierError) as err:
            verify_rewrite(before, after, "opt_dedup", SCHEMA)
        assert "UNION branches" in err.value.detail

    def test_filtering_a_numbering_cte_rejected(self):
        before = _numbered_cte_statement()
        after = _numbered_cte_statement(
            extra_where=BinOp("=", Col("x", "name"), Lit("Sales"))
        )
        with pytest.raises(VerifierError) as err:
            verify_rewrite(before, after, "opt_prune", SCHEMA)
        assert err.value.stage == "optimize"
        assert err.value.rule == "opt_prune"
        assert "ROW_NUMBER" in err.value.detail

    def test_folding_a_numbering_ctes_filter_is_not_a_new_filter(self):
        """Regression (a Hypothesis draw that failed tier-1): ``opt_fold``
        rewrote ``NOT NOT (c AND c)`` to ``c AND c`` inside a numbering CTE
        and the conjunct count went 1 → 2 with the filter unchanged."""
        client = BinOp("=", Col("x", "name"), Lit("Sales"))
        before = _numbered_cte_statement(
            extra_where=NotOp(NotOp(BinOp("AND", client, client)))
        )
        after = _numbered_cte_statement(extra_where=BinOp("AND", client, client))
        verify_rewrite(before, after, "opt_fold", SCHEMA)


def _pushdown_bait_query():
    """Nested query whose inner statement carries a ROW_NUMBER CTE *and* an
    outer WHERE conjunct over only that CTE's alias (``d.name = 'Sales'``
    lives on the outer variable inside the inner comprehension) — exactly
    what an unguarded pushdown would wrongly move inside the numbering."""
    return b.for_(
        "d",
        b.table("departments"),
        b.ret(
            b.record(
                dept=_proj("d", "name"),
                people=b.for_(
                    "e",
                    b.table("employees"),
                    b.where(
                        b.and_(
                            b.eq(_proj("e", "dept"), _proj("d", "name")),
                            b.eq(_proj("d", "name"), b.const("Sales")),
                        ),
                        b.ret(b.record(emp=_proj("e", "name"))),
                    ),
                ),
            )
        ),
    )


def _unguarded_pushdown(statement: Statement) -> Statement:
    """A rewrite that moves every ``z.c = literal`` conjunct of a main
    select into the CTE ``z`` ranges over, ROW_NUMBER or not — filtering
    before numbering, the exact mutation the per-rewrite verifier's
    rule-agnostic guard exists to catch."""
    ctes = dict(statement.ctes)
    pushed: dict[str, list] = {}

    def conjuncts(expr):
        if isinstance(expr, BinOp) and expr.op == "AND":
            return conjuncts(expr.left) + conjuncts(expr.right)
        return [expr]

    def conjoin(exprs):
        return functools.reduce(lambda a, c: BinOp("AND", a, c), exprs)

    selects = []
    for core in statement.selects:
        cte_of = {
            item.alias: item.cte
            for item in core.from_items
            if isinstance(item, CteRef)
        }
        kept = []
        for conjunct in conjuncts(core.where) if core.where else []:
            if (
                conjunct.op == "="
                and isinstance(conjunct.left, Col)
                and conjunct.left.alias in cte_of
                and isinstance(conjunct.right, Lit)
            ):
                cte = cte_of[conjunct.left.alias]
                defining = {i.alias: i.expr for i in ctes[cte].items}
                pushed.setdefault(cte, []).append(
                    BinOp("=", defining[conjunct.left.name], conjunct.right)
                )
            else:
                kept.append(conjunct)
        selects.append(
            SelectCore(
                core.items, core.from_items, conjoin(kept) if kept else None
            )
        )
    new_ctes = tuple(
        (
            name,
            SelectCore(
                core.items,
                core.from_items,
                conjoin(([core.where] if core.where else []) + pushed[name]),
            )
            if name in pushed
            else core,
        )
        for name, core in statement.ctes
    )
    return Statement(
        new_ctes, tuple(selects), statement.columns, statement.order_by
    )


def _sabotaged_fold(statement: Statement) -> Statement:
    """A 'fold' that drops every statement's WHERE clause entirely —
    changes results, but stays structurally well-formed; used only to show
    verify-off compiles don't run the checks."""
    return Statement(
        statement.ctes,
        tuple(
            SelectCore(core.items, core.from_items, None)
            for core in statement.selects
        ),
        statement.columns,
        statement.order_by,
    )


class TestMutationProof:
    """The LLVM ``-verify-each`` pitch, end to end: break one optimizer
    rule, and the *pipeline itself* rejects the compile, attributing the
    failure to that rule at the optimize stage."""

    def test_unguarded_pushdown_caught_at_rule_granularity(self, monkeypatch):
        from repro.sql import optimizer

        # First, sanity: the bait compiles cleanly with the real rule.
        options = SqlOptions(verify=True, scheme="flat", optimize=True)
        ShreddingPipeline(SCHEMA, options).compile(_pushdown_bait_query())

        monkeypatch.setitem(
            optimizer.STATEMENT_RULES, "opt_prune", _unguarded_pushdown
        )
        with pytest.raises(VerifierError) as err:
            ShreddingPipeline(SCHEMA, options).compile(_pushdown_bait_query())
        assert err.value.stage == "optimize"
        assert err.value.rule == "opt_prune"
        assert "ROW_NUMBER" in err.value.detail

    def test_broken_rule_passes_silently_without_verification(
        self, monkeypatch
    ):
        """The control group: same sabotage, verification off — the broken
        plan sails through (which is exactly why verify-each exists)."""
        from repro.sql import optimizer

        monkeypatch.setitem(
            optimizer.STATEMENT_RULES, "opt_prune", _unguarded_pushdown
        )
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(verify=False, scheme="flat", optimize=True)
        ).compile(_pushdown_bait_query())
        assert "opt_prune" in compiled.fired_rules
        people = compiled.sql_at(compiled.query_paths[1]).statement
        assert people.ctes[0][1].where is not None  # the filter moved in
