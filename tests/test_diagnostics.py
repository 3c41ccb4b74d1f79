"""Tests for query diagnostics (:mod:`repro.check.diagnostics`) and the
``python -m repro lint`` CLI.

The diagnostics layer explains *well-formed but surprising* queries:
declared parameters no SQL statement binds (QS101), the shard plan and its
cause (QS201), advisory-index hints (QS301), the statement count vs. the
paper's shredding bound (QS401).  Lint fails (exit 1) iff any diagnostic is
a warning or an error — and the whole paper registry must lint clean,
which is what the CI ``analyze`` job asserts with this same CLI.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.__main__ import main
from repro.api import connect
from repro.check.diagnostics import Diagnostic, has_failures
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.nrc import builders as b
from repro.nrc.ast import App, Const, Lam, Param, Project, Var
from repro.nrc.types import BOOL, INT
from repro.service.registry import QueryRegistry, paper_registry
from repro.shard import endpoint_session
from repro.sql.codegen import SqlOptions

SCHEMA = ORGANISATION_SCHEMA


def _proj(var, label):
    return Project(Var(var), label)


def _dead_param_query():
    """The parameter :flag is declared by the term but β-reduces away
    during normalisation — no SQL statement ever binds it."""
    return b.for_(
        "x",
        b.table("departments"),
        b.where(
            App(Lam("y", Const(True), BOOL), Param("flag", BOOL)),
            b.ret(b.record(name=_proj("x", "name"))),
        ),
    )


def _fallback_query():
    """A self-join over the sharded table: non-distributive, so the
    analysis diverts it whole to the full-copy fallback shard."""
    return b.for_(
        "d1",
        b.table("departments"),
        b.for_(
            "d2",
            b.table("departments"),
            b.where(
                b.eq(_proj("d1", "name"), _proj("d2", "name")),
                b.ret(b.record(name=_proj("d1", "name"))),
            ),
        ),
    )


@pytest.fixture()
def session():
    with connect(figure3_database(), cache=False) as s:
        yield s


class TestDiagnosticValue:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Diagnostic("QS999", "fatal", "x", "nope")

    def test_str_format(self):
        d = Diagnostic("QS101", "warning", "param :flag", "dead parameter")
        assert str(d) == "QS101 warning [param :flag] dead parameter"

    def test_has_failures(self):
        info = Diagnostic("QS401", "info", "package", "fine")
        warn = Diagnostic("QS101", "warning", "param :x", "dead")
        assert not has_failures([info])
        assert has_failures([info, warn])


class TestDeadParameters:
    def test_dead_param_warns_qs101(self, session):
        diags = session.lint(_dead_param_query())
        dead = [d for d in diags if d.code == "QS101"]
        assert len(dead) == 1
        assert dead[0].severity == "warning"
        assert dead[0].span == "param :flag"
        assert "bound by none" in dead[0].message
        assert has_failures(diags)

    def test_live_param_is_clean(self, session):
        query = b.for_(
            "e",
            b.table("employees"),
            b.where(
                b.ge(_proj("e", "salary"), Param("min_salary", INT)),
                b.ret(b.record(name=_proj("e", "name"))),
            ),
        )
        diags = session.lint(query)
        assert not [d for d in diags if d.code in ("QS101", "QS102")]
        assert not has_failures(diags)

    def test_diagnostics_sorted_most_severe_first(self, session):
        diags = session.lint(_dead_param_query())
        severities = [d.severity for d in diags]
        assert severities == sorted(
            severities, key=["error", "warning", "info"].index
        )


class TestShardPlanAttribution:
    def test_fallback_cause_explained(self, session):
        diags = session.lint(
            _fallback_query(), placement=organisation_placement()
        )
        (plan,) = [d for d in diags if d.code == "QS201"]
        assert plan.severity == "info"
        assert "fallback" in plan.span
        assert "cannot be distributed" in plan.message
        assert "non-distributive" in plan.message

    def test_fanout_cause_explained(self, session):
        query = b.for_(
            "d",
            b.table("departments"),
            b.ret(b.record(name=_proj("d", "name"))),
        )
        diags = session.lint(query, placement=organisation_placement())
        (plan,) = [d for d in diags if d.code == "QS201"]
        assert "fanout" in plan.span
        assert "distributive over" in plan.message

    def test_no_placement_no_shard_diagnostic(self, session):
        diags = session.lint(_fallback_query())
        assert not [d for d in diags if d.code == "QS201"]


class TestBoundAndIndexes:
    def test_shredding_bound_reported(self, session):
        from repro.data.queries import NESTED_QUERIES

        diags = session.lint(NESTED_QUERIES["Q6"])
        (bound,) = [d for d in diags if d.code == "QS401"]
        assert "exactly 3 flat statement(s)" in bound.message
        assert "avalanche" in bound.message

    def test_advisory_indexes_reported(self, session):
        from repro.data.queries import NESTED_QUERIES

        diags = session.lint(NESTED_QUERIES["Q5"])
        hints = [d for d in diags if d.code == "QS301"]
        assert hints, "Q5's inner joins should want advisory indexes"
        assert all(d.severity == "info" for d in hints)
        assert any("employees(" in d.message for d in hints)

    @pytest.mark.parametrize("scheme", ["natural", "flat"])
    def test_qs301_names_the_index_ensure_index_builds(self, scheme):
        """QS301 prints the covering index — hint columns first, then the
        rest of the table — that the batched engine actually creates, under
        either plan shape, in ``lint`` and in ``explain``'s payload alike.
        (Compiled as a store of a deployment under
        ``organisation_placement()``, which drops ``employees.dept →
        departments.name``: Q1's natural plan joins employees to
        departments.)"""
        printed = _qs301_printed_and_built(
            figure3_database(),
            SqlOptions(scheme=scheme),
            "Q1",
            partial(endpoint_session, placement=organisation_placement()),
        )
        assert "employees(dept, id, name, salary)" in printed

    @pytest.mark.parametrize("scheme", [None, "flat"])
    @pytest.mark.parametrize("name", ["Q6", "staff_above"])
    def test_qs301_names_the_range_index_ensure_index_builds(self, name, scheme):
        """The same for a column compared with a literal (Q6's outliers) or
        a host parameter (``staff_above``'s threshold): searched on
        ``salary``, covering the rest of ``employees``."""
        options = SqlOptions() if scheme is None else SqlOptions(scheme=scheme)
        printed = _qs301_printed_and_built(figure3_database(), options, name)
        assert "employees(salary, id, dept, name)" in printed


def _qs301_printed_and_built(db, options: SqlOptions, name: str, session=connect) -> set[str]:
    """The indexes QS301 prints for registry query ``name`` — the same in
    ``diagnostics()`` and in ``explain``'s payload — checked equal to those
    one run builds on ``db``, as ``PRAGMA index_info`` reads them back.
    ``session`` opens the session over ``db``."""
    with session(db, options=options, cache=False) as s:
        prepared = s.prepare(paper_registry().lookup(name).term)
        printed = {
            d.message.split("advisory index on ", 1)[1].split(" before", 1)[0]
            for d in prepared.diagnostics()
            if d.code == "QS301"
        }
        assert printed == {
            d["message"].split("advisory index on ", 1)[1].split(" before", 1)[0]
            for d in prepared.explain(json=True)["diagnostics"]
            if d["code"] == "QS301"
        }
        prepared.run(params={"min_salary": 1000} if name == "staff_above" else None)
    built = {
        f"{table}({', '.join(column for _s, _c, column in sorted(info))})"
        for index, table in db.execute_sql(
            "SELECT name, tbl_name FROM sqlite_master "
            "WHERE type='index' AND name LIKE 'qsidx_%'"
        )
        for info in [db.execute_sql(f'PRAGMA index_info("{index}")')]
    }
    assert printed == built
    return printed


class TestPaperRegistryLintsClean:
    """The precondition of the CI analyze job: every registered paper query
    compiles without a single warning or error, with the optimizer on and
    the shard placement attributed."""

    @pytest.mark.parametrize("name", paper_registry().names())
    def test_registry_query_clean(self, name):
        registry = paper_registry()
        with connect(
            schema=SCHEMA, options=SqlOptions(optimize=True), cache=False
        ) as session:
            diags = session.lint(
                registry.lookup(name).term,
                placement=organisation_placement(),
            )
        assert not has_failures(diags), [str(d) for d in diags]
        assert [d for d in diags if d.code == "QS201"]
        assert [d for d in diags if d.code == "QS401"]


class TestPreparedSurface:
    def test_prepared_diagnostics_and_session_lint_agree(self, session):
        prepared = session.prepare(_dead_param_query())
        assert [str(d) for d in prepared.diagnostics()] == [
            str(d) for d in session.lint(_dead_param_query())
        ]


class TestLintCli:
    def test_full_registry_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "Q6: ok" in out
        assert "FAIL" not in out

    def test_verbose_prints_info_diagnostics(self, capsys):
        assert main(["lint", "Q1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "QS201 info" in out
        assert "QS401 info" in out

    def test_quiet_by_default(self, capsys):
        assert main(["lint", "Q1"]) == 0
        out = capsys.readouterr().out
        assert "QS" not in out  # info-level findings hidden without -v

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "no_such_query"])

    def test_warning_query_fails_lint(self, capsys, monkeypatch):
        """Register a dead-parameter query and the CLI exits 1, printing
        the QS101 finding — the acceptance bar for the lint surface."""
        registry = QueryRegistry()
        registry.register("dead_param", _dead_param_query())
        import repro.service.registry as registry_module

        monkeypatch.setattr(
            registry_module, "paper_registry", lambda: registry
        )
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "dead_param: FAIL" in out
        assert "QS101 warning [param :flag]" in out

    def test_a_fold_that_does_not_build_fails_lint(self, capsys, monkeypatch):
        """Generated code is invisible to ruff/mypy: the CLI builds every
        statement's fold under both plan shapes and reports what breaks."""
        from repro.sql.codegen import CompiledSql

        source = CompiledSql.fold_source.fget
        monkeypatch.setattr(
            CompiledSql,
            "fold_source",
            property(lambda self: source(self).replace("def fold(", "def fold((")),
        )
        assert main(["lint", "Q3"]) == 1
        out = capsys.readouterr().out
        assert "Q3: FAIL" in out
        for where in ("ε (default plan)", "↓.tasks (flat plan)"):
            assert f"fold at {where} does not build: SyntaxError" in out

    def test_a_column_table_form_that_does_not_prepare_fails_lint(
        self, capsys, monkeypatch
    ):
        """The wrapper a shard runs for a coordinator is generated too:
        the CLI has SQLite prepare it (``WITH``, ``UNION ALL`` and host
        parameters included) against an empty store."""
        from repro.sql.codegen import CompiledSql

        wrapper = CompiledSql.column_table_sql.func
        monkeypatch.setattr(
            CompiledSql,
            "column_table_sql",
            property(lambda self: wrapper(self).replace(" FROM (", " FROM ((", 1)),
        )
        assert main(["lint", "dept_staff"]) == 1
        out = capsys.readouterr().out
        assert "dept_staff: FAIL" in out
        for where in ("ε (default plan)", "↓.staff (flat plan)"):
            assert f"column-table form at {where} does not prepare: " in out
