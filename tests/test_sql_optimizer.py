"""The logical SQL optimizer: per-rule units + end-to-end soundness.

The unit tests drive each rewrite rule on hand-built ASTs; the soundness
half asserts the only property that matters — optimised and unoptimised
pipelines return identical nested values — on the paper queries and on
hypothesis-generated λNRC queries, for every execution engine, and that
a warm optimised plan only ever reads.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.pipeline.flat import compile_flat_query
from repro.nrc.ast import substitute_params
from repro.nrc.semantics import evaluate
from repro.pipeline.plan_cache import plan_key
from repro.pipeline.shredder import ShreddingPipeline
from repro.service.registry import paper_registry
from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    Lit,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    SelectItem,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.sql.codegen import SqlOptions
from repro.sql.optimizer import STATEMENT_RULES, fold_expr, optimize_statement
from repro.sql.render import render_statement
from repro.values import bag_equal

from .strategies import queries_with_nesting

#: The rewrites target the let-inserted flat form (CTEs, subqueries); on a
#: keyed schema that form is forced.  ``OPT_KEYED`` is the optimizer over
#: the default key-indexed plans, where only folding has anything to do.
OPT = SqlOptions(scheme="flat", optimize=True)
OPT_KEYED = SqlOptions(optimize=True)
ENGINES = ["per-path", "batched", "parallel"]


def _statement(selects, ctes=()):
    return Statement(tuple(ctes), tuple(selects), ("a",))


# --------------------------------------------------------------------------
# Constant folding.


def test_fold_double_negation():
    x = Col("t", "a")
    assert fold_expr(NotOp(NotOp(x))) == x
    assert fold_expr(NotOp(NotOp(NotOp(x)))) == NotOp(x)


def test_fold_boolean_identities():
    x = Col("t", "a")
    assert fold_expr(BinOp("AND", Lit(True), x)) == x
    assert fold_expr(BinOp("AND", x, Lit(False))) == Lit(False)
    assert fold_expr(BinOp("OR", Lit(False), x)) == x
    assert fold_expr(BinOp("OR", x, Lit(True))) == Lit(True)


def test_fold_literal_arithmetic_and_comparisons():
    assert fold_expr(BinOp("+", Lit(2), Lit(3))) == Lit(5)
    assert fold_expr(BinOp("*", Lit(4), Lit(-2))) == Lit(-8)
    assert fold_expr(BinOp("<", Lit(1), Lit(2))) == Lit(True)
    assert fold_expr(BinOp("=", Lit("a"), Lit("b"))) == Lit(False)
    assert fold_expr(BinOp("||", Lit("a"), Lit("b"))) == Lit("ab")


def test_fold_never_touches_nulls_or_mixed_types():
    # NULL propagation and SQLite's cross-type ordering stay SQLite's job.
    e1 = BinOp("=", Lit(None), Lit(1))
    assert fold_expr(e1) == e1
    e2 = BinOp("<", Lit(1), Lit("a"))
    assert fold_expr(e2) == e2
    # Division differs between Python (floor) and SQLite (truncate).
    e3 = BinOp("/", Lit(-7), Lit(2))
    assert fold_expr(e3) == e3


def test_fold_not_exists_probes():
    dead = NotExists(SelectCore((), (TableRef("t", "x"),), Lit(False)))
    assert fold_expr(dead) == Lit(True)
    trivial = NotExists(SelectCore((), (), None))
    assert fold_expr(trivial) == Lit(False)


def test_dead_branch_elimination_keeps_one_branch():
    live = SelectCore((SelectItem(Col("t", "a"), "a"),), (TableRef("t", "t"),))
    dead = SelectCore(
        (SelectItem(Lit(None), "a"),), (), BinOp("AND", Lit(False), Lit(True))
    )
    optimized = optimize_statement(_statement([live, dead]))
    assert optimized.selects == (live,)
    # A statement that is nothing but dead branches keeps exactly one.
    only_dead = optimize_statement(_statement([dead, dead]))
    assert len(only_dead.selects) == 1


def test_where_true_is_dropped():
    core = SelectCore(
        (SelectItem(Col("t", "a"), "a"),),
        (TableRef("t", "t"),),
        NotOp(Lit(False)),
    )
    optimized = optimize_statement(_statement([core]))
    assert optimized.selects[0].where is None


# --------------------------------------------------------------------------
# What no rule may do: collapse a subquery that filters, renames or numbers.


@pytest.mark.parametrize(
    "inner",
    [
        SelectCore(
            (SelectItem(Col("e", "name"), "name"),),
            (TableRef("employees", "e"),),
            BinOp("=", Col("e", "dept"), Lit("Sales")),
        ),
        SelectCore(
            (SelectItem(Col("e", "name"), "n"),),
            (TableRef("employees", "e"),),
        ),
        SelectCore(
            (SelectItem(RowNumber((Col("e", "id"),)), "idx"),),
            (TableRef("employees", "e"),),
        ),
    ],
)
def test_non_trivial_subqueries_survive(inner):
    outer = SelectCore(
        (SelectItem(Lit(1), "a"),), (SubqueryRef(inner, "s"),)
    )
    optimized = optimize_statement(_statement([outer]))
    assert isinstance(optimized.selects[0].from_items[0], SubqueryRef)


# --------------------------------------------------------------------------
# CTE deduplication and pruning; predicates stay where codegen put them.


def _dept_cte(extra_item=None):
    items = [
        SelectItem(Col("x", "id"), "c1_id"),
        SelectItem(Col("x", "name"), "c1_name"),
    ]
    if extra_item is not None:
        items.append(extra_item)
    return SelectCore(tuple(items), (TableRef("departments", "x"),))


def test_identical_ctes_merge_within_a_statement():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_name"), "a"),),
        (CteRef("q1", "z1"),),
    )
    consumer2 = SelectCore(
        (SelectItem(Col("z2", "c1_name"), "a"),),
        (CteRef("q2", "z2"),),
    )
    optimized = optimize_statement(
        _statement([consumer, consumer2], [("q1", _dept_cte()), ("q2", _dept_cte())])
    )
    assert [name for name, _ in optimized.ctes] == ["q1"]
    assert optimized.selects[1].from_items == (CteRef("q1", "z2"),)


def test_unused_cte_columns_are_pruned_and_unreferenced_ctes_dropped():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_name"), "a"),),
        (CteRef("q1", "z1"),),
    )
    optimized = optimize_statement(
        _statement([consumer], [("q1", _dept_cte()), ("q2", _dept_cte())])
    )
    assert [name for name, _ in optimized.ctes] == ["q1"]
    (cte,) = [core for _name, core in optimized.ctes]
    assert [item.alias for item in cte.items] == ["c1_name"]


def test_main_select_items_are_never_pruned():
    # The decode contract: even a constant-only select keeps its items.
    core = SelectCore(
        (SelectItem(Lit(1), "a"), SelectItem(Lit(2), "b")),
        (TableRef("departments", "x"),),
    )
    optimized = optimize_statement(Statement((), (core,), ("a", "b")))
    assert optimized.selects[0].items == core.items


def test_no_pushdown_into_row_numbering_cte():
    # Filtering before ROW_NUMBER would renumber rows: must not happen.
    cte = _dept_cte(SelectItem(RowNumber((Col("x", "id"),)), "idx"))
    consumer = SelectCore(
        (SelectItem(Col("z1", "idx"), "a"),),
        (CteRef("q1", "z1"),),
        BinOp("=", Col("z1", "c1_name"), Lit("Sales")),
    )
    optimized = optimize_statement(_statement([consumer], [("q1", cte)]))
    assert optimized.selects[0].where is not None
    (kept,) = [core for _name, core in optimized.ctes]
    assert kept.where is None


def test_no_pushdown_into_shared_cte():
    consumers = [
        SelectCore(
            (SelectItem(Col(alias, "c1_id"), "a"),),
            (CteRef("q1", alias),),
            BinOp("=", Col(alias, "c1_name"), Lit("Sales")),
        )
        for alias in ("z1", "z2")
    ]
    optimized = optimize_statement(_statement(consumers, [("q1", _dept_cte())]))
    (cte,) = [core for _name, core in optimized.ctes]
    assert cte.where is None  # two consumers: predicate stays outside


def test_multi_alias_conjuncts_stay_put():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_id"), "a"),),
        (CteRef("q1", "z1"), TableRef("employees", "e")),
        BinOp("=", Col("z1", "c1_name"), Col("e", "dept")),
    )
    optimized = optimize_statement(_statement([consumer], [("q1", _dept_cte())]))
    assert optimized.selects[0].where is not None


# --------------------------------------------------------------------------
# End-to-end soundness: optimised ≡ unoptimised.


@pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
@pytest.mark.parametrize("engine", ENGINES)
def test_paper_queries_identical_under_optimizer(db, name, engine):
    query = NESTED_QUERIES[name]
    expected = ShreddingPipeline(db.schema).run(query, db)
    for options in (OPT, OPT_KEYED):
        actual = ShreddingPipeline(db.schema, options).run(
            query, db, engine=engine
        )
        assert bag_equal(expected, actual), options.scheme


@pytest.mark.parametrize("name", sorted(FLAT_QUERIES))
def test_flat_queries_identical_under_optimizer(db, name):
    query = FLAT_QUERIES[name]
    plain = compile_flat_query(query, db.schema)
    optimized = compile_flat_query(query, db.schema, optimize=True)
    assert sorted(
        map(repr, plain.decode_rows(db.execute_sql(plain.sql)))
    ) == sorted(map(repr, optimized.decode_rows(db.execute_sql(optimized.sql))))


@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # The database is read-only for the pipelines under test.
        HealthCheck.function_scoped_fixture,
    ],
)
@given(query=queries_with_nesting())
def test_generated_queries_identical_under_optimizer(
    small_random_db, engine, query
):
    db = small_random_db
    expected = ShreddingPipeline(db.schema).run(query, db)
    actual = ShreddingPipeline(db.schema, OPT).run(query, db, engine=engine)
    assert bag_equal(expected, actual)


def test_each_rule_alone_preserves_every_statements_rows(db):
    """Rules are isolated by calling them, not by switching them off: each
    one, applied alone to every flat-form paper statement, returns the
    same row multiset."""
    for name, query in sorted(NESTED_QUERIES.items()):
        plain = ShreddingPipeline(
            db.schema, SqlOptions(scheme="flat")
        ).compile(query)
        for path in plain.query_paths:
            member = plain.sql_at(path)
            expected = sorted(map(repr, db.execute_sql(member.sql)))
            for rule_name, rule in STATEMENT_RULES.items():
                rewritten = render_statement(rule(member.statement))
                actual = sorted(map(repr, db.execute_sql(rewritten)))
                assert actual == expected, (name, str(path), rule_name)


def test_optimize_flag_is_part_of_the_plan_cache_key(schema):
    query = NESTED_QUERIES["Q4"]
    base = plan_key(query, schema, SqlOptions())
    optimized = plan_key(query, schema, SqlOptions(optimize=True))
    assert base != optimized


REGISTRY = paper_registry()
REGISTRY_PARAMS = {
    "dept_staff": {"dept": "Sales"},
    "staff_above": {"min_salary": 1000},
}


@pytest.mark.parametrize("ordered", [False, True], ids=["bag", "ordered"])
def test_warm_optimized_runs_are_read_only(db, ordered):
    """After one warm-up run (index advisement + ANALYZE) an optimised
    plan issues nothing but SELECTs: with the writer connection switched
    to ``query_only`` every registry query still runs, on every engine,
    and equals the λNRC semantics."""
    pipeline = ShreddingPipeline(
        db.schema, SqlOptions(optimize=True, ordered=ordered)
    )
    plans = {}
    for name in REGISTRY.names():
        plans[name] = pipeline.compile(REGISTRY.lookup(name).term)
        plans[name].run(db, engine="batched", params=REGISTRY_PARAMS.get(name))
    db.connection().execute("PRAGMA query_only=ON")
    for name, plan in plans.items():
        params = REGISTRY_PARAMS.get(name)
        term = REGISTRY.lookup(name).term
        expected = evaluate(
            substitute_params(term, params) if params else term, db
        )
        for engine in ENGINES:
            actual = plan.run(db, engine=engine, params=params)
            assert bag_equal(actual, expected), (name, engine)
