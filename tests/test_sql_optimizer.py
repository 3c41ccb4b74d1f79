"""The logical SQL optimizer: per-rule units + end-to-end soundness.

The unit tests drive each rewrite rule on hand-built ASTs; the soundness
half asserts the only property that matters — optimised and unoptimised
pipelines return identical nested values — on the paper queries and on
hypothesis-generated λNRC queries, for every execution engine.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.pipeline.flat import compile_flat_query
from repro.pipeline.plan_cache import PlanCache, plan_key
from repro.pipeline.shredder import ShreddingPipeline
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
from repro.sql.optimizer import (
    extract_shared_scans,
    fold_expr,
    optimize_statement,
)
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
    optimized = optimize_statement(_statement([live, dead]), OPT)
    assert optimized.selects == (live,)
    # A statement that is nothing but dead branches keeps exactly one.
    only_dead = optimize_statement(_statement([dead, dead]), OPT)
    assert len(only_dead.selects) == 1


def test_where_true_is_dropped():
    core = SelectCore(
        (SelectItem(Col("t", "a"), "a"),),
        (TableRef("t", "t"),),
        NotOp(Lit(False)),
    )
    optimized = optimize_statement(_statement([core]), OPT)
    assert optimized.selects[0].where is None


# --------------------------------------------------------------------------
# Trivial-subquery flattening.


def test_trivial_subquery_collapses_to_table_ref():
    inner = SelectCore(
        (SelectItem(Col("e", "name"), "name"), SelectItem(Col("e", "dept"), "dept")),
        (TableRef("employees", "e"),),
    )
    outer = SelectCore(
        (SelectItem(Col("s", "name"), "a"),),
        (SubqueryRef(inner, "s"),),
    )
    optimized = optimize_statement(_statement([outer]), OPT)
    assert optimized.selects[0].from_items == (TableRef("employees", "s"),)


@pytest.mark.parametrize(
    "inner",
    [
        # A WHERE clause: not trivial.
        SelectCore(
            (SelectItem(Col("e", "name"), "name"),),
            (TableRef("employees", "e"),),
            BinOp("=", Col("e", "dept"), Lit("Sales")),
        ),
        # A renaming projection: not trivial.
        SelectCore(
            (SelectItem(Col("e", "name"), "n"),),
            (TableRef("employees", "e"),),
        ),
        # A computed item: not trivial.
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
    optimized = optimize_statement(_statement([outer]), OPT)
    assert isinstance(optimized.selects[0].from_items[0], SubqueryRef)


# --------------------------------------------------------------------------
# CTE deduplication, pruning, pushdown.


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
        _statement([consumer, consumer2], [("q1", _dept_cte()), ("q2", _dept_cte())]),
        OPT,
    )
    assert [name for name, _ in optimized.ctes] == ["q1"]
    assert optimized.selects[1].from_items == (CteRef("q1", "z2"),)


def test_unused_cte_columns_are_pruned_and_unreferenced_ctes_dropped():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_name"), "a"),),
        (CteRef("q1", "z1"),),
    )
    optimized = optimize_statement(
        _statement([consumer], [("q1", _dept_cte()), ("q2", _dept_cte())]), OPT
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
    optimized = optimize_statement(Statement((), (core,), ("a", "b")), OPT)
    assert optimized.selects[0].items == core.items


def test_pushdown_into_single_consumer_cte():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_id"), "a"),),
        (CteRef("q1", "z1"),),
        BinOp("=", Col("z1", "c1_name"), Lit("Sales")),
    )
    optimized = optimize_statement(
        _statement([consumer], [("q1", _dept_cte())]), OPT
    )
    assert optimized.selects[0].where is None
    (cte,) = [core for _name, core in optimized.ctes]
    assert cte.where == BinOp("=", Col("x", "name"), Lit("Sales"))


def test_no_pushdown_into_row_numbering_cte():
    # Filtering before ROW_NUMBER would renumber rows: must not happen.
    cte = _dept_cte(SelectItem(RowNumber((Col("x", "id"),)), "idx"))
    consumer = SelectCore(
        (SelectItem(Col("z1", "idx"), "a"),),
        (CteRef("q1", "z1"),),
        BinOp("=", Col("z1", "c1_name"), Lit("Sales")),
    )
    optimized = optimize_statement(_statement([consumer], [("q1", cte)]), OPT)
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
    optimized = optimize_statement(
        _statement(consumers, [("q1", _dept_cte())]), OPT
    )
    (cte,) = [core for _name, core in optimized.ctes]
    assert cte.where is None  # two consumers: predicate stays outside


def test_multi_alias_conjuncts_stay_put():
    consumer = SelectCore(
        (SelectItem(Col("z1", "c1_id"), "a"),),
        (CteRef("q1", "z1"), TableRef("employees", "e")),
        BinOp("=", Col("z1", "c1_name"), Col("e", "dept")),
    )
    optimized = optimize_statement(
        _statement([consumer], [("q1", _dept_cte())]), OPT
    )
    assert optimized.selects[0].where is not None


# --------------------------------------------------------------------------
# Cross-statement shared scans.


def test_shared_scans_hoist_cross_statement_ctes():
    consumer = lambda alias: SelectCore(  # noqa: E731
        (SelectItem(Col(alias, "c1_name"), "a"),), (CteRef("q1", alias),)
    )
    s1 = _statement([consumer("z1")], [("q1", _dept_cte())])
    s2 = _statement([consumer("z2")], [("q1", _dept_cte())])
    rewritten, scans = extract_shared_scans([s1, s2])
    assert len(scans) == 1
    assert scans[0].create_sql.startswith("CREATE TABLE")
    for statement in rewritten:
        assert statement.ctes == ()
        (from_item,) = statement.selects[0].from_items
        assert isinstance(from_item, TableRef)
        assert from_item.table == scans[0].name


def test_no_shared_scan_for_single_statement_bodies():
    s1 = _statement(
        [
            SelectCore(
                (SelectItem(Col("z1", "c1_name"), "a"),), (CteRef("q1", "z1"),)
            )
        ],
        [("q1", _dept_cte())],
    )
    s2 = _statement([SelectCore((SelectItem(Lit(1), "a"),), ())])
    rewritten, scans = extract_shared_scans([s1, s2])
    assert scans == ()
    assert rewritten[0] == s1


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


def test_per_rule_flags_isolate_rules(db):
    # Every rule disabled individually still yields identical values.
    query = NESTED_QUERIES["Q6"]
    expected = ShreddingPipeline(db.schema).run(query, db)
    for flag in (
        "opt_fold",
        "opt_flatten",
        "opt_dedup",
        "opt_pushdown",
        "opt_prune",
        "opt_shared",
    ):
        options = SqlOptions(scheme="flat", optimize=True, **{flag: False})
        actual = ShreddingPipeline(db.schema, options).run(
            query, db, engine="batched"
        )
        assert bag_equal(expected, actual), flag


def test_optimize_flag_is_part_of_the_plan_cache_key(schema):
    query = NESTED_QUERIES["Q4"]
    base = plan_key(query, schema, SqlOptions())
    optimized = plan_key(query, schema, SqlOptions(optimize=True))
    pruneless = plan_key(
        query, schema, SqlOptions(optimize=True, opt_prune=False)
    )
    assert len({base, optimized, pruneless}) == 3


def test_cached_optimized_plans_reuse_shared_scans(db):
    cache = PlanCache()
    pipeline = ShreddingPipeline(db.schema, OPT, cache=cache)
    from repro.nrc import builders as b

    query = b.for_(
        "d",
        b.table("departments"),
        lambda d: b.ret(
            b.record(
                dept=d["name"],
                emps=b.for_(
                    "e",
                    b.table("employees"),
                    lambda e: b.where(
                        b.eq(e["dept"], d["name"]), b.ret(e["name"])
                    ),
                ),
                cts=b.for_(
                    "c",
                    b.table("contacts"),
                    lambda c: b.where(
                        b.eq(c["dept"], d["name"]), b.ret(c["name"])
                    ),
                ),
            )
        ),
    )
    first = pipeline.compile(query)
    assert first.shared_scans, "sibling bags over one outer query must share"
    again = pipeline.compile(query)
    assert again is first
    expected = ShreddingPipeline(db.schema).run(query, db)
    for engine in ENGINES:
        assert bag_equal(expected, first.run(db, engine=engine))
