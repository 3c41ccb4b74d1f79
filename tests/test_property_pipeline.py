"""Property-based tests: random well-typed queries through every pipeline.

These are the heavyweight invariants:

* normalisation preserves N⟦−⟧ (Theorem 1);
* shred → run → stitch = N⟦−⟧ under every indexing scheme (Theorem 4);
* the SQL pipeline agrees with N⟦−⟧ in every cell of one matrix — default
  / forced flat / forced natural options × an all-keyed instance (with its
  declared references, and without them) and one with a keyless table
  holding duplicate rows × both decode paths;
* the loop-lifting baseline agrees with N⟦−⟧;
* let-insertion agrees with the flat shredded semantics (Theorem 6).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.backend.database import Database
from repro.data.organisation import ORGANISATION_SCHEMA
from repro.data.queries import NESTED_QUERIES
from repro.errors import SqlGenerationError
from repro.normalise import nf_to_term, normalise
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.semantics import evaluate
from repro.nrc.typecheck import infer
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

from .strategies import (
    asymmetric_union_query,
    queries_with_bindings,
    queries_with_nesting,
    without_key,
)

SCHEMA = ORGANISATION_SCHEMA

# Two instances, both a cut of Fig. 3 small enough that the oracle (whose
# cost is the product of the table sizes) stays cheap on every generated
# query — on full Fig. 3 the odd example ran for minutes — and carrying the
# multiplicity traps: a department without employees (empty inner bags) and
# two departments that are identical records under distinct keys (duplicate
# outer records, distinct indexes).

_ROWS = {
    "departments": [
        {"id": 1, "name": "Product"},
        {"id": 2, "name": "Quality"},
        {"id": 4, "name": "Sales"},
        {"id": 5, "name": "Sales"},
    ],
    "employees": [
        {"id": 1, "dept": "Product", "name": "Alex", "salary": 20_000},
        {"id": 2, "dept": "Product", "name": "Bert", "salary": 900},
        {"id": 5, "dept": "Sales", "name": "Erik", "salary": 2_000_000},
        {"id": 6, "dept": "Sales", "name": "Fred", "salary": 700},
    ],
    "tasks": [
        {"id": 1, "employee": "Alex", "task": "build"},
        {"id": 2, "employee": "Bert", "task": "build"},
        {"id": 10, "employee": "Erik", "task": "call"},
        {"id": 11, "employee": "Erik", "task": "enthuse"},
        {"id": 12, "employee": "Fred", "task": "call"},
    ],
    "contacts": [
        {"id": 1, "dept": "Product", "name": "Pam", "client": False},
        {"id": 2, "dept": "Product", "name": "Pat", "client": True},
        {"id": 7, "dept": "Sales", "name": "Sue", "client": True},
    ],
}

INSTANCES = {
    # The organisation schema declares references: Q1's, Q4's and Q6's
    # department-linked bags are pinned to their join column.
    "keyed": Database(SCHEMA, _ROWS),
    # The same rows where nothing is pinned (what a shard compiles).
    "unreferenced": Database(SCHEMA.without_references(), _ROWS),
    # ``tasks`` declares no key and holds fully duplicate rows.
    "keyless": Database(
        without_key(SCHEMA, "tasks"),
        {**_ROWS, "tasks": _ROWS["tasks"] + _ROWS["tasks"][2:4]},
    ),
}
#: What the in-memory properties (Theorems 1, 4, 6, 19) evaluate against.
DB = INSTANCES["keyed"]

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(queries_with_nesting())
@_settings
def test_generated_queries_typecheck(query):
    result_type = infer(query, SCHEMA)
    from repro.nrc.types import BagType, is_nested

    assert isinstance(result_type, BagType)
    assert is_nested(result_type)


@given(queries_with_nesting())
@_settings
def test_normalisation_preserves_semantics(query):
    nf = normalise(query, SCHEMA)
    assert bag_equal(evaluate(query, DB), evaluate(nf_to_term(nf), DB))


@given(queries_with_nesting())
@_settings
def test_shredding_theorem4_in_memory(query):
    from repro.shred.indexes import index_fn_for
    from repro.shred.packages import shred_query_package
    from repro.shred.semantics import run_package
    from repro.shred.stitch import stitch

    nf = normalise(query, SCHEMA)
    result_type = infer(query, SCHEMA)
    package = shred_query_package(nf, result_type)
    expected = evaluate(query, DB)
    for scheme in ("canonical", "flat"):
        index = index_fn_for(scheme, nf, DB, SCHEMA)
        stitched = stitch(run_package(package, DB, index), index)
        assert bag_equal(stitched, expected), scheme


# --------------------------------------------------------------------------
# The SQL pipeline against N⟦−⟧: one matrix over the scheme resolution.
#
#   options   default (resolved from the schema) · forced flat · forced natural
#   instance  every table keyed, references declared · the same without
#             references · one keyless table holding duplicate rows
#   engine    per-path (App. E decode + stitch, the reference) · batched
#             (one compiled fold per row, children first)

OPTIONS = {
    "default": SqlOptions(),
    "flat": SqlOptions(scheme="flat"),
    "natural": SqlOptions(scheme="natural"),
}
RESOLVES_TO = {
    ("keyed", "default"): "natural: keys",
    ("unreferenced", "default"): "natural: keys",
    ("keyless", "default"): "flat: table 'tasks' declares no key",
}



def _assert_sql_matches_semantics(query, params=None):
    """``query`` agrees with the oracle in every cell of the matrix."""
    from repro.nrc.ast import substitute_params

    closed = substitute_params(query, params) if params else query
    for instance, db in INSTANCES.items():
        expected = evaluate(closed, db)
        for label, options in OPTIONS.items():
            pipeline = ShreddingPipeline(db.schema, options)
            if (instance, label) == ("keyless", "natural"):
                with pytest.raises(SqlGenerationError, match="'tasks'"):
                    pipeline.compile(query)
                continue
            compiled = pipeline.compile(query)
            resolved = RESOLVES_TO.get((instance, label))
            assert resolved is None or compiled.index_scheme == resolved
            for engine in ("per-path", "batched"):
                out = compiled.run(db, engine=engine, params=params)
                assert bag_equal(out, expected), (instance, label, engine)


@given(queries_with_nesting())
@_settings
def test_sql_pipeline_matches_semantics(query):
    _assert_sql_matches_semantics(query)


@given(queries_with_bindings())
@_settings
def test_sql_pipeline_binds_host_params(query_and_bindings):
    """The PR 4 prepared-statement path under randomisation: running a
    parameterised query with ``params=bindings`` must equal evaluating the
    term with the placeholders substituted by literal constants."""
    query, bindings = query_and_bindings
    _assert_sql_matches_semantics(query, bindings)


MULTIPLICITY_CASES = [
    pytest.param(asymmetric_union_query(), id="mixed-arity-union"),
    pytest.param(NESTED_QUERIES["Q4"], id="empty-inner-bags"),
    pytest.param(NESTED_QUERIES["Q1"], id="duplicate-outer-records"),
    pytest.param(NESTED_QUERIES["Q6"], id="literal-inner-bag"),
]


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_sql_pipeline_multiplicity_cases(query):
    _assert_sql_matches_semantics(query)


def test_miswired_child_buckets_fail_the_matrix(monkeypatch):
    """Mutation proof: the fold takes its children's results by position
    (one per index leaf, in field order).  Hand Q1's two children — contacts
    and employees — over the other way round and the matrix must notice."""
    from repro.sql.codegen import CompiledSql

    build = CompiledSql.fold

    def miswired(self):
        fold = build(self)
        return lambda chunk, grouped, *children: fold(
            chunk, grouped, *reversed(children)
        )

    monkeypatch.setattr(CompiledSql, "fold", miswired)
    with pytest.raises(AssertionError, match="batched"):
        _assert_sql_matches_semantics(NESTED_QUERIES["Q1"])


# The fold hands a child's bucket list to its parent record itself, with no
# copy.  That is only sound if no bucket has two parents, so: no mutable
# object may occur twice in a batched result, nor in two runs of one plan.


def _mutable_ids(value, seen: set) -> set:
    """``seen`` plus the id of every list and dict in ``value``; fails on
    the first one met twice."""
    if isinstance(value, (list, dict)):
        assert id(value) not in seen, f"shared {type(value).__name__}: {value!r}"
        seen.add(id(value))
        for part in value.values() if isinstance(value, dict) else value:
            _mutable_ids(part, seen)
    return seen


def _assert_batched_results_alias_nothing(query, params=None):
    for instance, db in INSTANCES.items():
        for label, options in OPTIONS.items():
            if (instance, label) == ("keyless", "natural"):
                continue
            compiled = ShreddingPipeline(db.schema, options).compile(query)
            first = compiled.run(db, engine="batched", params=params)
            again = compiled.run(db, engine="batched", params=params)
            _mutable_ids(again, _mutable_ids(first, set()))  # both kept alive


@given(queries_with_bindings())
@_settings
def test_batched_results_alias_nothing(query_and_bindings):
    _assert_batched_results_alias_nothing(*query_and_bindings)


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_batched_results_alias_nothing_multiplicity_cases(query):
    _assert_batched_results_alias_nothing(query)


def _assert_collections_match_per_path(query):
    """§9 set and list semantics: the batched engine against the per-path
    reference (list results compare in order)."""
    for db in INSTANCES.values():
        bags = ShreddingPipeline(db.schema).compile(query)
        assert bag_equal(
            bags.run(db, engine="batched", collection="set"),
            bags.run(db, engine="per-path", collection="set"),
        )
        lists = ShreddingPipeline(db.schema, SqlOptions(ordered=True)).compile(query)
        for collection in ("list", "set"):
            assert lists.run(db, engine="batched", collection=collection) == lists.run(
                db, engine="per-path", collection=collection
            ), collection


@given(queries_with_nesting())
@_settings
def test_set_and_list_collections_match_per_path(query):
    _assert_collections_match_per_path(query)


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_set_and_list_collections_match_per_path_multiplicity_cases(query):
    _assert_collections_match_per_path(query)


def test_keyless_duplicate_rows_keep_their_multiplicity():
    """Regression: with no declared key the natural scheme used to fall
    back to all columns as the key, so fully duplicate rows shared one
    index and every copy of an outer record collected every copy's inner
    bag (``staff = ["x", "x"]`` twice instead of ``["x"]`` twice)."""
    from repro.nrc import builders as b
    from repro.nrc.types import STRING

    schema = Schema(
        (
            TableSchema("d", (("name", STRING),)),
            TableSchema("e", (("dept", STRING), ("name", STRING))),
        )
    )
    db = Database(
        schema,
        {"d": [{"name": "A"}, {"name": "A"}], "e": [{"dept": "A", "name": "x"}]},
    )
    query = b.for_(
        "x",
        b.table("d"),
        lambda x: b.ret(
            b.record(
                name=x["name"],
                staff=b.for_(
                    "y",
                    b.table("e"),
                    lambda y: b.where(
                        b.eq(y["dept"], x["name"]), b.ret(y["name"])
                    ),
                ),
            )
        ),
    )
    twice = [{"name": "A", "staff": ["x"]}] * 2
    assert bag_equal(evaluate(query, db), twice)
    compiled = ShreddingPipeline(schema).compile(query)
    assert compiled.index_scheme == "flat: table 'd' declares no key"
    for engine in ("per-path", "batched"):
        assert bag_equal(compiled.run(db, engine=engine), twice)
    with pytest.raises(SqlGenerationError, match="table 'd' declares none"):
        ShreddingPipeline(schema, SqlOptions(scheme="natural")).compile(query)


@given(queries_with_nesting(max_depth=1))
@_settings
def test_loop_lifting_matches_semantics(query):
    from repro.baselines.looplifting import LoopLiftingPipeline

    out = LoopLiftingPipeline(SCHEMA).run(query, DB)
    assert bag_equal(out, evaluate(query, DB))


@given(queries_with_nesting())
@_settings
def test_let_insertion_theorem6(query):
    from repro.letins.semantics import run_let
    from repro.letins.translate import let_insert
    from repro.shred.indexes import flat_index_fn
    from repro.shred.paths import paths
    from repro.shred.semantics import run_shredded
    from repro.shred.translate import shred_query

    nf = normalise(query, SCHEMA)
    result_type = infer(query, SCHEMA)
    index = flat_index_fn(nf, DB, SCHEMA)
    for path in paths(result_type):
        shredded = shred_query(nf, path)
        assert run_let(let_insert(shredded), DB) == run_shredded(
            shredded, DB, index
        ), str(path)


@given(queries_with_nesting())
@_settings
def test_annotated_erasure_theorem19(query):
    from repro.shred.value_shred import annotated_eval, erase_annotated

    nf = normalise(query, SCHEMA)
    annotated = annotated_eval(nf, DB, SCHEMA)
    assert erase_annotated(annotated) == evaluate(nf_to_term(nf), DB)
