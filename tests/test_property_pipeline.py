"""Property-based tests: random well-typed queries through the in-memory
stages of the pipeline.

* normalisation preserves N⟦−⟧ (Theorem 1);
* shred → run → stitch = N⟦−⟧ in memory under every indexing scheme
  (Theorem 4);
* the loop-lifting baseline agrees with N⟦−⟧;
* let-insertion agrees with the flat shredded semantics (Theorem 6);
* annotated evaluation erases to N⟦−⟧ (Theorem 19).

The SQL pipeline — every engine, plan shape, route and collection against
N⟦−⟧ — is checked by ``tests/test_oracle_matrix.py``; the multiplicity
cases below are named cells of it.
"""

from __future__ import annotations

from itertools import product

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

from .strategies import asymmetric_union_query, queries_with_nesting, trap_stores
from .test_oracle_matrix import AXES, STORES, cell, matrix  # noqa: F401 - the fixture

SCHEMA = ORGANISATION_SCHEMA
#: What the in-memory properties (Theorems 1, 4, 6, 19) evaluate against.
DB = trap_stores()["traps"]

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


MULTIPLICITY_CASES = [
    pytest.param(asymmetric_union_query(), id="mixed-arity-union"),
    pytest.param(NESTED_QUERIES["Q4"], id="empty-inner-bags"),
    pytest.param(NESTED_QUERIES["Q1"], id="duplicate-outer-records"),
    pytest.param(NESTED_QUERIES["Q6"], id="literal-inner-bag"),
]


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_sql_pipeline_multiplicity_cases(matrix, query):
    """Every plan shape on every engine, over every store of the matrix
    (natural over the keyless store is refused)."""
    for store, shape, engine in product(STORES, AXES["shape"], AXES["engine"]):
        matrix.check(query, None, cell(shape=shape, engine=engine), matrix.stores[store])


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_batched_results_alias_nothing_multiplicity_cases(matrix, query):
    """Two runs of one batched plan share no list or record."""
    for store, shape in product(STORES, AXES["shape"]):
        matrix.check(query, None, cell(engine="batched", shape=shape, cache="warm"), matrix.stores[store])


@pytest.mark.parametrize("query", MULTIPLICITY_CASES)
def test_set_and_list_collections_match_per_path_multiplicity_cases(matrix, query):
    """§9 set and list semantics on the batched engine (lists in the
    per-path reference's order)."""
    for store, collection in product(STORES, ("set", "list")):
        matrix.check(query, None, cell(engine="batched", collection=collection), matrix.stores[store])


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
