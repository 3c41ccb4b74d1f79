"""Translation: normalise / shred / SQL-generate, data-independent.

App. C remarks that "query normalisation time is almost always dominated by
SQL execution time".  Each compile stage is timed by ``bench/run.py``'s
``compile_cold`` workload (``normalise.ms_per_compile``,
``shred.ms_per_compile``, ``sql.codegen_ms_per_compile``, …); this module
checks that each stage's output still means the query (run on
``bench_db`` against the semantics' answer) and that the translation
depends on the query alone.
"""

from __future__ import annotations

import pytest

from repro.data.organisation import ORGANISATION_SCHEMA
from repro.data.queries import NESTED_QUERIES
from repro.normalise import nf_to_term, normalise
from repro.normalise.hoist import hoist_ifs
from repro.normalise.rewrite import symbolic_eval
from repro.nrc.semantics import evaluate
from repro.nrc.typecheck import infer
from repro.nrc.types import nesting_degree
from repro.pipeline.shredder import ShreddingPipeline
from repro.shred.packages import shred_query_package
from repro.shred.semantics import run_package
from repro.shred.stitch import stitch
from repro.values import bag_equal

QUERIES = ["Q2", "Q6"]  # heaviest normalisation (higher-order) + 3 levels


@pytest.mark.parametrize("query_name", QUERIES)
def test_stage1_symbolic_evaluation(bench_db, bench_answer, query_name):
    term = hoist_ifs(symbolic_eval(NESTED_QUERIES[query_name]))
    assert bag_equal(evaluate(term, bench_db), bench_answer(query_name))


@pytest.mark.parametrize("query_name", QUERIES)
def test_full_normalisation(bench_db, bench_answer, query_name):
    nf = normalise(NESTED_QUERIES[query_name], ORGANISATION_SCHEMA)
    assert bag_equal(evaluate(nf_to_term(nf), bench_db), bench_answer(query_name))


@pytest.mark.parametrize("query_name", QUERIES)
def test_shredding_translation(bench_db, bench_answer, query_name):
    """Theorem 4: stitching the shredded package's results (in-memory
    semantics, canonical indexes) rebuilds the query's value."""
    query = NESTED_QUERIES[query_name]
    nf = normalise(query, ORGANISATION_SCHEMA)
    package = shred_query_package(nf, infer(query, ORGANISATION_SCHEMA))
    stitched = stitch(run_package(package, bench_db))
    assert bag_equal(stitched, bench_answer(query_name))


@pytest.mark.parametrize("query_name", QUERIES)
def test_full_compile_to_sql(bench_db, bench_answer, query_name):
    compiled = ShreddingPipeline(ORGANISATION_SCHEMA).compile(NESTED_QUERIES[query_name])
    assert compiled.query_count == nesting_degree(compiled.result_type)
    assert bag_equal(compiled.run(bench_db), bench_answer(query_name))


def test_compilation_is_data_independent(bench_db, small_bench_db):
    """Compiled queries are reusable across database sizes: the SQL text is
    a function of the query alone (the N+1 evaluator cannot say the same)."""
    pipeline = ShreddingPipeline(ORGANISATION_SCHEMA)
    compiled = pipeline.compile(NESTED_QUERIES["Q6"])
    sql_before = [sql for _, sql in compiled.sql_by_path]
    compiled.run(small_bench_db)
    compiled.run(bench_db)
    assert [sql for _, sql in compiled.sql_by_path] == sql_before
