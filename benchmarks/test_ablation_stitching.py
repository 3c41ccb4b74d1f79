"""Ablation A3 (§8): one-pass (hash-grouped) vs naive quadratic stitching.

Stitching happens host-side after the SQL queries return; the paper lists
"implementing stitching in one pass" among its optimisations.  Both modes
must build the semantics' value, and the same value, from the same
pre-executed shredded results.
"""

from __future__ import annotations

import pytest

from repro.backend.executor import execute_compiled
from repro.data.queries import NESTED_QUERIES
from repro.pipeline.shredder import ShreddingPipeline
from repro.shred.packages import package_from
from repro.shred.stitch import stitch
from repro.values import bag_equal

QUERIES = ["Q1", "Q6"]


def _prepared(db, query_name):
    query = NESTED_QUERIES[query_name]
    compiled = ShreddingPipeline(db.schema).compile(query)
    results = package_from(
        compiled.result_type,
        lambda path: execute_compiled(db, compiled.sql_at(path)),
    )
    return compiled, results


@pytest.mark.parametrize("query_name", QUERIES)
def test_stitch_one_pass(bench_db, bench_answer, query_name):
    compiled, results = _prepared(bench_db, query_name)
    out = stitch(results, compiled._top_index_fn(), True)
    assert bag_equal(out, bench_answer(query_name)), query_name


@pytest.mark.parametrize("query_name", QUERIES)
def test_stitch_naive(bench_db, bench_answer, query_name):
    compiled, results = _prepared(bench_db, query_name)
    out = stitch(results, compiled._top_index_fn(), False)
    assert bag_equal(out, bench_answer(query_name)), query_name


def test_stitch_modes_identical(bench_db):
    for query_name in QUERIES:
        compiled, results = _prepared(bench_db, query_name)
        fast = stitch(results, compiled._top_index_fn(), one_pass=True)
        slow = stitch(results, compiled._top_index_fn(), one_pass=False)
        assert fast == slow
