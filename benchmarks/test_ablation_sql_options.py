"""Ablation A1/A2 (§8 optimisations): WITH inlining and key-based row
numbering, on the nested queries where they matter most.  These knobs
shape the let-inserted ``ROW_NUMBER`` form, so every variant forces
``scheme="flat"`` (the bench schema declares keys, which would otherwise
resolve to key-indexed plans the knobs do not touch)."""

from __future__ import annotations

import pytest

from repro.data.queries import NESTED_QUERIES
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions

VARIANTS = {
    "baseline": SqlOptions(scheme="flat"),
    "inline-with": SqlOptions(scheme="flat", inline_with=True),
    "key-rownum": SqlOptions(scheme="flat", order_by_keys=True),
    "both": SqlOptions(scheme="flat", inline_with=True, order_by_keys=True),
    "dedup-cte": SqlOptions(scheme="flat", optimize=True),
    "ordered-list": SqlOptions(ordered=True),
}

QUERIES = ["Q1", "Q3", "Q6"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("query_name", QUERIES)
def test_sql_option_ablation(benchmark, bench_db, query_name, variant):
    query = NESTED_QUERIES[query_name]
    pipeline = ShreddingPipeline(bench_db.schema, VARIANTS[variant])
    compiled = pipeline.compile(query)
    benchmark.group = f"ablation-sql:{query_name}"
    result = benchmark(compiled.run, bench_db)
    assert isinstance(result, list)


def test_variants_agree(bench_db):
    """All option combinations compute the same multiset."""
    from repro.values import bag_equal

    for query_name in QUERIES:
        query = NESTED_QUERIES[query_name]
        outputs = [
            ShreddingPipeline(bench_db.schema, options).run(query, bench_db)
            for options in VARIANTS.values()
        ]
        for other in outputs[1:]:
            assert bag_equal(outputs[0], other), query_name
