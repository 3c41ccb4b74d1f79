"""Ablation A4 (§6): flat (ROW_NUMBER) vs natural (key-column) indexes.

§6.1 predicts natural indexes avoid OLAP operators but move more data
(wider rows, NULL padding); §6.2's flat indexes pay for ROW_NUMBER but
ship single-integer surrogates.  ``python -m repro figures --figure
ablations`` times the flat form (``shredding-flat``) against the
key-indexed default (``shredding``); this module checks that each scheme
computes the semantics' answer, that the schemes agree, and that the
natural one ships the wider rows.
"""

from __future__ import annotations

import pytest

from repro.data.queries import NESTED_QUERIES
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions

SCHEMES = {
    "flat": SqlOptions(scheme="flat"),
    "natural": SqlOptions(scheme="natural"),
}

QUERIES = ["Q1", "Q3", "Q6"]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("query_name", QUERIES)
def test_indexing_scheme(bench_db, bench_answer, query_name, scheme):
    from repro.values import bag_equal

    pipeline = ShreddingPipeline(bench_db.schema, SCHEMES[scheme])
    result = pipeline.compile(NESTED_QUERIES[query_name]).run(bench_db)
    assert bag_equal(result, bench_answer(query_name)), (query_name, scheme)


def test_schemes_agree(bench_db):
    from repro.values import bag_equal

    for query_name in QUERIES:
        query = NESTED_QUERIES[query_name]
        flat = ShreddingPipeline(bench_db.schema, SCHEMES["flat"]).run(
            query, bench_db
        )
        natural = ShreddingPipeline(bench_db.schema, SCHEMES["natural"]).run(
            query, bench_db
        )
        assert bag_equal(flat, natural), query_name


def test_natural_ships_wider_rows(bench_db):
    """§6.1's predicted cost, made measurable: the natural scheme returns
    more columns for the same query."""
    query = NESTED_QUERIES["Q6"]
    flat = ShreddingPipeline(bench_db.schema, SCHEMES["flat"]).compile(query)
    natural = ShreddingPipeline(bench_db.schema, SCHEMES["natural"]).compile(
        query
    )
    from repro.shred.paths import paths

    for path in paths(flat.result_type):
        flat_cols = len(flat.sql_at(path).columns)
        natural_cols = len(natural.sql_at(path).columns)
        assert natural_cols >= flat_cols
