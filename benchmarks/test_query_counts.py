"""§1 motivation and Fig. 9: query avalanches, counted in statements.

Shredding issues exactly nesting_degree(A) queries regardless of data; the
naive evaluator issues 1 + one query per row per nested bag, so its count
grows with the store.  Both are checked at two store sizes;
``python -m repro figures --figure counts`` prints the sweep.
"""

from __future__ import annotations

import pytest

from repro.backend.executor import ExecutionStats
from repro.baselines.naive import AvalanchePipeline
from repro.data.queries import NESTED_QUERIES
from repro.nrc.types import nesting_degree
from repro.pipeline.shredder import ShreddingPipeline

QUERIES = sorted(NESTED_QUERIES)

#: The queries whose results nest: Q2's is a flat bag of department
#: names (nesting degree 1), one statement for either evaluator.
NESTING = [name for name in QUERIES if name != "Q2"]


def _statements(compiled, db) -> int:
    stats = ExecutionStats()
    compiled.run(db, stats=stats)
    return stats.queries


@pytest.mark.parametrize("query_name", QUERIES)
def test_shredding_round_trips(small_bench_db, bench_db, query_name):
    """Exactly one statement per nested bag, at both sizes."""
    compiled = ShreddingPipeline(bench_db.schema).compile(NESTED_QUERIES[query_name])
    degree = nesting_degree(compiled.result_type)
    counts = [_statements(compiled, db) for db in (small_bench_db, bench_db)]
    assert counts == [degree, degree], f"{query_name}: nesting degree {degree}"


@pytest.mark.parametrize("query_name", NESTING)
def test_avalanche_round_trips(small_bench_db, bench_db, query_name):
    """The avalanche: strictly more statements than shredding, and more
    again on the larger store."""
    compiled = AvalanchePipeline(bench_db.schema).compile(NESTED_QUERIES[query_name])
    small, large = (_statements(compiled, db) for db in (small_bench_db, bench_db))
    assert nesting_degree(compiled.result_type) < small < large, (small, large)
