"""Figure 10: flat queries QF1-QF6 × {default, shredding, loop-lifting}.

The paper's finding: shredding has low per-query overhead versus Links'
default flat evaluation, while loop-lifting pays a per-query plan cost and
extra sorting (QF4/QF5).  The figure's timings (the log-log series) are
``python -m repro figures --figure 10``; this module checks that every
cell the figure times computes the semantics' answer, and the shape
behind the timings.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import SYSTEMS
from repro.data.queries import FLAT_QUERIES
from repro.values import bag_equal

FLAT_SYSTEMS = ["default", "shredding", "loop-lifting"]


@pytest.mark.parametrize("system", FLAT_SYSTEMS)
@pytest.mark.parametrize("query_name", sorted(FLAT_QUERIES))
def test_fig10_cell(bench_db, bench_answer, query_name, system):
    result = SYSTEMS[system](FLAT_QUERIES[query_name], bench_db)
    assert bag_equal(result, bench_answer(query_name)), (query_name, system)


def test_fig10_shredding_overhead_is_bounded(bench_db):
    """Sanity assertion behind the figure: for flat queries, shredding's
    query is a single SELECT like the default pipeline's (no OLAP)."""
    from repro.api import connect

    session = connect(schema=bench_db.schema, cache=False)
    for name, query in FLAT_QUERIES.items():
        pairs = session.sql(query)
        assert len(pairs) == 1, name
        assert "ROW_NUMBER" not in pairs[0][1], name
