"""Appendix A: Van den Bussche's simulation — the blowup in tuples.

Reproduces the exact counts of the paper's example (|T1| = 72 vs 9 tuples
naturally) and counts simulated union against the natural (shredding
style) representation as inputs grow; ``python -m repro figures --figure
A`` prints the table.
"""

from __future__ import annotations

import pytest

from repro.baselines import vandenbussche as V


def _relations(n: int):
    r = V.NestedRelation(tuple((i, (i,)) for i in range(n)))
    s = V.NestedRelation(tuple((i, (i * 2,)) for i in range(n)))
    return r, s


@pytest.mark.parametrize("n", [4, 8, 16])
def test_vdb_union_blowup(n):
    r, s = _relations(n)
    r1, s1 = V.flat_rep(r, "id"), V.flat_rep(s, "id")
    result = V.vdb_union(r1, s1)
    adom = V.active_domain(r1, s1)
    expected = len(r1.outer) * len(adom) + len(s1.outer) * len(adom) * (
        len(adom) - 1
    )
    assert len(result.outer) == expected
    assert result.tuple_count > V.natural_tuple_count(r, s)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_natural_union_baseline(n):
    r, s = _relations(n)
    result = V.direct_union(r, s)
    assert result.tuple_count == 4 * n


def test_paper_numbers():
    """|T1| = 72, natural = 9, R∪S ≠ S∪R under the simulation."""
    r, s = V.paper_example()
    r1, s1 = V.paper_flat_reps()
    assert len(V.vdb_union(r1, s1).outer) == 72
    assert V.natural_tuple_count(r, s) == 9
    assert V.vdb_union(r1, s1).tuple_count == 174
    assert V.vdb_union(s1, r1).tuple_count == 150
