"""Every result is a tree with the multiplicities of the semantics.

A pinned index (a nested bag keyed by its join column) lets parents that
share a join value share a key, so the batched fold must hand each of them
the whole bag without handing two of them the same list.  Checked for every
registry query under both plan shapes and both engines, on Fig. 3 and on
the trap store of :mod:`tests.strategies` (``awkward``): two departments
with the same name, two employees with the same name, and employees, tasks
and contacts that reference nothing.  These are in-process cells of
``tests/test_oracle_matrix.py``, which also holds the proof that the check
catches a fold sharing a bucket.
"""

from __future__ import annotations

import pytest

from repro.api import connect

from .strategies import trap_stores
from .test_oracle_matrix import PARAMS, REGISTRY, cell, matrix  # noqa: F401 - the fixture

#: The matrix's store for each of this suite's.
STORES = {"awkward": "traps", "figure3": "figure3"}


@pytest.mark.parametrize("engine", ("batched", "per-path"))
@pytest.mark.parametrize("plan", ("default", "flat"))
@pytest.mark.parametrize("name", REGISTRY.names())
@pytest.mark.parametrize("store", sorted(STORES))
def test_results_are_trees_equal_to_the_semantics(matrix, store, name, plan, engine):
    term = REGISTRY.lookup(name).term
    matrix.check(term, PARAMS.get(name), cell(engine=engine, shape=plan), matrix.stores[STORES[store]])


def test_the_awkward_store_shares_keys():
    """The store does reach the shared-key path: Q1's second "Sales"
    department gets Sales' employees and contacts, and Q3's two Eriks each
    get both Eriks' tasks."""
    session = connect(trap_stores()["traps"], cache=False)
    q1 = session.run(REGISTRY.lookup("Q1").term).value
    sales = [row for row in q1 if row["name"] == "Sales"]
    assert len(sales) == 2 and sales[0] == sales[1] and sales[0]["employees"]
    q3 = session.run(REGISTRY.lookup("Q3").term).value
    eriks = [row for row in q3 if row["name"] == "Erik"]
    assert len(eriks) == 2 and eriks[0] == eriks[1] and len(eriks[0]["tasks"]) == 2
