"""Every result is a tree with the multiplicities of the semantics.

A pinned index (a nested bag keyed by its join column) lets parents that
share a join value share a key, so the batched fold must hand each of them
the whole bag without handing two of them the same list.  Checked for every
registry query under both plan shapes and both engines, on Fig. 3 and on a
store that breaks every assumption a pinned plan could lean on: two
departments with the same name, two employees with the same name, and
employees, tasks and contacts that reference nothing.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.backend.database import Database
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.nrc.ast import substitute_params
from repro.nrc.semantics import evaluate
from repro.service import paper_registry
from repro.sql.codegen import CompiledSql, SqlOptions
from repro.values import assert_bag_equal

REGISTRY = paper_registry()
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 900}}
PLANS = {"default": SqlOptions(), "flat": SqlOptions(scheme="flat")}
ENGINES = ("batched", "per-path")


def awkward_database() -> Database:
    """Fig. 3 plus a second "Sales" department, a second "Cora" (in
    Quality, poor, so Q6 lists her), and rows whose join column matches
    nothing: an employee and a contact of "Nowhere", a task of "Nobody"."""
    db = figure3_database()
    rows = {table.name: db.raw_rows(table.name) for table in ORGANISATION_SCHEMA.tables}
    rows["departments"] += [{"id": 5, "name": "Sales"}]
    rows["employees"] += [
        {"id": 8, "dept": "Quality", "name": "Cora", "salary": 700},
        {"id": 9, "dept": "Nowhere", "name": "Hank", "salary": 500},
    ]
    rows["tasks"] += [
        {"id": 15, "employee": "Hank", "task": "call"},
        {"id": 16, "employee": "Nobody", "task": "build"},
    ]
    rows["contacts"] += [{"id": 8, "dept": "Nowhere", "name": "Zed", "client": True}]
    return Database(ORGANISATION_SCHEMA, rows)


STORES = {"figure3": figure3_database, "awkward": awkward_database}


def shared_objects(value) -> list:
    """Lists and records reachable from ``value`` more than once."""
    seen: set[int] = set()
    shared = []
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)):
            if id(node) in seen:
                shared.append(node)
                continue
            seen.add(id(node))
            stack.extend(node if isinstance(node, list) else node.values())
    return shared


@pytest.fixture(scope="module", params=sorted(STORES))
def store(request):
    return STORES[request.param]()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("name", REGISTRY.names())
def test_results_are_trees_equal_to_the_semantics(store, name, plan, engine):
    term = REGISTRY.lookup(name).term
    params = PARAMS.get(name)
    value = connect(store, options=PLANS[plan], cache=False).run(
        term, engine=engine, params=params
    ).value
    assert shared_objects(value) == []
    expected = evaluate(substitute_params(term, params) if params else term, store)
    assert_bag_equal(value, expected)


def test_the_awkward_store_shares_keys():
    """The store does reach the shared-key path: Q1's second "Sales"
    department gets Sales' employees and contacts, and Q3's two Coras each
    get both Coras' tasks."""
    session = connect(awkward_database(), cache=False)
    q1 = session.run(REGISTRY.lookup("Q1").term).value
    sales = [row for row in q1 if row["name"] == "Sales"]
    assert len(sales) == 2 and sales[0] == sales[1] and sales[0]["employees"]
    q3 = session.run(REGISTRY.lookup("Q3").term).value
    coras = [row for row in q3 if row["name"] == "Cora"]
    assert len(coras) == 2 and coras[0] == coras[1] and len(coras[0]["tasks"]) == 5


def test_the_check_catches_a_fold_that_shares_a_bucket(monkeypatch):
    """Folded as if every index were natural — the bucket looked up, not
    taken — the two "Sales" rows of Q1 would share their lists."""
    monkeypatch.setattr(CompiledSql, "pinned_leaves", property(lambda self: frozenset()))
    value = connect(awkward_database(), cache=False).run(REGISTRY.lookup("Q1").term).value
    assert shared_objects(value)
