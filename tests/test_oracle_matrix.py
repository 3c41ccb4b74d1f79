"""The paper's correctness theorem, checked for every execution path from
one matrix: shred, run the flat SQL, stitch ≡ N⟦−⟧ (``nrc/semantics``).

A *cell* picks one value on each axis:

=========== ==========================================================
engine      ``per-path`` (the reference executor) · ``batched`` ·
            ``parallel`` — in process only: a sharded route runs the
            batched engine, folding every shard's column tables
optimize    the logical optimizer off · on
shape       the plan shape resolved from the schema · ``scheme="flat"``
            · ``scheme="natural"``
references  the store's schema as declared (in process only) · the
            deployment schema of a placement, which keeps the references
            that hold in every partition
            (:func:`repro.shard.endpoint_session`):
            ``organisation_placement()`` · ``co-partitioned`` (departments
            by name ⟂ employees by dept, aligned, as ``sharded_bulk``) —
            on a sharded route, its placement
cache       cold (no plan cache) · warm (the second run of a cached plan)
route       in process · 2 shards over local endpoints · 2 shards over
            the wire (conftest's :class:`ShardedSessions`)
collection  ``bag`` · ``set`` · ``list``
=========== ==========================================================

and every cell is held to one oracle:

* the value equals :func:`~repro.nrc.semantics.evaluate` as a nested
  multiset (:func:`~repro.values.assert_bag_equal`); under ``set``
  semantics it equals ``dedup_nested`` of it, and a ``list`` equals, in
  order, what the per-path reference reads from the same store (on a
  sharded route, from the full copy whose tables the coordinator folds);
* no list or record occurs twice in a result, nor in the two results of a
  warm cell (the fold hands a bucket to its parent without a copy);
* the ``statements`` and ``rows_fetched`` counters equal the per-path
  reference's on every store the route hit;
* a cell the system refuses — the natural shape over a keyless table or
  under list semantics — raises, and says why.

Two parts.  The **registry part** runs every ``paper_registry()`` query
over a covering of the axes plus the store (Fig. 3 and the trap stores of
:mod:`tests.strategies`), computed below, not typed in: every pair of
values meets, and the combinations that decide a plan meet in full.  The
**property part** lets Hypothesis draw the term, its bindings, a trap
store under drawn references and one value per axis; its example count is
the active Hypothesis profile's (``tests/conftest.py``).

A new plan shape, engine or route joins as one more value of its axis; a
value that goes away is one value fewer.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from itertools import combinations, product
from weakref import WeakKeyDictionary

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.data.organisation import figure3_database, organisation_placement
from repro.errors import ServiceError, SqlGenerationError
from repro.nrc.ast import For, Table, Term, substitute_params
from repro.nrc.semantics import evaluate
from repro.pipeline.plan_cache import PlanCache
from repro.service import paper_registry
from repro.shard import Placement, endpoint_session, sharded
from repro.sql.codegen import CompiledSql, SqlOptions
from repro.values import assert_bag_equal, dedup_nested

from .conftest import ShardedSessions
from .strategies import queries_with_bindings, references, trap_stores

AXES = {
    "engine": ("per-path", "batched", "parallel"),
    "optimize": ("plain", "optimized"),
    "shape": ("default", "flat", "natural"),
    "references": ("declared", "organisation", "co-partitioned"),
    "cache": ("cold", "warm"),
    "route": ("in-process", "local", "wire"),
    "collection": ("bag", "set", "list"),
}
#: The registry part's stores; the property part draws from the traps
#: only (on Fig. 3 the oracle can take minutes over a generated query).
STORES = ("figure3", "traps", "keyless")
TRAPS = ("traps", "keyless")

#: The placements a deployment's stores compile under, by their value on
#: the ``references`` axis.
PLACEMENTS = {
    "organisation": organisation_placement(),
    "co-partitioned": Placement.of(
        {"departments": sharded(key="name"), "employees": sharded(key="dept")},
        aligned=[("departments", "employees")],
    ),
}

REGISTRY = paper_registry()
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 900}}


def refusal(cell: dict, keyless: bool) -> str | None:
    """Why the system refuses ``cell`` — or any cell with the values it
    names — over a store with a keyless table (if ``keyless``): a fragment
    of its error message, or None."""
    if cell.get("shape") == "natural" and cell.get("collection") == "list":
        return "requires the flat scheme"
    if cell.get("shape") == "natural" and keyless:
        return "'tasks' declares none"
    return None


def covering(axes: dict, targets: list[dict], refused) -> list[dict]:
    """Rows over ``axes`` such that each target (a few axes' values) that
    ``refused`` does not reject is part of some row, and no row is refused.
    Greedy and deterministic: each row starts from the first target still
    uncovered and takes, axis by axis, the first value completing the most
    of them."""
    wanted = [target for target in targets if not refused(target)]
    rows = []
    while wanted:
        row = dict(wanted[0])
        for axis, values in axes.items():
            if axis not in row:
                row[axis] = max(
                    values,
                    key=lambda v: -1 if refused({**row, axis: v})
                    else sum(_covers({**row, axis: v}, target) for target in wanted),
                )
        rows.append({axis: row[axis] for axis in axes})
        wanted = [target for target in wanted if not _covers(row, target)]
    return rows


def _covers(row: dict, target: dict) -> bool:
    return all(row.get(axis) == value for axis, value in target.items())


def exists(cell: dict) -> bool:
    """Whether the values ``cell`` names can meet: the engine is an
    in-process run's choice, and a sharded route runs the batched one
    under a placement."""
    in_process = cell.get("route", "in-process") == "in-process"
    return in_process or (
        cell.get("engine", "batched") == "batched"
        and cell.get("references", "organisation") != "declared"
    )


def _refused_row(row: dict) -> bool:
    return refusal(row, row.get("store") == "keyless") is not None


#: The registry part's axes: the cell's and the store.
ROW_AXES = {**AXES, "store": STORES}
#: What the covering must contain.  In process, where a cell costs
#: milliseconds, every engine × shape × store under bag semantics, as
#: declared and as a store of the organisation's deployment: together they
#: decide which plan runs, which fold reads it and what data it meets (a
#: pinned plan needs a kept reference and the default shape, its traps the
#: trap store, and δ would hide a shared bucket).  Over 2 shards, every
#: shape × collection: the coordinator folds each shard's tables of that
#: plan, then applies δ or the list order itself; and every placement ×
#: store, so the trap stores hold the co-partitioned deployment's pinned
#: plans too.  Every collection × route × store (δ shows only where a
#: store has duplicates).  And every pair of values that can meet.
TARGETS = [
    {"engine": e, "shape": s, "references": r, "store": d, "route": "in-process", "collection": "bag"}
    for e, s, r, d in product(AXES["engine"], AXES["shape"], AXES["references"][:2], STORES)
] + [
    {"shape": s, "collection": c, "route": route}
    for s, c, route in product(AXES["shape"], AXES["collection"], AXES["route"][1:])
] + [
    {"references": r, "route": route, "store": d}
    for r, route, d in product(PLACEMENTS, AXES["route"][1:], STORES)
] + [
    {"collection": c, "route": route, "store": d}
    for c, route, d in product(AXES["collection"], AXES["route"], STORES)
] + [
    target
    for a, b in combinations(ROW_AXES, 2)
    for x, y in product(ROW_AXES[a], ROW_AXES[b])
    if exists(target := {a: x, b: y})
]
COVERING = covering(ROW_AXES, TARGETS, lambda row: _refused_row(row) or not exists(row))
#: One row per refusal the system makes: natural × keyless on every route,
#: natural × list once (``SqlOptions`` itself rejects it).
REFUSALS = [
    {**COVERING[0], "engine": "batched", "references": "co-partitioned", "shape": "natural",
     "collection": "bag", "store": "keyless", "route": route}
    for route in AXES["route"]
] + [{**COVERING[0], "shape": "natural", "collection": "list", "store": "figure3"}]


def _row_id(row: dict) -> str:
    return "-".join(row.values())


def cell(**values: str) -> dict:
    """A cell: ``values`` on the axes they name, each other axis's first
    value (per-path, plain, default, declared, cold, in-process, bag)."""
    return {axis: values.get(axis, choices[0]) for axis, choices in AXES.items()}


# --------------------------------------------------------------------------
# The oracle.


def shared_objects(*values) -> list:
    """Lists and records reachable more than once from ``values``."""
    seen: set[int] = set()
    shared = []
    stack = list(values)
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)):
            if id(node) in seen:
                shared.append(node)
                continue
            seen.add(id(node))
            stack.extend(node if isinstance(node, list) else node.values())
    return shared


def session_of(cell: dict):
    """How a cell's stores compile: as declared, or as the stores of a
    deployment under the cell's placement (every sharded route)."""
    if cell["references"] == "declared":
        return connect
    return partial(endpoint_session, placement=PLACEMENTS[cell["references"]])


def options_of(cell: dict) -> SqlOptions:
    return SqlOptions(
        scheme=None if cell["shape"] == "default" else cell["shape"],
        optimize=cell["optimize"] == "optimized",
        ordered=cell["collection"] == "list",
    )


class Matrix:
    """What the cells share: the registry part's stores, the oracle's
    values, one plan cache (warm cells and per-path references) and the
    sharded sessions, kept per
    (route, placement, store, options, cache) a few at a time and closed with the
    matrix."""

    KEEP = 6

    def __init__(self) -> None:
        self.stores = {"figure3": figure3_database(), **trap_stores()}
        self.plans = PlanCache()
        self._expected: WeakKeyDictionary = WeakKeyDictionary()
        self._sharded: dict = {}

    def sharded(self, route: str, placement: str, db, options: SqlOptions, cache: str):
        key = (route, placement, db, options, cache)
        if key not in self._sharded:
            if len(self._sharded) == self.KEEP:
                oldest = next(iter(self._sharded))
                self._sharded.pop(oldest)[0].close()
            factory = ShardedSessions(route)
            session = factory(
                2, placement=PLACEMENTS[placement], database=db, options=options,
                cache=False if cache == "cold" else self.plans,
            )
            self._sharded[key] = (factory, session)
        return self._sharded[key][1]

    def close(self) -> None:
        for factory, _ in self._sharded.values():
            factory.close()
        self._sharded.clear()

    def run(self, term, params, cell: dict, db):
        """Run one cell: ``(results, stores hit)``, the results being one
        run (cold) or two runs of one plan (warm)."""
        options = options_of(cell)
        if cell["route"] == "in-process":
            cache = None if cell["cache"] == "cold" else self.plans
            session = session_of(cell)(db, options=options, cache=cache)
        else:
            session = self.sharded(
                cell["route"], cell["references"], db, options, cell["cache"]
            )
        engine = {"engine": cell["engine"]} if cell["route"] == "in-process" else {}
        results = [
            session.run(term, collection=cell["collection"], params=params, **engine)
            for _ in range(1 if cell["cache"] == "cold" else 2)
        ]
        if cell["route"] == "in-process":
            return results, [db]
        sdb = session.db
        return results, [sdb.shards[i] for i in results[-1].shards] or [sdb.full]

    def expected(self, term, params, db):
        """N⟦term⟧ over ``db``, evaluated once."""
        values = self._expected.setdefault(db, {})
        key = (term, tuple(sorted((params or {}).items())))
        if key not in values:
            values[key] = evaluate(substitute_params(term, params) if params else term, db)
        return values[key]

    def check(self, term, params, cell: dict, db) -> None:
        """Hold ``cell`` over the store ``db`` to the oracle."""
        context = _row_id(cell)
        reason = refusal(cell, any(not t.has_declared_key for t in db.schema.tables))
        if reason is not None:
            with pytest.raises((SqlGenerationError, ServiceError), match=reason):
                self.run(term, params, cell, db)
            return
        results, hit = self.run(term, params, cell, db)
        value = results[-1].value

        expected = self.expected(term, params, db)
        if cell["collection"] == "set":
            expected = dedup_nested(expected)
        assert_bag_equal(value, expected, context)

        shared = shared_objects(*(result.value for result in results))
        assert shared == [], f"{context}: shared {shared!r}"

        per_path = [
            session_of(cell)(store, options=options_of(cell), cache=self.plans).run(
                term, engine="per-path", collection=cell["collection"], params=params
            )
            for store in hit
        ]
        if cell["collection"] == "list":
            assert value == per_path[0].value, f"{context}: list order"
        counters = (results[-1].stats.queries, results[-1].stats.rows_fetched)
        assert counters == (
            sum(r.stats.queries for r in per_path),
            sum(r.stats.rows_fetched for r in per_path),
        ), f"{context}: (statements, rows_fetched)"


@pytest.fixture(scope="module")
def matrix():
    cells = Matrix()
    yield cells
    cells.close()


# --------------------------------------------------------------------------
# The registry part.


def test_the_covering_covers_every_target():
    """Each target occurs in a row unless the system refuses it, and then
    in a refusal row."""
    for target in TARGETS:
        if not _refused_row(target):
            assert any(_covers(row, target) for row in COVERING), target
        elif len(target) == 2:
            assert any(_covers(row, target) for row in REFUSALS), target
    assert not any(_refused_row(row) for row in COVERING)
    assert all(exists(row) for row in COVERING + REFUSALS)
    assert len(COVERING) < 80  # of 1 944 rows in the product


@pytest.mark.parametrize("name", REGISTRY.names())
@pytest.mark.parametrize("row", COVERING + REFUSALS, ids=_row_id)
def test_registry_query(matrix, row, name):
    cell = {axis: row[axis] for axis in AXES}
    matrix.check(REGISTRY.lookup(name).term, PARAMS.get(name), cell, matrix.stores[row["store"]])


# --------------------------------------------------------------------------
# The property part.

#: The oracle steps an example may take: the odd generated term nests
#: enough generators and ``empty`` probes to keep ``evaluate`` busy for
#: minutes, and its plans are no different from the rest.
ORACLE_BUDGET = 10**6


def oracle_steps(term: Term, db, rows: int = 1) -> int:
    """An upper bound on the steps ``evaluate(term, db)`` takes: each
    subterm once per combination of the rows its generators range over."""
    if isinstance(term, For) and isinstance(term.source, Table):
        rows_inside = rows * len(db.raw_rows(term.source.name))
        return rows + oracle_steps(term.body, db, rows_inside)
    children = []
    for field in fields(term):
        value = getattr(term, field.name)
        for part in value if isinstance(value, tuple) else (value,):
            children.append(part[1] if isinstance(part, tuple) else part)
    return rows + sum(oracle_steps(c, db, rows) for c in children if isinstance(c, Term))


@given(data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_drawn_query(matrix, data):
    term, bindings = data.draw(queries_with_bindings(), label="query")
    store = data.draw(st.sampled_from(TRAPS), label="store")
    db = trap_stores(data.draw(references(), label="declared references"))[store]
    assume(oracle_steps(term, db) <= ORACLE_BUDGET)
    cell = {axis: data.draw(st.sampled_from(values), label=axis) for axis, values in AXES.items()}
    assume(exists(cell))
    matrix.check(term, bindings, cell, db)


# --------------------------------------------------------------------------
# The matrix catches what it is for: seeded bugs, each on one cell.

BATCHED = cell(engine="batched")


def test_it_catches_miswired_child_buckets(matrix, monkeypatch):
    """The fold takes its children's results by position (one per index
    leaf, in field order).  Hand Q1's two children — contacts and
    employees — over the other way round."""
    build = CompiledSql.fold

    def miswired(self):
        fold = build(self)
        return lambda chunk, grouped, *children: fold(chunk, grouped, *reversed(children))

    monkeypatch.setattr(CompiledSql, "fold", miswired)
    with pytest.raises(AssertionError, match="missing"):
        matrix.check(REGISTRY.lookup("Q1").term, None, BATCHED, matrix.stores["figure3"])


def test_it_catches_a_fold_that_shares_a_bucket(matrix, monkeypatch):
    """Folded as if every index were natural — the bucket looked up, not
    taken — the two "Sales" rows of Q1 share their lists."""
    monkeypatch.setattr(CompiledSql, "pinned_leaves", property(lambda self: frozenset()))
    with pytest.raises(AssertionError, match="shared"):
        matrix.check(REGISTRY.lookup("Q1").term, None, BATCHED, matrix.stores["traps"])
