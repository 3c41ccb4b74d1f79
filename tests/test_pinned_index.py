"""Pinned indexes: a nested bag keyed by a declared reference.

Where a child comprehension's only link to its parent is ``child.c =
parent.p`` with ``c`` declared to reference ``p``, and the parent is the
unfiltered top level or itself pinned with no other condition,
:func:`repro.pipeline.shredder.decide_edges` keys the child by ``c`` and
drops its ancestors.  Checked here: the schema declaration, the links that
must *not* qualify and that the organisation data keeps every reference it
declares.  Agreement with :func:`repro.nrc.semantics.evaluate` over orphan
rows and duplicate join values — under the organisation's references,
random ones and none — is ``tests/test_oracle_matrix.py``'s.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.backend.database import Database
from repro.data.generator import generate_organisation
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError, ShreddingError
from repro.nrc import builders as b
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.semantics import evaluate
from repro.nrc.types import INT, STRING
from repro.pipeline.shredder import ShreddingPipeline
from repro.service import paper_registry
from repro.values import assert_bag_equal

from .strategies import with_references
from .test_oracle_matrix import shared_objects

SCHEMA = ORGANISATION_SCHEMA


def _notes(query, schema=SCHEMA) -> dict[str, str]:
    compiled = ShreddingPipeline(schema).compile(query)
    return {str(path): compiled.edges.note(path) for path in compiled.query_paths}


def _assert_runs_like_the_semantics(query, db) -> None:
    compiled = ShreddingPipeline(db.schema).compile(query)
    expected = evaluate(query, db)
    for engine in ("batched", "per-path"):
        value = compiled.run(db, engine=engine)
        assert shared_objects(value) == [], engine
        assert_bag_equal(value, expected)


# --------------------------------------------------------------------------
# The declaration.


def test_references_are_part_of_the_schema_identity():
    bare = SCHEMA.without_references()
    assert bare is SCHEMA.without_references()  # memoised
    assert bare.without_references() is bare
    assert bare != SCHEMA and bare.fingerprint() != SCHEMA.fingerprint()
    assert all(not table.references for table in bare.tables)
    assert SCHEMA.table("tasks").references == (("employee", "employees.name"),)


@pytest.mark.parametrize(
    "references, match",
    [
        ((("nope", "departments.name"),), "bad reference"),
        ((("dept", "departments"),), "bad reference"),
        ((("dept", "departments.nope"),), "cannot reference"),
        ((("dept", "departments.id"),), "cannot reference"),  # String → Int
        ((("dept", "nowhere.name"),), "cannot reference"),
    ],
)
def test_a_malformed_reference_is_rejected(references, match):
    with pytest.raises(BackendError, match=match):
        Schema(
            (
                SCHEMA.table("departments"),
                TableSchema(
                    "staff",
                    (("id", INT), ("dept", STRING)),
                    key=("id",),
                    references=references,
                ),
            )
        )


def test_a_session_compiling_without_references_writes_to_its_store():
    db = figure3_database()
    session = connect(db, schema=SCHEMA.without_references())
    assert session.db is db and session.schema is SCHEMA.without_references()
    session.insert("departments", [{"id": 9, "name": "Zeta"}])
    assert db.row_count("departments") == 5
    with pytest.raises(ShreddingError, match="not both"):
        connect(db, schema=Schema(SCHEMA.tables[:1]))


def test_a_session_refuses_a_reference_its_store_lacks():
    """A session compiles under its store's schema less some references
    (a deployment's), never under one that declares more."""
    kept = with_references({"tasks": (("employee", "employees.name"),)})
    assert connect(figure3_database(), schema=kept).schema is kept
    bare = Database(SCHEMA.without_references(), {})
    with pytest.raises(ShreddingError, match="less some references"):
        connect(bare, schema=kept)
    with pytest.raises(ShreddingError, match="less some references"):
        connect(Database(kept, {}), schema=with_references({"tasks": (("task", "employees.name"),)}))


# --------------------------------------------------------------------------
# The benchmark's data keeps every reference the schema declares: the
# pinned Fig. 11 plans read no row no parent asks for.


def _unreferenced_rows(db: Database) -> list[tuple[str, str, object]]:
    broken = []
    for table in db.schema.tables:
        for column, target in table.references:
            target_table, target_column = target.split(".")
            present = {row[target_column] for row in db.raw_rows(target_table)}
            broken += [
                (table.name, column, row[column])
                for row in db.raw_rows(table.name)
                if row[column] not in present
            ]
    return broken


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("departments, employees", [(4, 10), (64, 100)])
def test_generated_data_keeps_every_reference(seed, departments, employees):
    db = generate_organisation(departments, employees_per_dept=employees, seed=seed)
    assert sum(len(table.references) for table in db.schema.tables) == 3
    assert _unreferenced_rows(db) == []


def test_figure3_keeps_every_reference():
    assert _unreferenced_rows(figure3_database()) == []


# --------------------------------------------------------------------------
# Which links qualify.


def test_the_paper_queries_pin_six_statements():
    """Q1's three children, Q3's and Q4's child and Q6's ``people`` are
    pinned; Q6's ``people.tasks`` keeps natural keys (its parent filters
    on salary) but drops ``departments``; Q2, Q5 and ``dept_staff`` pin
    nothing."""
    registry = paper_registry()
    pinned = {
        (name, path)
        for name in registry.names()
        for path, note in _notes(registry.lookup(name).term).items()
        if note.startswith("pinned")
    }
    assert pinned == {
        ("Q1", "↓.contacts"),
        ("Q1", "↓.employees"),
        ("Q1", "↓.employees.↓.tasks"),
        ("Q3", "↓.tasks"),
        ("Q4", "↓.employees"),
        ("Q6", "↓.people"),
    }
    assert _notes(NESTED_QUERIES["Q6"])["↓.people.↓.tasks"] == (
        "natural keys (filtered ancestor); drops departments"
    )


def _staff_of(d, where=None, body=None):
    return b.for_(
        "e",
        b.table("employees"),
        lambda e: b.where(
            b.eq(e["dept"], d["name"]) if where is None else where(d, e),
            b.ret(e["name"] if body is None else body(d, e)),
        ),
    )


def _departments(staff, where=None):
    return b.for_(
        "d",
        b.table("departments"),
        lambda d: b.where(
            b.const(True) if where is None else where(d),
            b.ret(b.record(name=d["name"], staff=staff(d))),
        ),
    )


NON_QUALIFYING = {
    "filtered ancestor": _departments(
        _staff_of, where=lambda d: b.ne(d["name"], b.const("Sales"))
    ),
    "no reference": NESTED_QUERIES["Q5"],  # employees.name = tasks.employee
    "non-equality link": _departments(
        lambda d: _staff_of(
            d, where=lambda d, e: b.and_(b.eq(e["dept"], d["name"]), b.gt(e["salary"], d["id"]))
        )
    ),
    "reads ancestor column departments.id": _departments(
        lambda d: _staff_of(d, body=lambda d, e: b.record(name=e["name"], dept=d["id"]))
    ),
    "no link": _departments(lambda d: _staff_of(d, where=lambda d, e: b.const(True))),
}


@pytest.mark.parametrize("reason", sorted(NON_QUALIFYING))
def test_a_link_that_does_not_qualify_keeps_natural_keys(reason):
    query = NON_QUALIFYING[reason]
    notes = _notes(query)
    (child,) = [note for path, note in notes.items() if path != "ε"]
    assert child.startswith(f"natural keys ({reason}")
    assert "drops" not in child
    _assert_runs_like_the_semantics(query, figure3_database())


def test_a_parameter_on_the_top_level_filters_it():
    registry = paper_registry()
    assert _notes(registry.lookup("dept_staff").term)["↓.staff"] == (
        "natural keys (filtered ancestor)"
    )


def test_union_branches_pinning_different_parent_columns_keep_natural_keys():
    """Both branches qualify alone — ``tasks.employee`` references
    ``employees.name`` and, in this schema, ``tasks.task`` references
    ``employees.dept`` — but one item index cannot project both columns."""
    schema = with_references(
        {"tasks": (("employee", "employees.name"), ("task", "employees.dept"))}
    )
    query = b.for_(
        "e",
        b.table("employees"),
        lambda e: b.ret(
            b.record(
                name=e["name"],
                work=b.union(
                    b.for_(
                        "t",
                        b.table("tasks"),
                        lambda t: b.where(b.eq(t["employee"], e["name"]), b.ret(t["id"])),
                    ),
                    b.for_(
                        "u",
                        b.table("tasks"),
                        lambda u: b.where(b.eq(u["task"], e["dept"]), b.ret(u["id"])),
                    ),
                ),
            )
        ),
    )
    assert _notes(query, schema)["↓.work"] == (
        "natural keys (union branches pin different parent columns)"
    )
    rows = {t.name: figure3_database().raw_rows(t.name) for t in schema.tables}
    _assert_runs_like_the_semantics(query, Database(schema, rows))


def test_a_leaf_pinned_in_one_branch_only_is_as_wide_as_its_widest_branch():
    """``staff`` is pinned under the departments branch (one column) and
    natural under the filtered employees × contacts branch (two keys): its
    item index is two columns wide, the pinned branch padded with NULL."""
    query = b.union(
        _departments(_staff_of),
        b.for_(
            "e2",
            b.table("employees"),
            lambda e2: b.for_(
                "c",
                b.table("contacts"),
                lambda c: b.where(
                    b.eq(e2["dept"], c["dept"]),
                    b.ret(
                        b.record(
                            name=c["name"],
                            staff=b.for_(
                                "t",
                                b.table("tasks"),
                                lambda t: b.where(
                                    b.eq(t["employee"], e2["name"]), b.ret(t["task"])
                                ),
                            ),
                        )
                    ),
                ),
            ),
        ),
    )
    compiled = ShreddingPipeline(SCHEMA).compile(query)
    top = compiled.sql_package.annotation
    assert [c for c in top.columns if c.startswith("item_staff_dyn")] == [
        "item_staff_dyn1",
        "item_staff_dyn2",
    ]
    assert top.rekeys[0] is not None and top.rekeys[1] is None
    _assert_runs_like_the_semantics(query, figure3_database())
