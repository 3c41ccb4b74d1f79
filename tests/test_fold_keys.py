"""Bare and tagged fold keys: each parent→child edge keyed once per package.

A child statement's fold files its rows under their *outer* index and the
parent's fold looks them up by the index leaf of its *item*, so both build
the same key.  :func:`repro.sql.codegen.key_edges` makes an edge *bare* —
both sides key by the dynamic parts alone, the tag dropped — only where
the tag is one literal on both sides and nobody pads the key with NULLs.
The four edge shapes (literal = literal, literal ≠ literal, column/literal,
column/column), under both plan shapes and through a NULL-padded union,
are checked here against :func:`repro.nrc.semantics.evaluate` and the
per-path engine, with the decision itself and the fold text it produces.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.api import connect
from repro.backend.executor import execute_package_batched
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.nrc import builders as b
from repro.nrc.semantics import evaluate
from repro.nrc.types import STRING
from repro.shred.packages import PkgBag, PkgRecord, annotations
from repro.shred.stitch import stitch_grouped
from repro.sql.codegen import SqlOptions, key_edges
from repro.values import assert_bag_equal

from .strategies import asymmetric_union_query

PLANS = {"natural": SqlOptions(), "flat": SqlOptions(scheme="flat")}


def _staff(d):
    return b.for_(
        "e",
        b.table("employees"),
        lambda e: b.where(b.eq(e["dept"], d["name"]), b.ret(e["name"])),
    )


def dead_branch_union():
    """The falsifying case of a per-statement key rule: the union parent
    keeps both branches (its ``staff`` tag is a column, ``a`` or ``c``),
    while the child holds only the ``a`` branch — the ``c`` branch's
    inner bag is ∅ — so the child's outer tag is the literal ``a``.
    Dropping each side's literal tag on its own keyed the child bare and
    left the parent tagged: every inner bag came back empty."""
    return b.union(
        b.for_(
            "d", b.table("departments"), lambda d: b.ret(b.record(name=d["name"], staff=_staff(d)))
        ),
        b.for_(
            "c",
            b.table("contacts"),
            lambda c: b.ret(b.record(name=c["name"], staff=b.empty_bag(STRING))),
        ),
    )


def both_branches_union():
    """Column/column: both union branches of the parent have inner bags,
    so the child carries both tags too."""
    return b.union(
        b.for_(
            "d", b.table("departments"), lambda d: b.ret(b.record(name=d["name"], staff=_staff(d)))
        ),
        b.for_(
            "c",
            b.table("contacts"),
            lambda c: b.ret(
                b.record(
                    name=c["name"],
                    staff=b.for_(
                        "e",
                        b.table("employees"),
                        lambda e: b.where(b.eq(e["dept"], c["dept"]), b.ret(e["name"])),
                    ),
                )
            ),
        ),
    )


#: name → (term, {child path: bare?}) — the decision every edge must get,
#: the same under both plan shapes.
SHAPES = {
    "literal=literal": (
        NESTED_QUERIES["Q1"],
        {"↓.contacts": True, "↓.employees": True, "↓.employees.↓.tasks": True},
    ),
    "column/literal": (dead_branch_union(), {"↓.staff": False}),
    "column/column": (both_branches_union(), {"↓.staff": False}),
    # The people statement pads its narrower branch's keys with NULLs:
    # its own outer edge is bare, the edge below it (padded) is not.
    "padded-union": (asymmetric_union_query(), {"↓.people": True, "↓.people.↓.stuff": False}),
}


def _edges(compiled):
    """child path → (parent statement, item leaf, child statement)."""
    path_of = {id(s): str(path) for path, s in annotations(compiled.sql_package)}
    found = {}

    def walk(parent, node, leaf):
        if isinstance(node, PkgBag):
            found[path_of[id(node.annotation)]] = (parent, leaf, node.annotation)
            walk(node.annotation, node.element, ("item",))
        elif isinstance(node, PkgRecord):
            for label, sub in node.fields:
                walk(parent, sub, leaf + (label,))

    walk(compiled.sql_package.annotation, compiled.sql_package.element, ("item",))
    return found


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_each_edge_is_keyed_once_and_answers_right(shape, plan):
    term, expected = SHAPES[shape]
    db = figure3_database()
    session = connect(db, options=PLANS[plan], cache=False)
    compiled = session.compile(term)
    edges = _edges(compiled)
    assert set(edges) == set(expected)
    for child_path, (parent, leaf, child) in edges.items():
        bare = expected[child_path]
        assert (leaf in parent.bare_keys) is bare, child_path
        assert (("outer",) in child.bare_keys) is bare, child_path
    # The top-level key is never bare: stitch_grouped (and bench/) read it.
    top = compiled.sql_package.annotation
    assert ("outer",) not in top.bare_keys and "('top', 1)" in top.fold_source
    batched = session.query(term).run(engine="batched").value
    assert_bag_equal(batched, evaluate(term, db), context=f"{shape}/{plan}")
    assert_bag_equal(batched, session.query(term).run(engine="per-path").value)


def test_the_dead_branch_union_keeps_its_inner_bags():
    """The named regression: departments with staff get their staff."""
    for plan, options in PLANS.items():
        compiled = connect(figure3_database(), options=options).compile(dead_branch_union())
        (parent, leaf, child), = _edges(compiled).values()
        assert parent.literal_tag(leaf) is None  # a column: 'a' or 'c'
        assert child.literal_tag(("outer",)) == "a"
        rows = connect(figure3_database(), options=options).run(dead_branch_union()).value
        staffed = {row["name"]: row["staff"] for row in rows if row["staff"]}
        assert set(staffed) == {"Product", "Research", "Sales"}, plan


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_a_bare_edge_builds_no_tag_tuple(plan):
    """``explain()``'s fold text: a one-part bare key is the cell itself
    (``key = vi``, ``getk(vj)``: the row is unpacked into one local per
    column), a several-part one the tuple of its dynamic parts — never the
    tag.  (A pinned lookup, ``takek(key, None)``, keys the same way.)"""
    compiled = connect(figure3_database(), options=PLANS[plan]).compile(NESTED_QUERIES["Q1"])
    explained = compiled.explain()
    lookups = r"(?:get|take)\d\((.*?)(?:, None)?\) or"
    for path, statement in annotations(compiled.sql_package):
        source = statement.fold_source
        assert source.replace("\n", "\n          ").rstrip() in explained
        for lookup in re.findall(lookups, source):
            assert "'" not in lookup, (path, lookup)  # no tag literal
        if str(path) == "ε":
            assert re.findall(lookups, source) == ["v0", "v1"]
            continue
        (key,) = re.findall(r"key = (.*)", source)
        parts = [
            f"v{position}"
            for position, name in enumerate(statement.columns)
            if name.startswith("outer_dyn")
        ]
        assert key == (parts[0] if len(parts) == 1 else f"({', '.join(parts)})"), path
        if plan == "flat":
            assert len(parts) == 1  # one row number: no tuple at all


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_literal_unequal_tags_stay_tagged_and_match_nothing(plan):
    """literal ≠ literal: no normal form produces it (a child's outer tags
    are its parent's), so the child of Q4's one edge is re-tagged by hand.
    Both sides keep ``(tag, …)``, and the parent's lookups find nothing —
    what a tag mismatch means — instead of the bare keys colliding."""
    compiled = connect(figure3_database(), options=PLANS[plan]).compile(NESTED_QUERIES["Q4"])
    top = compiled.sql_package

    def fresh(statement, **changes):
        return dataclasses.replace(statement, bare_keys=frozenset(), _fold=None, **changes)

    (label, child_bag), *rest = [
        (label, sub) for label, sub in top.element.fields if isinstance(sub, PkgBag)
    ]
    assert not rest
    child = child_bag.annotation
    retagged = fresh(
        child,
        constants=tuple(
            (name, "zz" if name == "outer_tag" else value) for name, value in child.constants
        ),
    )
    assert retagged.literal_tag(("outer",)) == "zz"
    parent = fresh(top.annotation)
    fields = tuple(
        (name, PkgBag(sub.element, retagged) if name == label else sub)
        for name, sub in top.element.fields
    )
    package = PkgBag(dataclasses.replace(top.element, fields=fields), parent)
    key_edges(package)
    assert parent.bare_keys == frozenset() and retagged.bare_keys == frozenset()
    db = figure3_database()
    value = stitch_grouped(execute_package_batched(db, package), compiled._top_key())
    assert value and all(row[label] == [] for row in value)
    # Untouched, the same edge is bare and its bags are full.
    assert ("outer",) in child.bare_keys
    assert any(row[label] for row in connect(db, options=PLANS[plan]).run(NESTED_QUERIES["Q4"]).value)
