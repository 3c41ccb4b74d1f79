"""Robustness: awkward strings (quotes, unicode) through the full pipeline.

The generated SQL embeds string literals from queries and data; these tests
ensure quoting/escaping is correct end to end (no injection, no mangling).
"""

from __future__ import annotations

import pytest

from repro.backend.database import Database
from repro.nrc import builders as b
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.semantics import evaluate
from repro.nrc.types import INT, STRING
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

from .conftest import run_per_path

AWKWARD = [
    "O'Brien",
    'double"quote',
    "semi;colon -- comment",
    "ünïcødé ⟨⟩",
    "back\\slash",
    "",
]

SCHEMA = Schema(
    (
        TableSchema(
            "things", (("id", INT), ("label", STRING)), key=("id",)
        ),
        TableSchema(
            "notes", (("id", INT), ("thing", STRING), ("text", STRING)),
            key=("id",),
        ),
    )
)


@pytest.fixture(scope="module")
def awkward_db():
    db = Database(SCHEMA)
    db.insert(
        "things",
        [{"id": i, "label": label} for i, label in enumerate(AWKWARD, 1)],
    )
    db.insert(
        "notes",
        [
            {"id": i, "thing": label, "text": f"note about {label}"}
            for i, label in enumerate(AWKWARD, 1)
        ],
    )
    return db


def _nested_query():
    return b.for_(
        "t",
        b.table("things"),
        lambda t: b.ret(
            b.record(
                label=t["label"],
                notes=b.for_(
                    "n",
                    b.table("notes"),
                    lambda n: b.where(
                        b.eq(n["thing"], t["label"]), b.ret(n["text"])
                    ),
                ),
            )
        ),
    )


class TestAwkwardData:
    def test_values_survive_round_trip(self, awkward_db):
        out = run_per_path(_nested_query(), awkward_db)
        assert bag_equal(out, evaluate(_nested_query(), awkward_db))
        labels = {row["label"] for row in out}
        assert labels == set(AWKWARD)

    def test_every_row_keeps_its_notes(self, awkward_db):
        out = run_per_path(_nested_query(), awkward_db)
        for row in out:
            assert row["notes"] == [f"note about {row['label']}"]

    def test_natural_scheme_too(self, awkward_db):
        out = ShreddingPipeline(SCHEMA, SqlOptions(scheme="natural")).run(
            _nested_query(), awkward_db
        )
        assert bag_equal(out, evaluate(_nested_query(), awkward_db))


class TestAwkwardLiterals:
    @pytest.mark.parametrize("needle", AWKWARD)
    def test_string_literal_in_condition(self, awkward_db, needle):
        query = b.for_(
            "t",
            b.table("things"),
            lambda t: b.where(
                b.eq(t["label"], b.const(needle)),
                b.ret(b.record(id=t["id"])),
            ),
        )
        out = run_per_path(query, awkward_db)
        assert len(out) == 1

    def test_injectionish_literal_returns_nothing(self, awkward_db):
        query = b.for_(
            "t",
            b.table("things"),
            lambda t: b.where(
                b.eq(t["label"], b.const("' OR '1'='1")),
                b.ret(b.record(id=t["id"])),
            ),
        )
        assert run_per_path(query, awkward_db) == []

    def test_literal_in_result_field(self, awkward_db):
        query = b.ret(b.record(v=b.const("it's ⟨fine⟩")))
        assert run_per_path(query, awkward_db) == [{"v": "it's ⟨fine⟩"}]


class TestAwkwardTableNames:
    def test_quoted_identifiers(self):
        schema = Schema(
            (TableSchema("select", (("id", INT), ("from", STRING)), key=("id",)),),
        )
        db = Database(schema)
        db.insert("select", [{"id": 1, "from": "keyword"}])
        query = b.for_(
            "s", b.table("select"), lambda s: b.ret(b.record(f=s["from"]))
        )
        assert run_per_path(query, db) == [{"f": "keyword"}]
