"""Durable stores: WAL mode, snapshot-on-start recovery, and the
idempotency journal (exactly-once application under redelivery).

The contract under test (PR 7): a :class:`Database` opened with
``path=`` commits every insert to the on-disk file *before* advancing
the in-memory interpretation, so a reopened store — the supervisor's
restart path — recovers exactly the acknowledged rows and exactly the
applied idempotency keys, and a redelivered write is a no-op on every
layer (memory rows, canonical order, SQLite materialisation).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import connect
from repro.backend.database import Database
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import BackendError
from repro.shard import connect_sharded
from repro.values import assert_bag_equal


def _seed_tables() -> dict:
    source = figure3_database()
    return {
        table.name: source.raw_rows(table.name)
        for table in source.schema.tables
    }


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "shard-0.sqlite"


class TestDurableMode:
    def test_fresh_file_is_seeded_in_wal_mode(self, store_path):
        db = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        assert not db.recovered
        assert db.total_rows() == figure3_database().total_rows()
        (mode,) = db.connection().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        assert store_path.exists()

    def test_reopen_recovers_rows_and_ignores_seed(self, store_path):
        first = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        first.insert("departments", [{"id": 99, "name": "Ops"}])
        expected = first.rows("departments")
        first._dispose_connection()

        reopened = Database(
            ORGANISATION_SCHEMA, _seed_tables(), path=store_path
        )
        assert reopened.recovered
        # The seed was *not* re-applied on top of the surviving rows.
        assert reopened.row_count("departments") == len(expected)
        assert reopened.rows("departments") == expected

    def test_recovered_store_answers_queries_identically(self, store_path):
        durable = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        durable._dispose_connection()
        recovered = Database(ORGANISATION_SCHEMA, path=store_path)
        assert recovered.recovered
        with connect(figure3_database()) as memory_session, connect(
            recovered
        ) as durable_session:
            for name in ("Q1", "Q4", "Q6"):
                assert_bag_equal(
                    durable_session.run(NESTED_QUERIES[name]).value,
                    memory_session.run(NESTED_QUERIES[name]).value,
                    f"{name} on the recovered store",
                )

    @pytest.mark.parametrize("references", ["declared", "dropped"])
    def test_a_sharded_session_writes_through_to_the_file(self, store_path, references):
        """The caller's durable store is the deployment's full copy, with
        or without the references its schema declares: an acknowledged
        insert survives a reopen, and a re-sent key applies nothing."""
        schema = ORGANISATION_SCHEMA
        if references == "dropped":
            schema = schema.without_references()
        db = Database(schema, _seed_tables(), path=store_path)
        before = db.row_count("departments")
        ops = {"id": 90, "name": "Ops"}
        with connect_sharded(db, placement=organisation_placement(), shards=2) as session:
            assert session.insert("departments", [ops], idempotency_key="ops")["applied"]
            assert not session.insert("departments", [ops], idempotency_key="ops")["applied"]
        assert db.row_count("departments") == before + 1
        assert not db.insert("departments", [ops], idempotency_key="ops")
        reopened = Database(schema, _seed_tables(), path=store_path)
        assert reopened.recovered
        assert ops in reopened.rows("departments")
        assert reopened.row_count("departments") == before + 1

    def test_readers_are_query_only(self, store_path):
        db = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        (reader,) = db.read_connections(1)
        with pytest.raises(sqlite3.OperationalError):
            reader.execute("DELETE FROM departments")

    def test_failed_insert_leaves_both_layers_untouched(self, store_path):
        db = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        before = db.row_count("departments")
        # Duplicate declared key: the file-first transaction rolls back
        # and the in-memory rows never advance.
        with pytest.raises(BackendError):
            db.insert("departments", [{"id": 1, "name": "Dup"}])
        assert db.row_count("departments") == before
        (count,) = db.connection().execute(
            "SELECT COUNT(*) FROM departments"
        ).fetchone()
        assert count == before


class TestIdempotencyJournal:
    def test_duplicate_key_is_a_noop_in_memory_mode(self):
        db = figure3_database()
        before = db.row_count("departments")
        assert db.insert(
            "departments", [{"id": 80, "name": "Dev"}], idempotency_key="k1"
        )
        assert not db.insert(
            "departments", [{"id": 80, "name": "Dev"}], idempotency_key="k1"
        )
        assert db.row_count("departments") == before + 1

    def test_journal_survives_reopen(self, store_path):
        first = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        assert first.insert(
            "departments", [{"id": 81, "name": "QA"}], idempotency_key="w-1"
        )
        count = first.row_count("departments")
        first._dispose_connection()

        # The redelivery arrives *after* a crash-restart: the journal in
        # the file, not process memory, must dedup it.
        reopened = Database(ORGANISATION_SCHEMA, path=store_path)
        assert reopened.recovered
        assert not reopened.insert(
            "departments", [{"id": 81, "name": "QA"}], idempotency_key="w-1"
        )
        assert reopened.row_count("departments") == count
        assert reopened.insert(
            "departments", [{"id": 82, "name": "Net"}], idempotency_key="w-2"
        )
        assert reopened.row_count("departments") == count + 1

    def test_key_dedups_across_tables_and_sqlite_agrees(self, store_path):
        db = Database(ORGANISATION_SCHEMA, _seed_tables(), path=store_path)
        db.insert("departments", [{"id": 83, "name": "Lab"}], idempotency_key="x")
        assert not db.insert(
            "departments", [{"id": 84, "name": "Lab2"}], idempotency_key="x"
        )
        rows = db.connection().execute(
            "SELECT COUNT(*) FROM departments WHERE id IN (83, 84)"
        ).fetchone()
        assert rows == (1,)
