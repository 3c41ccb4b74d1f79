"""Tests for CSV / SQLite-file import and export."""

from __future__ import annotations

import pytest

from repro.backend.io import (
    dump_csv_dir,
    from_sqlite_file,
    load_csv_dir,
    to_sqlite_file,
)
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.errors import BackendError
from repro.values import assert_bag_equal


class TestCsvRoundTrip:
    def test_dump_then_load(self, tmp_path, db):
        dump_csv_dir(db, tmp_path)
        loaded = load_csv_dir(ORGANISATION_SCHEMA, tmp_path)
        for table in ORGANISATION_SCHEMA.table_names:
            assert loaded.raw_rows(table) == db.raw_rows(table)

    def test_booleans_round_trip(self, tmp_path, db):
        dump_csv_dir(db, tmp_path)
        text = (tmp_path / "contacts.csv").read_text()
        assert "true" in text and "false" in text
        loaded = load_csv_dir(ORGANISATION_SCHEMA, tmp_path)
        pat = next(
            r for r in loaded.raw_rows("contacts") if r["name"] == "Pat"
        )
        assert pat["client"] is True

    def test_missing_file_means_empty_table(self, tmp_path, db):
        dump_csv_dir(db, tmp_path)
        (tmp_path / "tasks.csv").unlink()
        loaded = load_csv_dir(ORGANISATION_SCHEMA, tmp_path)
        assert loaded.row_count("tasks") == 0
        assert loaded.row_count("employees") == 7

    def test_header_mismatch_rejected(self, tmp_path):
        (tmp_path / "departments.csv").write_text("id,wrong\n1,x\n")
        with pytest.raises(BackendError):
            load_csv_dir(ORGANISATION_SCHEMA, tmp_path)

    def test_bad_int_rejected(self, tmp_path):
        (tmp_path / "departments.csv").write_text("id,name\nnope,Product\n")
        with pytest.raises(BackendError):
            load_csv_dir(ORGANISATION_SCHEMA, tmp_path)

    def test_bad_bool_rejected(self, tmp_path):
        (tmp_path / "contacts.csv").write_text(
            "id,dept,name,client\n1,Product,Pam,maybe\n"
        )
        with pytest.raises(BackendError):
            load_csv_dir(ORGANISATION_SCHEMA, tmp_path)

    def test_bool_spellings(self, tmp_path):
        (tmp_path / "contacts.csv").write_text(
            "id,dept,name,client\n1,P,A,1\n2,P,B,no\n3,P,C,True\n"
        )
        loaded = load_csv_dir(ORGANISATION_SCHEMA, tmp_path)
        flags = [r["client"] for r in loaded.raw_rows("contacts")]
        assert flags == [True, False, True]


class TestSqliteFileRoundTrip:
    def test_round_trip(self, tmp_path, db):
        path = tmp_path / "org.sqlite3"
        to_sqlite_file(db, path)
        loaded = from_sqlite_file(ORGANISATION_SCHEMA, path)
        for table in ORGANISATION_SCHEMA.table_names:
            assert_bag_equal(
                loaded.raw_rows(table), db.raw_rows(table), table
            )

    def test_queries_work_on_loaded_db(self, tmp_path, db):
        from repro.data.queries import Q6
        from repro.nrc.semantics import evaluate
        from repro.values import bag_equal

        from .conftest import run_per_path

        path = tmp_path / "org.sqlite3"
        to_sqlite_file(db, path)
        loaded = from_sqlite_file(ORGANISATION_SCHEMA, path)
        assert bag_equal(run_per_path(Q6, loaded), evaluate(Q6, db))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BackendError):
            from_sqlite_file(ORGANISATION_SCHEMA, tmp_path / "nope.sqlite3")

    def test_missing_table(self, tmp_path):
        import sqlite3

        path = tmp_path / "partial.sqlite3"
        connection = sqlite3.connect(str(path))
        connection.execute("CREATE TABLE unrelated (x)")
        connection.commit()
        connection.close()
        with pytest.raises(BackendError):
            from_sqlite_file(ORGANISATION_SCHEMA, path)
