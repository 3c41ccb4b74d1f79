"""Tests for the Database substrate (in-memory canonical order + SQLite)."""

from __future__ import annotations

import pytest

from repro.backend.database import Database, covering_columns, quote_identifier
from repro.errors import BackendError, UnknownTableError
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.types import BOOL, INT, STRING


@pytest.fixture
def tiny_schema():
    return Schema(
        (
            TableSchema("t", (("id", INT), ("s", STRING), ("f", BOOL)), key=("id",)),
            TableSchema("u", (("x", INT),)),
        )
    )


class TestSchema:
    def test_signature(self, tiny_schema):
        sig = tiny_schema.signature("t")
        assert str(sig) == "Bag ⟨f: Bool, id: Int, s: String⟩"

    def test_unknown_table(self, tiny_schema):
        with pytest.raises(UnknownTableError):
            tiny_schema.table("nope")

    def test_key_columns_default_to_all(self, tiny_schema):
        assert tiny_schema.table("u").key_columns == ("x",)
        assert not tiny_schema.table("u").has_declared_key
        assert tiny_schema.table("t").key_columns == ("id",)

    def test_bad_key_column(self):
        with pytest.raises(BackendError):
            TableSchema("t", (("a", INT),), key=("b",))

    def test_duplicate_columns(self):
        with pytest.raises(BackendError):
            TableSchema("t", (("a", INT), ("a", INT)))

    def test_duplicate_tables(self):
        t = TableSchema("t", (("a", INT),))
        with pytest.raises(BackendError):
            Schema((t, t))


class TestRows:
    def test_insert_validates_columns(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(BackendError):
            db.insert("t", [{"id": 1}])
        with pytest.raises(BackendError):
            db.insert("t", [{"id": 1, "s": "a", "f": True, "extra": 0}])

    def test_canonical_order_all_columns_lexicographic(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert(
            "t",
            [
                {"id": 2, "s": "b", "f": False},
                {"id": 1, "s": "z", "f": True},
                {"id": 1, "s": "a", "f": True},
            ],
        )
        ordered = db.rows("t")
        # Sorted by column name order: f, id, s.
        assert [(r["f"], r["id"], r["s"]) for r in ordered] == [
            (False, 2, "b"),
            (True, 1, "a"),
            (True, 1, "z"),
        ]

    def test_raw_rows_keep_insertion_order(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 5}, {"x": 1}])
        assert [r["x"] for r in db.raw_rows("u")] == [5, 1]

    def test_duplicates_preserved(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}, {"x": 1}])
        assert db.row_count("u") == 2

    def test_rows_are_cached_read_only_views(self, tiny_schema):
        # rows() returns the canonical list itself (documented read-only):
        # repeat calls are O(1) and share one list, no per-call deep copy.
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}])
        assert db.rows("u") is db.rows("u")
        # raw_rows() returns a fresh list, so reordering it is safe...
        raw = db.raw_rows("u")
        assert raw is not db.raw_rows("u")
        # ...and an insert invalidates the canonical cache.
        db.insert("u", [{"x": 0}])
        assert [r["x"] for r in db.rows("u")] == [0, 1]

    def test_total_rows(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}, {"x": 2}])
        db.insert("t", [{"id": 1, "s": "a", "f": False}])
        assert db.total_rows() == 3


class TestSqlite:
    def test_execute_simple(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("t", [{"id": 1, "s": "a", "f": True}])
        rows = db.execute_sql('SELECT id, s, f FROM "t"')
        assert rows == [(1, "a", 1)]  # booleans stored as 0/1

    def test_decode_row(self, tiny_schema):
        db = Database(tiny_schema)
        decoded = db.decode_row("t", (1, "a", 1))
        assert decoded == {"id": 1, "s": "a", "f": True}

    def test_window_function_available(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 30}, {"x": 10}, {"x": 20}])
        rows = db.execute_sql(
            'SELECT x, ROW_NUMBER() OVER (ORDER BY x) FROM "u"'
        )
        assert rows == [(10, 1), (20, 2), (30, 3)]

    def test_cte_with_union_all(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}])
        rows = db.execute_sql(
            "WITH q AS (SELECT x FROM u) SELECT x FROM q UNION ALL SELECT x FROM q"
        )
        assert rows == [(1,), (1,)]

    def test_sql_error_wrapped(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(BackendError):
            db.execute_sql("SELECT nonsense FROM nowhere")

    def test_insert_invalidates_connection(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}])
        assert db.execute_sql("SELECT COUNT(*) FROM u") == [(1,)]
        db.insert("u", [{"x": 2}])
        assert db.execute_sql("SELECT COUNT(*) FROM u") == [(2,)]

    def test_insert_updates_live_connection_in_place(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": 1}])
        connection = db.connection()
        db.insert("u", [{"x": 2}])  # incremental: same connection object
        assert db.connection() is connection
        assert db.execute_sql("SELECT COUNT(*) FROM u") == [(2,)]

    def test_execute_sql_chunks_streams_all_rows(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("u", [{"x": i} for i in range(7)])
        chunks = list(
            db.execute_sql_chunks('SELECT x FROM "u" ORDER BY x', batch_size=3)
        )
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]
        assert [x for chunk in chunks for (x,) in chunk] == list(range(7))
        with pytest.raises(BackendError):
            list(db.execute_sql_chunks("SELECT 1", batch_size=0))

    def test_ensure_index_created_once_and_survives_rebuild(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("t", [{"id": 1, "s": "a", "f": True}])
        assert db.ensure_index("t", ("s",)) is True
        assert db.ensure_index("t", ("s",)) is False  # remembered
        assert db.ensure_index("t", ("nope",)) is False  # unknown column
        assert db.ensure_index("cte", ("s",)) is False  # unknown table
        names = {
            name
            for (name,) in db.execute_sql(
                "SELECT name FROM sqlite_master WHERE type='index'"
            )
        }
        assert any(name.startswith("qsidx_t_") for name in names)
        db._dispose_connection()  # rebuilt connections replay the index
        names = {
            name
            for (name,) in db.execute_sql(
                "SELECT name FROM sqlite_master WHERE type='index'"
            )
        }
        assert any(name.startswith("qsidx_t_") for name in names)

    def test_key_index_enforced(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert(
            "t",
            [
                {"id": 1, "s": "a", "f": True},
                {"id": 1, "s": "b", "f": False},
            ],
        )
        with pytest.raises(BackendError):
            db.execute_sql("SELECT * FROM t")


def _advised(db: Database) -> dict[str, list[str]]:
    """Every advisory index of ``db``'s live store → its columns, in index
    order, as ``PRAGMA index_info`` lists them."""
    names = [
        name
        for (name,) in db.execute_sql(
            "SELECT name FROM sqlite_master WHERE type='index' AND name LIKE 'qsidx_%'"
        )
    ]
    return {
        name: [
            column
            for _seq, _cid, column in sorted(
                db.execute_sql(f"PRAGMA index_info({quote_identifier(name)})")
            )
        ]
        for name in names
    }


class TestCoveringAdvisor:
    """An advisory index is searched on its hint and carries the rest of
    its table, so a lookup through it never seeks the table row."""

    def test_hint_columns_first_then_the_table_in_table_order(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("t", [{"id": 1, "s": "a", "f": True}])
        assert db.ensure_index("t", ("s",))
        assert list(_advised(db).values()) == [["s", "id", "f"]]
        assert db.ensure_index("t", ("f", "id"))
        assert sorted(_advised(db).values()) == [["f", "id", "s"], ["s", "id", "f"]]
        assert covering_columns(tiny_schema, "t", ("s",)) == ("s", "id", "f")

    def test_repeat_call_and_rebuilt_connection_give_the_same_index(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("t", [{"id": 1, "s": "a", "f": True}])
        assert db.ensure_index("t", ("s",))
        built = _advised(db)
        assert not db.ensure_index("t", ("s",))
        assert _advised(db) == built
        db._dispose_connection()
        assert _advised(db) == built

    @pytest.mark.parametrize(
        "table, columns",
        [("cte", ("s",)), ("t", ("nope",)), ("t", ("s", "nope")), ("t", ())],
    )
    def test_unknown_table_or_column_builds_nothing(self, tiny_schema, table, columns):
        db = Database(tiny_schema)
        db.insert("t", [{"id": 1, "s": "a", "f": True}])
        assert db.ensure_index(table, columns) is False
        assert covering_columns(tiny_schema, table, columns) is None
        assert _advised(db) == {}


class TestQuoting:
    def test_quote_identifier(self):
        assert quote_identifier("abc") == '"abc"'
        assert quote_identifier('we"ird') == '"we""ird"'
