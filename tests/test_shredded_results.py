"""Protocol v1.5 — ``result: "shredded"``: shards answer with the column
tables SQLite wrote, the coordinator stitches them once.

The paper's architecture is *flat queries run remotely; stitching is the
single local step at the end*.  That its answers equal the nested-multiset
semantics on every route is ``tests/test_oracle_matrix.py``'s; here:

* **differential** — for every registry query × {default, flat} plans ×
  both endpoint kinds × 2/3/4 shards, the rows the coordinator stitches
  are the *same list* the same endpoints answer when nobody asks for
  column tables, and every sub-request — under any collection — asks for
  them;
* **bag laws across fan-out and merge** — replicated tables are not
  multiplied by the shard count, empty inner bags survive, duplicate
  outer records keep their own inner bags, and set semantics dedups once,
  after the union (δ stays where it is: the counter-example for pushing
  it below the comprehension is written down);
* **who does the work** — an endpoint answering a shredded request folds
  nothing and fetches one row per statement; the coordinator folds each
  statement once per shard response;
* **cell fidelity** — the column-table form of a statement equals its
  ``fetchall()`` cell for cell, over hostile strings, Ints at the ±2⁶³
  edges, §6.1's NULL key padding and Bool 0/1;
* **hostile frames** — column tables that do not fit the coordinator's
  plan raise :class:`~repro.errors.ShardingError` before any fold, so
  does a nested ``rows`` answer, and an oversize spliced frame still gets
  a structured error frame.
"""

from __future__ import annotations

import json
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.backend.database import Database
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.errors import ServiceError, ShardingError
from repro.nrc import builders as b
from repro.nrc.ast import substitute_params
from repro.nrc.semantics import evaluate
from repro.service import ServiceClient, paper_registry, protocol, serve_in_background
from repro.service.core import ServerCore
from repro.service.protocol import PROTOCOL_VERSION, pack_frame, split_frame
from repro.shard import (
    Placement,
    ShardedServiceClient,
    connect_sharded,
    shard_for,
    sharded,
)
from repro.shred.packages import annotations
from repro.sql.codegen import CompiledSql, SqlOptions
from repro.values import assert_bag_equal, bag_equal, dedup_nested

from .strategies import asymmetric_union_query

SHARD_COUNTS = (2, 3, 4)
PLANS = {"default": None, "flat": SqlOptions(scheme="flat")}
REGISTRY = paper_registry()
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 900}}
CO_PARTITIONED = Placement.of(
    {"departments": sharded(key="name"), "employees": sharded(key="dept")},
    aligned=[("departments", "employees")],
)


def _oracle(term, db, params=None):
    return evaluate(substitute_params(term, params) if params else term, db)


def _endpoints(client):
    return [e for group in client._groups for e in group] + [client._fallback]


def _unasked(client, result, name, params):
    """What the endpoints ``result`` came from answer when nobody asks for
    column tables — each folds its own rows — ⊎'d in shard order."""
    endpoints = [client._groups[index][0] for index in result.shards] or [client._fallback]
    return [row for e in endpoints for row in e.execute_full(name, params)["rows"]]


def _shard_spans(tracer):
    (query,) = tracer.spans
    (route,) = query.children
    assert (query.name, route.name) == ("query", "route")
    return route.children


# --------------------------------------------------------------------------
# The differential matrix.


class TestDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_stitched_rows_are_the_nested_rows(self, sharded_session, plan, shards):
        session = sharded_session(shards, options=PLANS[plan])
        for name in REGISTRY.names():
            params = PARAMS.get(name)
            result = session.run(name, params=params, trace=True)
            # Identical lists — same order at every level — not just bags…
            assert result.value == _unasked(session.client, result, name, params), name
            # …and stitched here, from every endpoint's tables.
            spans = _shard_spans(result.trace)
            assert all([c.name for c in s.children] == ["stitch"] for s in spans)

    def test_set_semantics_dedup_once_after_the_union(self, sharded_session):
        session = sharded_session(3, shared=True)
        for name in sorted(NESTED_QUERIES):
            bag = session.run(name).value
            as_set = session.run(name, collection="set").value
            assert as_set == dedup_nested(bag), name

    @pytest.mark.parametrize("collection", ["bag", "set", "list"])
    def test_every_sub_request_is_answered_with_tables(
        self, sharded_session, monkeypatch, collection
    ):
        """Protocol v1.6: whatever the collection, every sub-request asks
        for column tables and its answer is folded here — list semantics
        (on the full copy) included, to the in-process ordered run."""
        ordered = SqlOptions(ordered=True)
        session = sharded_session(2, options=ordered)
        asked = []
        for endpoint in _endpoints(session.client):
            honest = endpoint.execute_full

            def spy(*args, _honest=honest, **kwargs):
                asked.append(kwargs.get("result"))
                return _honest(*args, **kwargs)

            monkeypatch.setattr(endpoint, "execute_full", spy)
        single = connect(figure3_database(), options=ordered)
        result = session.run("Q4", collection=collection, trace=True)
        spans = _shard_spans(result.trace)
        assert spans and all([c.name for c in s.children] == ["stitch"] for s in spans)
        expected = single.run(NESTED_QUERIES["Q4"], collection=collection).value
        if collection == "list":
            assert result.route == "fallback"
            assert result.value == expected
        else:
            assert_bag_equal(result.value, expected)
        assert asked and set(asked) == {"shredded"}


# --------------------------------------------------------------------------
# Bag laws across fan-out and merge, against the one oracle.


def _staff(d, **fields):
    return b.record(
        staff=b.for_(
            "e",
            b.table("employees"),
            lambda e: b.where(b.eq(e["dept"], d["name"]), b.ret(e["name"])),
        ),
        **fields,
    )


#: Every department with its own staff and — uncorrelated — everybody:
#: a replicated table nested whole under each row of a sharded parent.
EVERYBODY = b.for_(
    "d",
    b.table("departments"),
    lambda d: b.ret(
        _staff(
            d,
            dept=d["name"],
            everybody=b.for_("x", b.table("employees"), lambda x: b.ret(x["name"])),
        )
    ),
)

#: Outer records that say nothing of their key: equal as values whenever
#: two departments have the same staff.
ANONYMOUS = b.for_("d", b.table("departments"), lambda d: b.ret(_staff(d, tag=b.const("x"))))


def _names_on_distinct_shards(shards: int, count: int) -> list[str]:
    """``count`` fresh department names no two of which share a shard."""
    names: dict[int, str] = {}
    serial = 0
    while len(names) < count:
        name = f"Ghost{serial}"
        names.setdefault(shard_for(name, shards), name)
        serial += 1
    return list(names.values())


class TestBagLaws:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_replicated_table_is_not_multiplied_by_the_shard_count(
        self, sharded_session, shards
    ):
        session = sharded_session(shards)
        result = session.run(EVERYBODY)
        assert result.route == "fanout"
        everyone = len(session.db.full.rows("employees"))
        assert [len(row["everybody"]) for row in result.value] == [everyone] * len(
            session.db.full.rows("departments")
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("placement", ["replicated", "co-partitioned"])
    def test_empty_inner_bags_survive(self, sharded_session, placement, shards):
        """Departments nobody works in, each on a shard of its own: under
        co-partitioning those shards own no employee row for the key (and
        with 4 shards some own no row at all)."""
        session = sharded_session(
            shards,
            placement=CO_PARTITIONED if placement == "co-partitioned" else None,
        )
        ghosts = _names_on_distinct_shards(shards, 2)
        session.insert(
            "departments",
            [{"id": 100 + i, "name": name} for i, name in enumerate(ghosts)],
        )
        result = session.run("Q4")
        assert result.route == "fanout"
        by_dept = {row["dept"]: row["employees"] for row in result.value}
        assert [by_dept[name] for name in ghosts] == [[], []]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_duplicate_outer_records_under_distinct_keys(
        self, sharded_session, shards
    ):
        session = sharded_session(shards)
        # A second "Sales" row (same name, another key) and two staffless
        # departments: Q4 now has duplicate outer records on one shard,
        # ANONYMOUS has them across shards.
        ghosts = _names_on_distinct_shards(shards, 2)
        session.insert(
            "departments",
            [{"id": 50, "name": "Sales"}]
            + [{"id": 100 + i, "name": name} for i, name in enumerate(ghosts)],
        )
        q4 = session.run("Q4").value
        sales = [row for row in q4 if row["dept"] == "Sales"]
        assert len(sales) == 2 and sales[0] == sales[1] and sales[0]["employees"]
        anonymous = session.run(ANONYMOUS)
        assert anonymous.route == "fanout"
        # (Fig. 3's Quality is staffless too.)
        assert anonymous.value.count({"tag": "x", "staff": []}) == 3

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_set_semantics_dedups_once_after_the_union(self, sharded_session, shards):
        """δ(⊎ᵢ Qᵢ) — not ⊎ᵢ δ(Qᵢ): two equal records from different
        shards are one element of the set."""
        session = sharded_session(shards)
        ghosts = _names_on_distinct_shards(shards, 2)
        session.insert(
            "departments",
            [{"id": 100 + i, "name": name} for i, name in enumerate(ghosts)],
        )
        bag = session.run(ANONYMOUS).value
        as_set = session.run(ANONYMOUS, collection="set")
        assert as_set.route == "fanout"
        assert bag.count({"tag": "x", "staff": []}) == 3  # Quality + the two
        assert as_set.value.count({"tag": "x", "staff": []}) == 1

    def test_delta_does_not_commute_with_the_comprehension(self):
        """*Mixing set and bag semantics*' side-condition, as its
        counter-example: δ(for x ← R return f x) ≠ for x ← δ(R) return f x
        unless f is injective.  Two employees of one department share a
        name; the base rows are distinct (by key), so δ below the
        comprehension removes nothing and the projection still repeats
        the name — only δ on top, where the coordinator applies it,
        yields the set."""
        db = figure3_database()
        db.insert(
            "employees",
            [{"id": 90, "dept": "Sales", "name": "Erik", "salary": 1}],
        )
        names = b.for_(
            "e",
            b.table("employees"),
            lambda e: b.where(b.eq(e["dept"], b.const("Sales")), b.ret(e["name"])),
        )
        on_top = dedup_nested(evaluate(names, db))
        below = Database(
            ORGANISATION_SCHEMA,
            {t.name: dedup_nested(db.rows(t.name)) for t in ORGANISATION_SCHEMA.tables},
        )
        pushed = evaluate(names, below)
        assert pushed.count("Erik") == 2 and on_top.count("Erik") == 1
        assert not bag_equal(on_top, pushed)


# --------------------------------------------------------------------------
# Who does the work.


def _count_folds(monkeypatch) -> list:
    """Every build-or-fetch of a statement's fold (one per statement per
    walk of :func:`~repro.backend.executor.fold_package`)."""
    calls: list = []
    original = CompiledSql.fold

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CompiledSql, "fold", counted)
    return calls


class TestWhoDoesTheWork:
    def test_an_endpoint_folds_nothing_and_fetches_one_row_per_statement(
        self, monkeypatch
    ):
        session = connect(figure3_database())
        core = ServerCore(session, paper_registry(), shard_label="0/1")
        core.handle({"op": "execute", "query": "Q1"})  # compiled, indexes advised
        folds = _count_folds(monkeypatch)
        reads: list = []  # one cursor per statement, its one row fetched
        execute = session.db.execute_cursor

        def counting(*args, **kwargs):
            reads.append(execute(*args, **kwargs))
            return reads[-1]

        monkeypatch.setattr(session.db, "execute_cursor", counting)
        response = core.handle({"op": "execute", "query": "Q1", "result": "shredded"})
        statements = core.handle({"op": "prepare", "query": "Q1"})["statements"]
        assert folds == []
        assert len(reads) == statements == len(response["shredded"]) == 4
        assert all(
            isinstance(count, int) and isinstance(blob, bytes)
            for count, blob in response["shredded"]
        )
        assert "rows" not in response
        assert response["stats"]["queries"] == statements
        assert response["stats"]["rows_fetched"] == sum(n for n, _b in response["shredded"])
        # The nested answer fetched the same rows, one tuple each.
        nested = core.handle({"op": "execute", "query": "Q1"})
        assert nested["stats"]["rows_fetched"] == response["stats"]["rows_fetched"]
        assert len(folds) == statements
        # The per-path engine (an in-process run's choice) reads the same
        # tables: one fetched row each.
        reads.clear()
        per_path = session.run(NESTED_QUERIES["Q1"], engine="per-path")
        assert len(reads) == statements
        assert per_path.stats.rows_fetched == response["stats"]["rows_fetched"]
        assert len(folds) == statements

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_the_coordinator_folds_each_statement_once_per_shard_response(
        self, monkeypatch, shards
    ):
        session = connect_sharded(
            figure3_database(),
            placement=organisation_placement(),
            shards=shards,
            registry=paper_registry(),
        )
        with session:
            session.run("Q1")  # every endpoint compiled
            folds = _count_folds(monkeypatch)
            result = session.run("Q1")
            assert result.route == "fanout"
            statements = [
                member
                for _p, member in annotations(
                    session.client._compiled_for("Q1").sql_package
                )
            ]
            # A table with no rows is not folded: each statement at most
            # once per shard response, every one by some shard.
            per_statement = Counter(map(id, folds))
            assert set(per_statement) == set(map(id, statements))
            assert max(per_statement.values()) <= shards
            fanned = len(folds)
            routed = session.run("dept_staff", params={"dept": "Sales"})
            assert routed.route.startswith("routed:")
            assert len(folds) == fanned + 2

    def test_a_cold_coordinator_shared_by_threads_stitches_right(self):
        """The coordinator's compile memo is shared by every caller of a
        local session: six threads race its first fill (switching every
        few bytecodes) and each must still get the oracle's answer."""
        import sys

        expected = _oracle(NESTED_QUERIES["Q6"], figure3_database())
        answers: list = []
        barrier = threading.Barrier(6)

        def worker() -> None:
            barrier.wait(timeout=30)
            for _ in range(4):
                answers.append(session.run("Q6").value)

        with connect_sharded(
            figure3_database(),
            placement=organisation_placement(),
            shards=3,
            registry=paper_registry(),
        ) as session:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 24
        assert all(bag_equal(answer, expected) for answer in answers)

    def test_one_plan_cache_consult_per_execute(self):
        session = connect(figure3_database())
        core = ServerCore(session, paper_registry())
        request = {"op": "execute", "query": "Q6", "result": "shredded"}
        core.handle(request)
        before = session.stats_snapshot()
        core.handle(request)
        after = session.stats_snapshot()
        assert after["cache_hits"] - before["cache_hits"] == 1
        assert after["cache_misses"] == before["cache_misses"]

    def test_plain_execute_is_untouched(self):
        """No ``result`` in the request a client frames, no ``shredded`` /
        ``plan`` in the answer — the v1.4 bytes."""
        client = ServiceClient("127.0.0.1", 1, connect_now=False)
        client._begin({"op": "execute", "query": "Q4"} | {}, None, True)
        assert split_frame(client._frame[4:]) == {"op": "execute", "query": "Q4", "id": 1}
        core = ServerCore(connect(figure3_database()), paper_registry())
        response = core.handle({"op": "execute", "query": "Q4"})
        assert list(response) == ["ok", "query", "rows", "engine", "server_millis", "stats"]
        assert PROTOCOL_VERSION == "1.6"

    def test_a_bad_result_field_is_rejected(self):
        core = ServerCore(connect(figure3_database()), paper_registry())
        with pytest.raises(ServiceError, match="'result' must be"):
            core.handle({"op": "execute", "query": "Q4", "result": "columnar"})


# --------------------------------------------------------------------------
# Cell fidelity: the column table of a statement is its fetchall().

_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1]
_HOSTILE = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ['"', "\\", '\\"', "a\x00b", "\x00", "\x01\x1f\x7f", "\U0001f600", " ", "'", "[1,2]", "null", ""]
    ),
)
_INTS = st.one_of(st.sampled_from(_EDGES), st.integers(-(2**63), 2**63 - 1))


@st.composite
def _hostile_organisations(draw):
    pool = draw(st.lists(_HOSTILE, min_size=1, max_size=3, unique=True))
    name = st.sampled_from(pool)
    ids = draw(st.lists(_INTS, min_size=12, max_size=12, unique=True))
    sizes = [draw(st.integers(0, 3)) for _ in range(4)]
    take = iter(ids)
    return Database(
        ORGANISATION_SCHEMA,
        {
            "departments": [
                {"id": next(take), "name": draw(name)} for _ in range(sizes[0])
            ],
            "employees": [
                {"id": next(take), "dept": draw(name), "name": draw(name), "salary": draw(_INTS)}
                for _ in range(sizes[1])
            ],
            "tasks": [
                {"id": next(take), "employee": draw(name), "task": draw(_HOSTILE)}
                for _ in range(sizes[2])
            ],
            "contacts": [
                {"id": next(take), "dept": draw(name), "name": draw(_HOSTILE), "client": draw(st.booleans())}
                for _ in range(sizes[3])
            ],
        },
    )


#: Q1 projects every base type (contacts.client is the Bool); the
#: asymmetric union pads its narrower branch's keys with NULLs (§6.1).
_FIDELITY_QUERIES = {"Q1": NESTED_QUERIES["Q1"], "padded-union": asymmetric_union_query()}


class TestCellFidelity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(db=_hostile_organisations())
    def test_column_tables_equal_fetchall_cell_for_cell(self, db):
        for plan, options in PLANS.items():
            session = connect(db, options=options)
            for name, term in _FIDELITY_QUERIES.items():
                compiled = session.compile(term)
                for path, statement in annotations(compiled.sql_package):
                    rows = db.execute_sql(statement.sql)
                    ((count, blob),) = db.execute_sql(statement.column_table_sql)
                    assert isinstance(blob, bytes)
                    columns = json.loads(blob)
                    assert count == len(rows)
                    assert len(columns) == len(statement.columns)
                    assert [tuple(row) for row in zip(*columns)] == rows, (name, plan, path)
                # …so the stitched value is the engine's, as a list.
                tables = compiled.run(db, engine="batched", shredded=True)
                stitched = compiled.fold_tables(tables)
                assert stitched == compiled.run(db, engine="batched")
                assert bag_equal(stitched, compiled.run(db, engine="per-path"))

    def test_the_padded_union_really_pads(self):
        compiled = connect(figure3_database()).compile(asymmetric_union_query())
        people = dict(
            (str(path), statement) for path, statement in annotations(compiled.sql_package)
        )["↓.people"]
        ((_count, blob),) = figure3_database().execute_sql(people.column_table_sql)
        assert any(None in column for column in json.loads(blob))

    def test_every_statement_projects_a_column(self):
        """What lets a table go without its own row list: even a
        statement whose every column is constant keeps one ("a SELECT
        needs an item"), so ``zip(*columns)`` always has the rows."""
        term = b.ret(
            b.record(
                one=b.const(1),
                names=b.for_("d", b.table("departments"), lambda d: b.ret(d["name"])),
            )
        )
        with connect_sharded(
            figure3_database(), placement=organisation_placement(), shards=2
        ) as session:
            for options in PLANS.values():
                compiled = connect(figure3_database(), options=options).compile(term)
                assert all(s.columns for _p, s in annotations(compiled.sql_package))
            result = session.run(term)
            assert result.value == [{"one": 1, "names": result.value[0]["names"]}]
            assert_bag_equal(result.value, evaluate(term, figure3_database()))


# --------------------------------------------------------------------------
# Hostile frames, through an endpoint that lies.


def _off_a_frame(response: dict) -> dict:
    """``response`` as a wire client would hold it: through a frame."""
    return split_frame(pack_frame(response)[4:])


@pytest.fixture
def lying(monkeypatch):
    """``lying(tamper)`` → a 2-shard local session whose shard owning
    "Sales" answers ``dept_staff`` with ``tamper(decoded response)``, and
    the list of folds anybody built meanwhile."""
    made = []

    def make(tamper):
        session = connect_sharded(
            figure3_database(),
            placement=organisation_placement(),
            shards=2,
            registry=paper_registry(),
        )
        made.append(session)
        session.run("dept_staff", params={"dept": "Sales"})
        (endpoint,) = session.client._groups[shard_for("Sales", 2)]
        honest = endpoint.execute_full

        def lie(*args, **kwargs):
            return tamper(_off_a_frame(honest(*args, **kwargs)))

        monkeypatch.setattr(endpoint, "execute_full", lie)
        return session, _count_folds(monkeypatch)

    yield make
    for session in made:
        session.close()


def _drop_a_table(response):
    response["shredded"].pop()
    return response


def _drop_a_column(response):
    response["shredded"][0]["c"].pop()
    return response


def _ragged(response):
    response["shredded"][1]["c"][0].pop()
    return response


def _miscount(response):
    response["shredded"][1]["n"] += 1
    return response


def _wrong_plan(response):
    response["plan"] = "0123456789abcdef"
    return response


def _string_column(response):
    table = response["shredded"][1]
    table["c"][0] = "x" * table["n"]  # as long as a column, not a list
    return response


def _not_tables(response):
    response["shredded"] = {"n": 1, "c": []}
    return response


def _counted_as(count):
    """Table 1 cut to one row and counted as ``count`` — a value that is
    ``== 1`` but not an int, so only the type check can refuse it."""

    def tamper(response):
        table = response["shredded"][1]
        table["n"], table["c"] = count, [column[:1] for column in table["c"]]
        return response

    return tamper


class TestHostileFrames:
    @pytest.mark.parametrize(
        "tamper, complaint",
        [
            (_drop_a_table, "expected 2 tables"),
            (_drop_a_column, "table 0 has not the"),
            (_ragged, "table 1 has a column that is not"),
            (_miscount, "table 1 has a column that is not"),
            (_wrong_plan, "plan '0123456789abcdef' ≠ the coordinator's"),
            (_string_column, "table 1 has a column that is not"),
            (_not_tables, "expected 2 tables"),
            (_counted_as(True), "table 1 has a row count True that is not an int"),
            (_counted_as(1.0), "table 1 has a row count 1.0 that is not an int"),
        ],
    )
    def test_tables_that_do_not_fit_the_plan_never_reach_a_fold(
        self, lying, tamper, complaint
    ):
        session, folds = lying(tamper)
        with pytest.raises(ShardingError, match=complaint) as refused:
            session.run("dept_staff", params={"dept": "Sales"})
        assert f"shard {shard_for('Sales', 2)}/2" in str(refused.value)
        assert folds == []
        # Deterministic, so not a failover: nothing ran on the fallback.
        assert session.run_counts()["fallback"] == 0

    def test_honest_tables_off_a_frame_are_stitched(self, lying):
        session, folds = lying(lambda response: response)
        result = session.run("dept_staff", params={"dept": "Sales"})
        assert len(folds) == 2
        assert_bag_equal(
            result.value,
            _oracle(REGISTRY.lookup("dept_staff").term, figure3_database(), {"dept": "Sales"}),
        )

    def test_a_rows_answer_is_refused_naming_the_plan(self, lying):
        """An endpoint that answers nested ``rows`` has sent nothing the
        coordinator can check against its plan: refused, never merged."""
        core = ServerCore(connect(figure3_database()), paper_registry())

        def nested(_response):
            return _off_a_frame(
                core.handle(
                    {"op": "execute", "query": "dept_staff", "params": {"dept": "Sales"}}
                )
            )

        session, folds = lying(nested)
        plan = session.client._compiled_for("dept_staff").plan_fingerprint
        refusal = f"with rows, not the column tables of plan '{plan}'"
        with pytest.raises(ShardingError, match=refusal) as refused:
            session.run("dept_staff", params={"dept": "Sales"})
        assert f"shard {shard_for('Sales', 2)}/2" in str(refused.value)
        assert len(folds) == 2  # the planted endpoint's own, nothing here
        assert session.run_counts()["fallback"] == 0

    def test_an_oversize_spliced_frame_gets_a_structured_error(self, monkeypatch):
        handle = serve_in_background(connect(figure3_database()), paper_registry())
        try:
            with ServiceClient(handle.host, handle.port) as client:
                whole = client.execute_full("Q1", result="shredded")
                assert whole["shredded"] and "rows" not in whole
                monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 600)
                with pytest.raises(ServiceError, match="exceeds the 600-byte limit"):
                    client.execute_full("Q1", result="shredded")
                # Answered in-frame: the connection is still in step.
                assert client.ping()["pong"]
                assert client.stats()["server"]["errors"] == 1
        finally:
            handle.stop()

    def test_the_spliced_frame_is_one_json_document(self):
        core = ServerCore(connect(figure3_database()), paper_registry())
        response = core.handle(
            {"op": "execute", "query": "Q6", "result": "shredded", "id": 7, "trace_id": "t"}
        )
        decoded = _off_a_frame(response)
        assert decoded["trace_id"] == "t" and decoded["plan"] == response["plan"]
        assert [table["n"] for table in decoded["shredded"]] == [
            count for count, _blob in response["shredded"]
        ]
        assert [table["c"] for table in decoded["shredded"]] == [
            json.loads(blob) for _count, blob in response["shredded"]
        ]
        assert list(decoded)[-1] == "shredded"


# --------------------------------------------------------------------------
# Fail early; frame on the loop; the stitch span.


class TestPrepareFailsEarly:
    def test_other_options_fail_at_prepare_with_both_fingerprints(self, sharded_session):
        flat = sharded_session(2, options=SqlOptions(scheme="flat"))
        assert flat.client.prepare("Q4")["plan"]  # options agree: fine
        client = ShardedServiceClient(  # …a coordinator on default options
            [group[0] for group in flat.client._groups],
            flat.client._fallback,
            placement=flat.client.placement,
            registry=flat.client.registry,
            schema=flat.client.schema,
        )
        try:
            theirs = flat.client._compiled_for("Q4").plan_fingerprint
            own = client._compiled_for("Q4").plan_fingerprint
            assert theirs != own
            with pytest.raises(ShardingError) as refused:
                client.prepare("Q4")
            message = str(refused.value)
            assert theirs in message and own in message and "endpoint 0/2" in message
            # The backstop: an execute that skipped prepare is refused
            # too — never folded with the wrong plan.
            with pytest.raises(ShardingError, match="do not fit the coordinator's plan"):
                client.execute("Q4")
        finally:
            client._pool.shutdown()


class TestFramedOnTheLoop:
    def test_only_nested_rows_take_the_thread_hop(self, monkeypatch):
        from repro.data.generator import scaled_database
        from repro.service import server as server_module

        packers: list = []

        def recording(payload):
            for shape in ("shredded", "rows"):
                if shape in payload:
                    packers.append((threading.current_thread(), shape))
            return pack_frame(payload)

        monkeypatch.setattr(server_module, "pack_frame", recording)
        handle = serve_in_background(
            connect(scaled_database(8, seed=0, scale_rows=20)), paper_registry()
        )
        try:
            with ServiceClient(handle.host, handle.port) as client:
                shredded = client.execute_full("Q1", result="shredded")
                nested = client.execute_full("Q1")
            assert shredded["stats"]["rows_fetched"] > server_module.LIGHT_ROWS
            assert shredded["stats"] | {"millis": 0} == nested["stats"] | {"millis": 0}
            (on_loop,) = [thread for thread, shape in packers if shape == "shredded"]
            (hopped,) = [thread for thread, shape in packers if shape == "rows"]
            assert on_loop is handle._thread
            assert hopped is not handle._thread
        finally:
            handle.stop()


class TestStitchSpan:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stitch_is_a_child_of_its_shard_span(self, sharded_session, shards):
        session = sharded_session(shards, shared=True)
        result = session.run("Q1", trace=True)
        spans = _shard_spans(result.trace)
        # bench/sharded.py reads every child of `route` as a shard span.
        assert [span.name for span in spans] == ["shard"] * shards
        assert all("server_millis" in span.attributes for span in spans)
        stitches = [span.children for span in spans]
        assert all([child.name for child in kids] == ["stitch"] for kids in stitches)
        assert all(kids[0].attributes["tables"] == 4 for kids in stitches)
        assert sum(kids[0].attributes["rows"] for kids in stitches) == result.stats.rows_fetched
        assert all(
            0 <= kids[0].duration_ms <= span.duration_ms
            for span, kids in zip(spans, stitches)
        )

    def test_repro_trace_shows_it(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "Q4"]) == 0
        out = capsys.readouterr().out
        assert "- route " in out and "  - shard " in out
        assert "    - stitch " in out and "tables=2" in out
