"""Sharing one Session across threads: the service-layer contract.

The hammer tests drive a single session (and its plan cache) from many
threads at once and then check the *exact* bookkeeping — lost updates in
the session's registry or the cache counters would show up as short counts.
"""

from __future__ import annotations

import threading


from repro.api import connect, param
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.pipeline.plan_cache import PlanCache
from repro.values import bag_equal

THREADS = 8
RUNS_PER_THREAD = 12
QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


def _hammer(worker, thread_count: int = THREADS) -> list:
    failures: list = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except Exception as error:  # noqa: BLE001 — collect, don't die
            failures.append((index, repr(error)))

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(thread_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return failures


class TestConcurrentSession:
    def test_stats_accumulation_is_exact(self):
        session = connect(figure3_database(), cache=PlanCache())
        expected = {
            name: session.run(NESTED_QUERIES[name]).value for name in QUERY_NAMES
        }
        per_run_queries = {
            name: session.prepare(NESTED_QUERIES[name]).query_count
            for name in QUERY_NAMES
        }
        before = session.stats_snapshot()
        runs: list = []

        def worker(index: int) -> None:
            for i in range(RUNS_PER_THREAD):
                name = QUERY_NAMES[(index + i) % len(QUERY_NAMES)]
                result = session.prepare(NESTED_QUERIES[name]).run(
                    engine="batched"
                )
                assert bag_equal(result.value, expected[name]), name
                runs.append(result)

        failures = _hammer(worker)
        assert not failures, failures

        total_runs = THREADS * RUNS_PER_THREAD
        ran_queries = sum(
            per_run_queries[QUERY_NAMES[(index + i) % len(QUERY_NAMES)]]
            for index in range(THREADS)
            for i in range(RUNS_PER_THREAD)
        )
        after = session.stats_snapshot()
        # No lost updates: every run's flat-query count landed exactly once.
        assert sum(r.stats.queries for r in runs) == ran_queries
        assert after["queries"] - before["queries"] == ran_queries
        assert after["rows_fetched"] - before["rows_fetched"] == sum(
            r.stats.rows_fetched for r in runs
        )
        # Every prepare consulted the cache exactly once; the shapes were
        # all compiled before the hammer, so every consult was a hit.
        assert after["cache_hits"] - before["cache_hits"] == total_runs
        assert after["cache_misses"] == before["cache_misses"]

    def test_plan_cache_counters_are_exact_under_contention(self):
        cache = PlanCache()
        session = connect(figure3_database(), cache=cache)
        term = NESTED_QUERIES["Q4"]

        def worker(index: int) -> None:
            for _ in range(RUNS_PER_THREAD):
                session.prepare(term).run(engine="batched")

        failures = _hammer(worker)
        assert not failures, failures
        total = THREADS * RUNS_PER_THREAD
        stats = cache.stats()
        # Every prepare consulted the cache; at least one miss compiled the
        # plan (two threads may race the first cold compile — both then
        # store the same plan, which is benign), and hits+misses is exact.
        assert stats["hits"] + stats["misses"] == total
        assert 1 <= stats["misses"] <= THREADS
        assert stats["entries"] == 1

    def test_parameterised_rebinding_under_contention(self):
        session = connect(figure3_database(), cache=PlanCache())
        lo = param("lo", "int")
        shape = (
            session.table("employees", alias="e")
            .where(lambda e: e.salary > lo)
            .select("name", "salary")
        )
        term = shape.term()
        thresholds = [0, 900, 20000, 50000, 60000, 100000]
        expected = {
            t: {
                row["name"]
                for row in session.db.rows("employees")
                if row["salary"] > t
            }
            for t in thresholds
        }

        def worker(index: int) -> None:
            for i in range(RUNS_PER_THREAD):
                threshold = thresholds[(index + i) % len(thresholds)]
                rows = session.prepare(term).run(params={"lo": threshold})
                names = {row["name"] for row in rows}
                assert names == expected[threshold], threshold

        failures = _hammer(worker)
        assert not failures, failures
        # One shape → at most a handful of raced cold compiles, then hits.
        totals = session.stats_snapshot()
        assert totals["cache_misses"] <= THREADS
        assert totals["cache_hits"] >= THREADS * RUNS_PER_THREAD - THREADS


class TestConcurrentDatabaseSetup:
    def test_index_advisement_races_cleanly(self):
        # Fresh database: every thread triggers ensure_index/ANALYZE on
        # first run; the setup lock must serialise the DDL without
        # deadlocking or double-creating.
        session = connect(figure3_database(), cache=PlanCache())
        expected = session.run(NESTED_QUERIES["Q6"]).value
        fresh = connect(figure3_database(), cache=PlanCache())

        def worker(index: int) -> None:
            result = fresh.prepare(NESTED_QUERIES["Q6"]).run(engine="batched")
            assert bag_equal(result.value, expected)

        failures = _hammer(worker)
        assert not failures, failures

    def test_batched_reads_finish_before_another_threads_ddl(self):
        """Stress regression: batched and per-path runs share the store's
        writer connection, and every cold plan's first batched run issues
        advisory ``CREATE INDEX``/``ANALYZE`` there.  A read that stayed
        open across Python-side work on a fetched chunk could be cut short
        by another thread's DDL ("abort due to ROLLBACK", "not an error",
        or a silently short answer); every engine reads each statement as
        one column table, in one fetch, which closes the read before any
        Python runs.  A fresh Fig. 3 store per repetition (so each one
        advises afresh), 8 threads — odd slots per-path, even slots
        batched — switching every few bytecodes, bounded to a few
        seconds."""
        import sys
        import time

        expected = {
            name: connect(figure3_database()).run(NESTED_QUERIES[name]).value
            for name in QUERY_NAMES
        }
        failures: list = []
        started = time.monotonic()
        stop, hard_stop = started + 6.0, started + 9.5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _repetition in range(40):
                if time.monotonic() > stop:
                    break
                session = connect(figure3_database(), cache=PlanCache())
                barrier = threading.Barrier(THREADS)

                def worker(slot: int) -> None:
                    engine = "per-path" if slot % 2 else "batched"
                    try:
                        barrier.wait(timeout=10)
                        for i in range(3):
                            name = QUERY_NAMES[(slot + i) % len(QUERY_NAMES)]
                            value = session.run(NESTED_QUERIES[name], engine=engine).value
                            if not bag_equal(value, expected[name]):
                                failures.append((slot, engine, name, "wrong answer"))
                    except Exception as error:  # noqa: BLE001 — reported below
                        failures.append((slot, engine, repr(error)))

                threads = [threading.Thread(target=worker, args=(s,)) for s in range(THREADS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=max(0.0, hard_stop - time.monotonic()))
                assert not any(thread.is_alive() for thread in threads)
                session.close()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]


class TestConcurrentLowering:
    def test_a_lowering_in_progress_does_not_leak_into_another_thread(self):
        """Regression: the fluent builder's active lowering scope was one
        module-level stack, so a query lowered while another thread was
        inside a ``where`` callback drew its variable names from *that*
        thread's scope (and popped it)."""
        session = connect(figure3_database())
        inside, release = threading.Event(), threading.Event()

        def blocking_predicate(row):
            inside.set()
            assert release.wait(timeout=30)
            return row.salary > 1000

        def plain():
            return session.table("employees", alias="e").select("name").term()

        alone = plain()
        slow = session.table("employees", alias="e").where(blocking_predicate)
        lowering = threading.Thread(target=slow.term)
        lowering.start()
        try:
            assert inside.wait(timeout=30)
            assert plain() == alone
        finally:
            release.set()
            lowering.join(timeout=30)
        assert not lowering.is_alive()
