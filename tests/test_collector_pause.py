"""The cycle collector sits out the build of a tree.

A fold builds records, lists and base values, each child bucket handed to
exactly one parent, so a cyclic collection in the middle of one can free
nothing it made.  :func:`repro.backend.executor.collector_paused` holds the
collector off for every walk of :func:`~repro.backend.executor.fold_package`
— in process and at a fan-out coordinator — behind one process-wide,
reentrant guard.  Pinned here: the premise (a run leaves no cyclic
garbage), the guard's bookkeeping under threads, exceptions and a caller
that turned the collector off itself, the deferred young collection paid
on the way out, and its ``collect`` span.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.api import connect, connect_sharded
from repro.backend import executor
from repro.backend.executor import collector_paused, fold_package
from repro.data.generator import scaled_database
from repro.data.organisation import figure3_database, organisation_placement
from repro.data.queries import NESTED_QUERIES
from repro.nrc.semantics import evaluate
from repro.obs import Tracer
from repro.service.registry import paper_registry
from repro.sql.codegen import SqlOptions
from repro.values import bag_equal

REGISTRY = paper_registry()
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 900}}
PLANS = {"natural": SqlOptions(), "flat": SqlOptions(scheme="flat")}


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, restoring it after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_a_run_builds_no_cycles(plan):
    """The premise: with the collector off, a warm run of every registry
    query leaves nothing for ``gc.collect()`` to find — the fold's tree,
    and everything around it, is freed by reference counting alone."""
    session = connect(figure3_database(), options=PLANS[plan])
    for name in REGISTRY.names():
        prepared = session.prepare(REGISTRY.lookup(name).term)
        prepared.run(params=PARAMS.get(name))  # compile, advise, ANALYZE
        gc.collect()
        with collector(enabled=False):
            result = prepared.run(params=PARAMS.get(name))
            assert result.value is not None
            del result
            assert gc.collect() == 0, name


def test_the_guard_counts_and_restores():
    assert gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit is not the last one out
    assert gc.isenabled() and executor._pause_depth == 0
    with collector(enabled=False):
        with collector_paused():
            pass
        assert not gc.isenabled()  # a caller that had it off keeps it off
    assert gc.isenabled()


def test_an_exception_inside_a_fold_restores_the_state():
    compiled = connect(figure3_database()).compile(NESTED_QUERIES["Q1"])

    def failing(statement):
        assert not gc.isenabled()
        raise RuntimeError("store went away mid-walk")

    for enabled in (True, False):
        with collector(enabled):
            with pytest.raises(RuntimeError, match="mid-walk"):
                fold_package(compiled.sql_package, failing)
            assert gc.isenabled() is enabled
            assert executor._pause_depth == 0


def test_the_deferred_young_collection_is_paid_on_the_way_out():
    """(c): right after the guard lets go, the young generation is within
    its threshold — the pause's backlog was collected there, inside the
    run, and a traced run says so with a ``collect`` span."""
    threshold = gc.get_threshold()[0]
    tracer = Tracer()
    kept = []
    with tracer.span("execute"):
        with collector_paused(tracer):
            kept.extend([] for _ in range(3 * threshold))
        count = gc.get_count()[0]
    assert count <= threshold
    (collect,) = tracer.spans[0].children
    assert collect.name == "collect" and collect.attributes == {"generation": 0}
    # A real run over enough rows: past the threshold at resume, so the
    # span sits under ``execute``; afterwards the count is in bounds.
    session = connect(scaled_database(16, 0, 100))
    session.run(NESTED_QUERIES["Q1"])
    result = session.run(NESTED_QUERIES["Q1"], trace=True)
    assert gc.get_count()[0] <= gc.get_threshold()[0]
    (query,) = result.trace.spans
    (execute,) = [span for span in query.children if span.name == "execute"]
    collects = [span for span in execute.children if span.name == "collect"]
    assert len(collects) == 1 and collects[0].attributes["generation"] == 0


def test_repro_trace_shows_the_collect_span(capsys):
    """``python -m repro trace Q1`` prints the span whenever the resume
    collected — made certain here by a young threshold of 1."""
    from repro.__main__ import main

    before = gc.get_threshold()
    gc.set_threshold(1, 10_000, 10_000)
    try:
        assert main(["trace", "Q1"]) == 0
    finally:
        gc.set_threshold(*before)
    out = capsys.readouterr().out
    assert "- collect" in out and "generation=0" in out


def test_threads_and_coordinator_workers_share_one_guard():
    """(b): more threads than cores, switching every few bytecodes, each
    alternating in-process runs with a 2-shard fan-out whose two
    coordinator workers fold at once — every answer right, the collector
    back on afterwards; then the same with the caller's collector off,
    which stays off."""
    threads = 2 * (os.cpu_count() or 2) + 2
    queries = ("Q1", "Q6")
    expected = {name: evaluate(NESTED_QUERIES[name], figure3_database()) for name in queries}
    session = connect(figure3_database())
    for name in queries:
        session.run(NESTED_QUERIES[name])  # advised and analysed up front
    failures: list = []

    def worker(sharded, slot: int) -> None:
        try:
            for i in range(4):
                name = queries[(slot + i) % 2]
                local = session.run(NESTED_QUERIES[name]).value
                fanned = sharded.run(name)
                assert fanned.route == "fanout"
                if not (bag_equal(local, expected[name]) and bag_equal(fanned.value, expected[name])):
                    failures.append((slot, name))
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(repr(error))

    def hammer() -> None:
        with connect_sharded(
            figure3_database(),
            placement=organisation_placement(),
            shards=2,
            registry=paper_registry(),
        ) as sharded:
            sharded.run("Q1")
            pool = [threading.Thread(target=worker, args=(sharded, s)) for s in range(threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in pool)
        assert not failures, failures
        assert executor._pause_depth == 0

    hammer()
    assert gc.isenabled()
    with collector(enabled=False):
        hammer()
        assert not gc.isenabled()
    assert gc.isenabled()
