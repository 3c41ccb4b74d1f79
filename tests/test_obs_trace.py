"""Trace spans across the compile/execute pipeline.

The tentpole acceptance claim: a traced Q1–Q6 run produces one nested
span tree per query — compile stages on a cold compile, per-rule
optimizer timings, one ``statement`` span per flat query with ``sql``
vs ``decode`` split, ``stitch`` — and the stage spans **sum to within
the recorded total wall time** (children never exceed their parent).

Plus the tracer's own contract: clock-injectable exact durations,
deterministic post-hoc recording (the parallel engine attaches worker
measurements in package order after joining), JSON export, rendering.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.obs import Span, Tracer, render_trace
from repro.pipeline.plan_cache import PlanCache

QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


class FakeClock:
    """A settable seconds clock for exact-duration assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestTracerContract:
    def test_spans_nest_and_stamp_exact_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, trace_id="t1")
        with tracer.span("outer") as outer:
            clock.advance(0.010)
            with tracer.span("inner", step=1) as inner:
                clock.advance(0.005)
            clock.advance(0.001)
        assert tracer.root is outer
        assert outer.duration_ms == pytest.approx(16.0)
        assert inner.duration_ms == pytest.approx(5.0)
        assert outer.children == [inner]
        assert inner.start_ms == pytest.approx(10.0)
        assert inner.attributes == {"step": 1}
        assert tracer.current() is None

    def test_post_hoc_record_attaches_at_current_position(self):
        tracer = Tracer(trace_id="t2")
        with tracer.span("execute"):
            first = tracer.record("statement", 1.5, index=0)
            first.record("sql", 1.25)
            first.record("decode", 0.25)
            tracer.record("statement", 2.0, index=1)
        (execute,) = tracer.spans
        assert [child.name for child in execute.children] == [
            "statement",
            "statement",
        ]
        assert execute.children[0].children[0].name == "sql"
        # Post-hoc spans carry no origin offset — only the duration is
        # meaningful once the measurement crossed a thread.
        assert execute.children[0].start_ms is None

    def test_record_outside_any_span_starts_a_root(self):
        tracer = Tracer(trace_id="t3")
        tracer.record("orphan", 4.0)
        assert [span.name for span in tracer.spans] == ["orphan"]

    def test_to_dict_round_trips_through_json(self):
        import json

        clock = FakeClock()
        tracer = Tracer(clock=clock, trace_id="deadbeef")
        with tracer.span("query", engine="batched"):
            clock.advance(0.0021234)
            tracer.record("statement", 1.06789, rows=5)
        payload = json.loads(json.dumps(tracer.to_dict()))
        assert payload["trace_id"] == "deadbeef"
        (root,) = payload["spans"]
        assert root["name"] == "query"
        assert root["duration_ms"] == 2.123  # rounded to 3 decimals
        assert root["attributes"] == {"engine": "batched"}
        assert root["children"][0]["attributes"] == {"rows": 5}
        assert "start_ms" not in root["children"][0]

    def test_render_is_an_indented_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, trace_id="cafe")
        with tracer.span("query"):
            with tracer.span("compile"):
                clock.advance(0.001)
        text = render_trace(tracer)
        lines = text.splitlines()
        assert lines[0] == "trace cafe"
        assert lines[1].startswith("- query")
        assert lines[2].startswith("  - compile  1.000ms")


class TestTracedPipeline:
    """The acceptance criterion, per paper query and per engine."""

    @pytest.fixture(scope="class")
    def db(self):
        return figure3_database()

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_stage_spans_sum_within_total(self, db, name):
        session = connect(db, cache=False)
        result = session.query(NESTED_QUERIES[name]).run(trace=True)
        root = result.trace.root
        assert root.name == "query"
        stages = [span.name for span in root.children]
        assert stages[0] == "compile"
        assert "execute" in stages
        assert stages[-1] == "stitch"
        # Children account for less wall time than their parent measured,
        # at every level of the tree.
        for span in _walk(root):
            if span.children:
                child_sum = sum(c.duration_ms for c in span.children)
                assert child_sum <= span.duration_ms + 1e-6, span.name

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_every_flat_query_gets_a_statement_span(self, db, name):
        session = connect(db, cache=False)
        prepared = session.query(NESTED_QUERIES[name])
        result = prepared.run(trace=True)
        root = result.trace.root
        (execute,) = [s for s in root.children if s.name == "execute"]
        statements = [c for c in execute.children if c.name == "statement"]
        assert len(statements) == prepared.query_count
        assert sum(
            span.attributes["rows"] for span in statements
        ) == result.stats.rows_fetched
        for span in statements:
            assert [c.name for c in span.children] == ["sql", "decode"]

    def test_compile_stages_on_cold_compile_only(self, db):
        session = connect(db, cache=PlanCache())
        cold = session.query(NESTED_QUERIES["Q6"]).run(trace=True)
        (compile_span,) = [
            s for s in cold.trace.root.children if s.name == "compile"
        ]
        names = [c.name for c in compile_span.children]
        assert names[0] == "normalise"
        assert names[1] == "shred"
        assert names.count("codegen") == 3  # one per shredded query
        assert compile_span.attributes["cached"] is False
        # A second prepared object hits the plan cache: no stage children.
        warm = session.query(NESTED_QUERIES["Q6"]).run(trace=True)
        (warm_compile,) = [
            s for s in warm.trace.root.children if s.name == "compile"
        ]
        assert warm_compile.attributes["cached"] is True
        assert warm_compile.children == []

    def test_optimizer_rules_traced_per_codegen(self, db):
        from repro.sql.codegen import SqlOptions

        session = connect(db, options=SqlOptions(optimize=True), cache=False)
        result = session.query(NESTED_QUERIES["Q6"]).run(trace=True)
        optimize_spans = [
            span
            for span in _walk(result.trace.root)
            if span.name == "optimize"
        ]
        assert optimize_spans  # one per codegen
        fired = {
            child.name
            for span in optimize_spans
            for child in span.children
            if child.attributes.get("fired")
        }
        # Compile-side rule counts land in the session's registry (the
        # run's stats only see execution); the traced fired set must match.
        family = session.metrics.get("rules_fired_total")
        assert fired == {key[0] for key, _child in family.children()}

    def test_parallel_engine_spans_in_package_order(self, db):
        session = connect(db, cache=False)
        result = session.query(NESTED_QUERIES["Q6"]).run(
            trace=True, engine="parallel"
        )
        (execute,) = [
            s for s in result.trace.root.children if s.name == "execute"
        ]
        assert execute.attributes["engine"] == "parallel"
        statements = [c for c in execute.children if c.name == "statement"]
        # Workers raced, but the coordinator attached in package order.
        assert [s.attributes["index"] for s in statements] == [0, 1, 2]

    def test_untraced_run_allocates_no_tracer(self, db):
        session = connect(db, cache=False)
        result = session.query(NESTED_QUERIES["Q1"]).run()
        assert result.trace is None

    def test_existing_tracer_accepted_and_id_kept(self, db):
        session = connect(db, cache=False)
        tracer = Tracer(trace_id="feedface")
        result = session.query(NESTED_QUERIES["Q2"]).run(trace=tracer)
        assert result.trace is tracer
        assert result.trace.trace_id == "feedface"


class TestExplainSurface:
    def test_explain_trace_appends_rendered_tree(self):
        session = connect(figure3_database(), cache=False)
        report = session.query(NESTED_QUERIES["Q3"]).explain(trace=True)
        assert "trace " in report
        assert "- query" in report
        assert "- statement" in report

    def test_explain_json_carries_the_span_tree(self):
        import json

        session = connect(figure3_database(), cache=False)
        payload = session.query(NESTED_QUERIES["Q4"]).explain(
            trace=True, json=True
        )
        assert json.dumps(payload)  # fully serialisable
        assert payload["trace"]["spans"][0]["name"] == "query"
        assert payload["statement_count"] == len(payload["statements"])
        assert {d["severity"] for d in payload["diagnostics"]} <= {
            "info",
            "warning",
            "error",
        }

    def test_explain_json_without_trace_omits_the_key(self):
        session = connect(figure3_database(), cache=False)
        payload = session.query(NESTED_QUERIES["Q1"]).explain(json=True)
        assert "trace" not in payload
        assert payload["engine"] == "batched"
