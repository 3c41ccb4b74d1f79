"""Fast self-test of the benchmark's own machinery (tier-1 collects it).

No subprocess, no wall-clock assertion: statistics on synthetic spans,
the compare rule on synthetic documents, the oracle against the
calculus' own semantics on Fig. 3, ``BENCHMARK.json`` against what
``run.py`` emits, and a ``--quick`` pass of the two in-process workloads.
"""

from __future__ import annotations

import re

import pytest

import compare
import run
from oracle import Oracle
from spans import Span, SpanRecorder, median, percentile, rollup, self_times, unaccounted_share

from repro.data.organisation import figure3_database
from repro.nrc.ast import substitute_params
from repro.nrc.semantics import evaluate
from repro.service.registry import paper_registry
from repro.values import bag_equal


def test_percentiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert median(values) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "backend", 1.0, 6.0),
        Span(2, 1, 0, "sql", 1.0, 4.0),  # two overlapping statements …
        Span(3, 1, 0, "sql", 2.0, 9.0),  # … one running past its parent
        Span(4, 0, 0, "stitch", 6.0, 8.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)  # 10 − (5 + 2)
    assert own[1] == pytest.approx(0.0)  # covered 1→6 by the union, clipped
    assert own[4] == pytest.approx(2.0)
    table = rollup(spans)
    assert table["sql"]["count"] == 2
    assert table["sql"]["total_ms"] == pytest.approx(10_000.0)
    assert unaccounted_share(spans, "op") == pytest.approx(0.3)


def test_recorder_nests_and_places_reported_durations():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    rec.op = 7
    with rec.span("op"):  # starts at 0
        with rec.span("query"):  # 1 … 2
            rec.record("shard", 0.25, concurrent=True)
            rec.record("shard", 0.75, concurrent=True)
        rec.record("sql", 0.5)
        rec.record("decode", 0.25)
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    assert [s.op for s in rec.spans] == [7] * 6
    query = by_name["query"][0]
    assert all(s.parent == query.id and s.start == query.start for s in by_name["shard"])
    assert self_times(rec.spans)[query.id] == pytest.approx(0.25)  # 1 − slowest part
    assert by_name["decode"][0].start == by_name["sql"][0].end  # laid end to end
    off = SpanRecorder(enabled=False)
    with off.span("op"):
        off.record("sql", 1.0)
    assert off.spans == []


def _document(values, segments=(), workload="fig11_inproc"):
    cell = lambda v: {"value": v, "unit": "ms", "segments": list(segments)}  # noqa: E731
    return {
        "runs": [
            {"workloads": {workload: {"end_to_end": {"op_ms_p50": cell(v)}}}}
            for v in values
        ]
    }


def test_compare_rule():
    spec = {
        "workloads": [{"name": "fig11_inproc"}],
        "end_to_end": [
            {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10}
        ],
    }

    def verdict(old, new):
        (row,) = compare.compare(old, new, spec)
        return row["verdict"], row["ratio"]

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(_document(steady), _document([v * 1.05 for v in steady]))[0] == "same"
    assert verdict(_document(steady), _document([v * 1.20 for v in steady])) == (
        "worse", pytest.approx(1.2),
    )
    assert verdict(_document(steady), _document([v * 0.80 for v in steady]))[0] == "better"
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert verdict(_document(steady), _document(noisy))[0] == "unresolved"
    # A single run per side falls back on its own window segments.
    assert verdict(
        _document([100.0], [100, 101, 99, 100, 100]),
        _document([120.0], [120, 121, 119, 120, 120]),
    )[0] == "worse"
    assert verdict(
        _document([100.0], [100, 101, 99, 100, 100]),
        _document([120.0], [90, 150, 120, 100, 140]),
    )[0] == "unresolved"
    assert "× 100" in compare.render(compare.compare(_document(steady), _document(steady), spec))


def test_oracle_equals_the_semantics_on_figure_3():
    db = figure3_database()
    oracle = Oracle(db)
    registry = paper_registry()
    cases = [(name, None) for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")]
    cases += [("dept_staff", {"dept": d}) for d in ("Product", "Quality", "Sales", "Nowhere")]
    cases += [("staff_above", {"min_salary": s}) for s in (0, 900, 60_000, 10_000_000)]
    for name, params in cases:
        term = registry.lookup(name).term
        if params:
            term = substitute_params(term, params)
        assert bag_equal(oracle.evaluate(name, params), evaluate(term, db)), (name, params)


def test_benchmark_json_matches_what_run_emits():
    spec = run.SPEC
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    classes = run.workload_classes()
    assert list(classes) == [w["name"] for w in spec["workloads"]]
    declared = {"obs.host_kernel_ms"}.union(*(cls.LAYER_METRICS for cls in classes.values()))
    assert declared == set(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


@pytest.mark.parametrize(
    "name, statements, hit_rate",
    [("fig11_inproc", 14, 1.0), ("compile_cold", 17, 0.0)],
)
def test_quick_pass_of_the_in_process_workloads(name, statements, hit_rate):
    cls = run.workload_classes()[name]
    window = run.measure_window(cls, 1, run.QUICK_SECONDS, quick=True)
    assert window["correct"] and window["failed"] == 0 and window["attempted"] >= 1
    assert set(window["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in window["metrics"].values())
    layers = run.measure_layers(cls, 1, run.QUICK_SECONDS, quick=True)
    assert layers["correct"] and set(layers["metrics"]) == set(run.PER_LAYER)
    values = {k: metric["value"] for k, metric in layers["metrics"].items()}
    assert values["backend.statements_per_op"] == statements  # Σ nesting degree
    assert values["pipeline.plan_cache_hit_rate"] == hit_rate
    assert 0.0 <= values["obs.unaccounted_share"] <= 1.0
    # Layers this workload does not exercise read 0.
    assert values["shard.merge_ms_p50"] == 0.0
