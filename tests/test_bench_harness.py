"""Tests for the benchmark harness, reporting and figure generators."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    BenchConfig,
    CellResult,
    SYSTEMS,
    default_scales,
    run_system,
    sweep,
    time_run,
)
from repro.bench.reporting import format_speedups, format_tables, series
from repro.data.generator import scaled_database


@pytest.fixture(scope="module")
def tiny_db():
    db = scaled_database(2, seed=3, scale_rows=4)
    db.connection()
    return db


class TestConfig:
    def test_default_scales_powers_of_two(self):
        config = BenchConfig(max_departments=32, min_departments=4)
        assert default_scales(config) == [4, 8, 16, 32]

    def test_single_scale(self):
        config = BenchConfig(max_departments=4, min_departments=4)
        assert default_scales(config) == [4]


class TestTiming:
    def test_time_run_positive(self, tiny_db):
        from repro.data.queries import Q4

        millis = time_run(SYSTEMS["shredding"], Q4, tiny_db, repeats=2)
        assert millis > 0

    @pytest.mark.parametrize(
        "system",
        ["shredding", "loop-lifting", "avalanche", "shredding-flat"],
    )
    def test_all_nested_systems_run(self, system, tiny_db):
        assert run_system(system, "Q4", tiny_db, repeats=1) > 0

    @pytest.mark.parametrize("system", ["default", "default-raw-sql"])
    def test_flat_systems_run(self, system, tiny_db):
        assert run_system(system, "QF1", tiny_db, repeats=1) > 0


class TestSweep:
    def test_sweep_produces_all_cells(self):
        config = BenchConfig(
            max_departments=4,
            min_departments=2,
            employees_per_dept=3,
            repeats=1,
        )
        results = sweep(["Q4"], ["shredding"], config)
        assert len(results) == 2  # two scales × one query × one system
        assert all(isinstance(cell, CellResult) for cell in results)
        assert all(cell.millis is not None for cell in results)

    def test_budget_cutoff(self):
        config = BenchConfig(
            max_departments=4,
            min_departments=2,
            employees_per_dept=3,
            repeats=1,
            cell_budget_ms=0.0,  # everything is instantly over budget
        )
        results = sweep(["Q4"], ["shredding"], config)
        # First scale runs; larger scales are skipped with a note.
        assert results[0].millis is not None
        assert results[1].millis is None
        assert results[1].note == "over budget"


class TestReporting:
    def _results(self):
        return [
            CellResult("Q1", "shredding", 4, 1.0),
            CellResult("Q1", "shredding", 8, 2.0),
            CellResult("Q1", "loop-lifting", 4, 3.0),
            CellResult("Q1", "loop-lifting", 8, 12.0),
            CellResult("Q1", "loop-lifting", 16, None, "over budget"),
        ]

    def test_series_grouping(self):
        grouped = series(self._results())
        assert grouped["Q1"]["shredding"] == [(4, 1.0), (8, 2.0)]

    def test_format_tables(self):
        text = format_tables(self._results(), "test")
        assert "Q1:" in text
        assert "shredding" in text
        assert "—" in text  # the over-budget cell

    def test_format_speedups(self):
        text = format_speedups(self._results(), "loop-lifting", "shredding")
        assert "6.00x" in text  # 12.0 / 2.0 at the largest common scale

    def test_speedups_no_common_scale(self):
        results = [
            CellResult("Q1", "a", 4, 1.0),
            CellResult("Q1", "b", 8, 1.0),
        ]
        assert "no common" in format_speedups(results, "a", "b")


class TestFigureGenerators:
    def test_appendix_a_text(self):
        from repro.bench.figures import figure_appendix_a

        text = figure_appendix_a()
        assert "|T1| = 72" in text
        assert "(paper: 9)" in text

    def test_counts_text(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_DEPTS", "2")
        from repro.bench.figures import figure_counts

        config = BenchConfig(
            max_departments=2, min_departments=2, employees_per_dept=3
        )
        text = figure_counts(config)
        assert "shredding" in text and "avalanche" in text

    def test_main_entry(self, capsys):
        from repro.bench.figures import main

        assert main(["--figure", "A"]) == 0
        out = capsys.readouterr().out
        assert "Appendix A" in out
