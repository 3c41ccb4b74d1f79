"""Tests for the `python -m repro` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestSql:
    def test_sql_q6_defaults_to_key_indexes(self, capsys):
        # --scheme is unset by default: the organisation schema declares a
        # key on every table, so the plans are window- and CTE-free.
        assert main(["sql", "Q6"]) == 0
        out = capsys.readouterr().out
        assert out.count("-- query at path") == 3
        assert "ROW_NUMBER" not in out and "WITH" not in out
        assert main(["sql", "Q6", "--scheme", "natural"]) == 0
        assert capsys.readouterr().out == out

    def test_sql_flat(self, capsys):
        assert main(["sql", "Q6", "--scheme", "flat"]) == 0
        out = capsys.readouterr().out
        assert out.count("-- query at path") == 3
        assert "ROW_NUMBER" in out

    def test_sql_options(self, capsys):
        args = ["sql", "Q6", "--scheme", "flat", "--optimize", "--order-by-keys"]
        assert main(args) == 0
        assert "SELECT" in capsys.readouterr().out

    def test_unknown_query(self):
        with pytest.raises(SystemExit):
            main(["sql", "Q99"])


class TestRun:
    def test_run_q4(self, capsys):
        assert main(["run", "Q4"]) == 0
        out = capsys.readouterr().out
        assert "Sales" in out and "⟨" in out

    def test_run_explicit_engine_matches_auto(self, capsys):
        assert main(["run", "Q4", "--engine", "per-path"]) == 0
        per_path = capsys.readouterr().out
        assert main(["run", "Q4", "--engine", "auto"]) == 0
        auto = capsys.readouterr().out
        assert per_path == auto

    def test_run_stats_reports_engine_and_counters(self, capsys):
        assert main(["run", "Q6", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine=batched" in out  # auto is the batched engine
        assert "queries=3" in out

    def test_run_explain(self, capsys):
        assert main(["run", "Q6", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "engine" in out and "nesting degree" in out

    def test_run_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["run", "Q4", "--engine", "warp"])

    def test_help_points_at_the_facade(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "repro.api" in capsys.readouterr().out


class TestNormalForm:
    def test_normal_form_q6(self, capsys):
        assert main(["normal-form", "Q6"]) == 0
        out = capsys.readouterr().out
        assert "return^a" in out and "⊎" in out


class TestFigures:
    def test_figures_appendix_a(self, capsys):
        assert main(["figures", "--figure", "A"]) == 0
        assert "72" in capsys.readouterr().out


class TestBenchSmoke:
    def test_bench_smoke_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_METRICS_SNAPSHOT", str(tmp_path / "snapshot.prom")
        )
        assert main(["bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke PASSED" in out
        assert "shredding_cached" in out
        assert "service[metrics]" in out

    def test_bench_without_smoke_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["bench"])

    def test_smoke_fails_on_pipeline_exception(self, capsys, monkeypatch):
        from repro.bench import smoke

        def boom(system, query_name, db, repeats=1):
            raise RuntimeError("pipeline rot")

        monkeypatch.setattr(smoke, "run_system", boom)
        assert smoke.main() == 1
        assert "smoke FAILED" in capsys.readouterr().out
