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


class TestServe:
    def test_an_out_of_range_shard_is_refused_before_any_data(self, capsys):
        with pytest.raises(SystemExit, match="--shard must look like"):
            main(["serve", "--shard", "2/2", "--scale", "4", "--port", "0"])


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

    def test_run_stats_reads_the_session_totals(self, capsys):
        """``--stats`` prints the session's snapshot: one run's statements,
        and the one plan-cache consult its compile made."""
        import re

        from repro.api import connect
        from repro.data.organisation import figure3_database
        from repro.data.queries import NESTED_QUERIES

        assert main(["run", "Q1", "--stats"]) == 0
        out = capsys.readouterr().out
        queries = int(re.search(r"queries=(\d+)", out).group(1))
        hits, misses = map(int, re.search(r"cache=(\d+)h/(\d+)m", out).groups())
        statements = connect(figure3_database()).prepare(NESTED_QUERIES["Q1"]).query_count
        assert queries == statements == 4
        assert hits + misses == 1

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
