"""Tests for ``tools/ab_pairs.py`` — the parent/change pair ledger.

Its verdicts are computed from result documents, so fake documents pin
them without running a benchmark.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from ab_pairs import SPEC, header, main, seed_range, summarise  # noqa: E402 - path bootstrap above

WORKLOAD = "fig11_inproc"


def _document(op_ms: float) -> dict:
    """A one-run result document whose every end-to-end metric reads
    ``op_ms`` (its segments too, so ``bench/compare.py`` sees no spread)."""
    metrics = {
        metric["name"]: {"value": op_ms, "unit": metric["unit"], "segments": [op_ms] * 5}
        for metric in SPEC["end_to_end"]
    }
    return {"runs": [{"workloads": {WORKLOAD: {"end_to_end": metrics}}}]}


def _rows(parent: list[float], change: list[float]) -> dict:
    rows = summarise(
        WORKLOAD, [_document(v) for v in parent], [_document(v) for v in change]
    )
    return {row["metric"]: row for row in rows}


def test_seed_ranges():
    assert seed_range("601-605") == [601, 602, 603, 604, 605]
    assert seed_range("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        seed_range("5-1")


def test_nine_wins_in_ten_beyond_the_parents_spread_is_a_gain():
    parent = [30.0, 31.0, 32.0, 30.5, 31.5, 30.2, 31.2, 30.8, 31.8, 30.0]
    change = [v - 3.0 for v in parent]
    change[4] = 40.0  # one pair lost
    row = _rows(parent, change)["op_ms_p50"]
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["change"][1] < row["parent"][1] - row["parent_iqr"]
    assert row["rule_a"] == "gain"
    # ``ops_per_s`` is better when higher: the same numbers read as a loss.
    assert _rows(parent, change)["ops_per_s"]["rule_a"] == "loss"


def test_a_move_inside_the_parents_spread_is_no_gain():
    parent = [30.0, 34.0] * 5
    change = [v - 1.0 for v in parent]  # wins every pair, by less than q3 − q1
    row = _rows(parent, change)["op_ms_p50"]
    assert row["wins"] == 10
    assert row["rule_a"] == "none"


def test_the_parents_spread_is_compare_pys_quartile_distance():
    """Ten values 30…39: ``bench/compare.py``'s (exclusive) quartiles are
    31.75 and 37.25, a distance of 5.5; the inclusive method would read
    4.5.  A 5-unit move that wins every pair is a gain only under the
    narrower, inclusive distance, so the verdict tells the methods apart."""
    parent = [30.0 + i for i in range(10)]
    row = _rows(parent, [v - 5.0 for v in parent])["op_ms_p50"]
    assert (row["parent"][0], row["parent"][2]) == (31.75, 37.25)
    assert row["parent_iqr"] == 5.5
    assert row["wins"] == 10
    assert row["rule_a"] == "none"
    assert _rows(parent, [v - 6.0 for v in parent])["op_ms_p50"]["rule_a"] == "gain"


def test_fewer_than_ten_pairs_decide_nothing():
    row = _rows([30.0] * 5, [20.0] * 5)["op_ms_p50"]
    assert row["rule_a"] == "too few pairs"
    assert row["bound"] == "better"  # bench/compare.py's verdict rides along
    smoke = header(WORKLOAD, "HEAD~1", list(range(1, 6))).splitlines()
    assert len(smoke) == 2
    assert smoke[0] == "smoke check, not a ledger row: 5 < 10 pairs decide nothing"
    ledger = header(WORKLOAD, "HEAD~1", list(range(1, 11))).splitlines()
    assert ledger == [f"{WORKLOAD}: HEAD~1 → working tree, 10 alternating pairs, seeds 1–10"]


def test_the_seed_range_must_match_the_pairs(capsys):
    with pytest.raises(SystemExit):
        main(["--parent", "HEAD", "--workload", WORKLOAD, "--pairs", "3", "--seeds", "1-2"])
    assert "2 seeds for 3 pairs" in capsys.readouterr().err
