"""Smoke tests: every example script runs and prints what it promises."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.deadline

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "organisation_walkthrough.py",
        "higher_order_queries.py",
        "query_avalanche.py",
        "indexing_schemes.py",
        "social_feed.py",
    } <= names


def test_examples_use_the_facade():
    """Every example goes through the `repro.api` Session façade: no direct
    ShreddingPipeline construction outside `repro.api` and its shims."""
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text()
        assert "ShreddingPipeline" not in source, (
            f"{path.name} constructs the pipeline directly; "
            f"use repro.api.connect()"
        )
        assert "repro.api" in source, (
            f"{path.name} does not import the repro.api façade"
        )


def test_pipeline_construction_is_contained_in_the_engine():
    """`ShreddingPipeline(...)` may only be constructed inside `repro.api`,
    its pipeline home, and the engine-room modules (baselines/bench); the
    application surface goes through `Session`."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {
        src / "api" / "session.py",          # the façade itself
        src / "pipeline" / "shredder.py",    # the class definition + shims
        src / "pipeline" / "plan_cache.py",  # docstring mention
        src / "bench" / "harness.py",        # benchmark systems
        src / "bench" / "figures.py",
        src / "__main__.py",                 # sql --explain engine report
    }
    offenders = [
        path
        for path in src.rglob("*.py")
        if path not in allowed and "ShreddingPipeline(" in path.read_text()
    ]
    assert not offenders, (
        f"direct ShreddingPipeline construction outside the engine room: "
        f"{[str(p) for p in offenders]}"
    )


def test_social_feed():
    out = _run("social_feed.py")
    assert "4 flat queries" in out
    assert "Edinburgh" in out and "On shredding" in out


def test_quickstart():
    out = _run("quickstart.py")
    assert "shreds into 2 flat queries" in out
    assert "Sales" in out and "Erik" in out


def test_organisation_walkthrough():
    out = _run("organisation_walkthrough.py")
    assert "Qcomp" in out
    assert "q1, q2, q3" in out
    # The §3 natural-index results appear.
    assert "b·⟨1, 2⟩" in out or "b·⟨1, 2⟩" in out.replace(" ", " ")
    assert "department = “Sales”" in out


def test_higher_order_queries():
    out = _run("higher_order_queries.py")
    assert "after symbolic evaluation" in out
    assert ": 0" in out  # all λ/apps eliminated
    assert "dept" in out


def test_query_avalanche():
    out = _run("query_avalanche.py")
    assert "shred qs" in out
    lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
    shred_counts = {int(l.split("|")[1].split()[0]) for l in lines}
    assert shred_counts == {4}  # constant across scales


@pytest.mark.slow
def test_indexing_schemes():
    out = _run("indexing_schemes.py")
    assert "[canonical]" in out and "[natural]" in out and "[flat]" in out
    assert "same nested value: True" in out
