"""Tests for ``tools/check_imports.py`` — the import-graph lint.

The library packages must lint clean (CI's ``analyze`` job runs the same
tool); the snippet tests pin the import spellings the rule sees through.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_imports import (  # noqa: E402 - path bootstrap above
    DEFAULT_TARGETS,
    lint_paths,
    lint_source,
    main,
)

IN_LIBRARY = "src/repro/shard/client.py"


@pytest.mark.parametrize(
    "source",
    [
        "import repro.bench.harness\n",
        "from repro.baselines import naive\n",
        "from repro import bench\n",
        "from ..bench import harness\n",
        "def f():\n    from repro.baselines.naive import AvalanchePipeline\n",
    ],
)
def test_evaluation_imports_flagged(source):
    (finding,) = lint_source(source, IN_LIBRARY)
    assert finding.code == "IM001"
    assert finding.line == (2 if source.startswith("def") else 1)


@pytest.mark.parametrize(
    "source",
    [
        "import repro.backend.database\n",
        "from repro.pipeline import ShreddingPipeline\n",
        "from . import placement\n",
        "from repro import benchmarks_are_elsewhere\n",
    ],
)
def test_library_imports_fine(source):
    assert lint_source(source, IN_LIBRARY) == []


@pytest.mark.parametrize(
    "source",
    [
        "import asyncio\n",
        "from repro.service.server import QueryServer\n",
        "from repro.service import server\n",
        "def f():\n    from ..service.server import LIGHT_ROWS\n",
    ],
)
@pytest.mark.parametrize(
    "loop_free", ["src/repro/service/core.py", "src/repro/shard/deployment.py"]
)
def test_loop_free_modules_do_not_import_the_loop(source, loop_free):
    (finding,) = lint_source(source, loop_free)
    assert finding.code == "IM002"
    # The same imports are any other library module's business.
    assert lint_source(source, IN_LIBRARY) == []


def test_library_lints_clean():
    assert lint_paths([ROOT / target for target in DEFAULT_TARGETS]) == []


def test_main_exit_codes(capsys, tmp_path):
    bad = tmp_path / "repro" / "api" / "leak.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("from repro.bench.harness import SYSTEMS\n")
    assert main([str(bad)]) == 1
    assert "IM001" in capsys.readouterr().out
    assert main([str(ROOT / "src/repro/sql")]) == 0
    assert main([str(tmp_path / "missing")]) == 2
