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


IN_FACADE = "src/repro/api/session.py"


@pytest.mark.parametrize(
    "source",
    [
        "from repro.shard.deployment import connect_sharded\n",
        "import repro.shard\n",
        "from ..shard import placement\n",
        "class Deployment:\n    from repro.shard import Placement\n",
    ],
)
def test_the_facade_does_not_load_the_shard_layer_on_import(source):
    (finding,) = lint_source(source, IN_FACADE)
    assert finding.code == "IM003"
    assert finding.line == (2 if source.startswith("class") else 1)
    # Any other library module may import the shard layer.
    assert lint_source(source, IN_LIBRARY) == []


@pytest.mark.parametrize(
    "source",
    [
        "def connect_sharded():\n    from repro.shard.deployment import connect_sharded\n",
        "async def f():\n    import repro.shard\n",
        "from repro.service.registry import QueryRegistry\n",
    ],
)
def test_the_facade_imports_the_shard_layer_lazily(source):
    assert lint_source(source, IN_FACADE) == []


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
