"""Tests for ``tools/loc.py`` — the code-line counter behind CHANGES.md's
line claims: it counts what it is given and refuses what it cannot count,
rather than printing a silent 0."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"


def loc(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LOC), *arguments], cwd=cwd, capture_output=True, text=True
    )


def test_help_prints_the_docstring():
    for flag in ("-h", "--help"):
        run = loc(flag)
        assert run.returncode == 0
        assert run.stdout.startswith("Code lines per package")
        assert "tests total" not in run.stdout


def test_a_file_given_directly_is_counted():
    run = loc("tests/test_loc.py")
    assert run.returncode == 0
    count, label = run.stdout.splitlines()[-1].split(maxsplit=1)
    assert label == "tests/test_loc.py total" and int(count) > 10


def test_a_path_that_exists_nowhere_is_refused_by_name():
    for arguments in (["tests/no_such_dir"], ["--against", "HEAD", "tset"], ["README.md"]):
        run = loc(*arguments)
        assert run.returncode != 0 and run.stdout == ""
        assert arguments[-1] in run.stderr


def test_a_path_deleted_since_rev_still_counts(tmp_path):
    def git(*arguments: str) -> None:
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *arguments],
            cwd=tmp_path, check=True, capture_output=True,
        )

    (tmp_path / "gone").mkdir()
    (tmp_path / "gone" / "module.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one module")
    git("rm", "-q", "-r", "gone")
    run = loc("--against", "HEAD", "gone", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == ["2", "0", "-2", "gone", "total"]
