"""The ``deadline`` marker of ``tests/conftest.py``: a test that hangs is
cut off with every thread's traceback instead of stalling the run.

Driven end to end: a child pytest loads the conftest as a plugin and runs
one sleeping test under a one-second deadline.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.deadline

SLEEPER = textwrap.dedent(
    """
    import threading
    import time

    import pytest


    @pytest.mark.deadline(1)
    def test_sleeps():
        threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
        time.sleep(60)
    """
)


def test_a_sleeping_test_is_cut_off_with_every_threads_traceback(tmp_path):
    (tmp_path / "test_sleeps.py").write_text(SLEEPER)
    path = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    started = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "tests.conftest",
            "-p", "no:cacheprovider", str(tmp_path),
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    out = completed.stdout + completed.stderr
    assert time.monotonic() - started < 30, out
    assert completed.returncode == 1, out
    assert "1 failed" in out
    assert "DeadlineExceeded: test phase exceeded its 1 s deadline" in out
    # faulthandler's dump: the main thread, in the test, and the worker.
    assert "Current thread 0x" in out and "\nThread 0x" in out
    assert "in test_sleeps" in out
