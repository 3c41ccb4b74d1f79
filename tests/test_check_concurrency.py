"""Tests for ``tools/check_concurrency.py`` — the asyncio lint.

Half the value is the negative space: the real serving stack
(``src/repro/service/``, ``src/repro/shard/``) must lint clean, and stay
clean — the CI quick job runs the same tool.  The snippet tests pin down
exactly which patterns each rule catches and which sanctioned forms
(``await``, ``asyncio.to_thread``, ``gather``/``create_task`` arguments,
nested sync ``def``) it must leave alone.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_concurrency import (  # noqa: E402 - path bootstrap above
    DEFAULT_TARGETS,
    lint_paths,
    lint_source,
    main,
)


def _codes(source: str) -> list[str]:
    return [finding.code for finding in lint_source(source)]


class TestBlockingCallsInAsync:
    def test_time_sleep_flagged(self):
        src = "import time\nasync def f():\n    time.sleep(1)\n"
        assert _codes(src) == ["CC001"]

    def test_sqlite_connect_flagged(self):
        src = "import sqlite3\nasync def f():\n    sqlite3.connect('x.db')\n"
        assert _codes(src) == ["CC001"]

    def test_socket_method_flagged(self):
        src = "async def f(sock):\n    return sock.recv(4096)\n"
        assert _codes(src) == ["CC001"]

    def test_sendall_flagged(self):
        src = "async def f(sock, data):\n    sock.sendall(data)\n"
        assert _codes(src) == ["CC001"]

    def test_same_calls_fine_in_sync_def(self):
        src = (
            "import time, sqlite3\n"
            "def f(sock):\n"
            "    time.sleep(1)\n"
            "    sqlite3.connect('x.db')\n"
            "    sock.recv(4096)\n"
        )
        assert _codes(src) == []

    def test_to_thread_argument_sanctioned(self):
        src = (
            "import asyncio, time\n"
            "async def f():\n"
            "    await asyncio.to_thread(time.sleep, 1)\n"
        )
        assert _codes(src) == []

    def test_nested_sync_def_leaves_async_context(self):
        # The nested def runs on whatever thread calls it later (e.g. a
        # worker thread via to_thread) — not the loop.
        src = (
            "import time\n"
            "async def f():\n"
            "    def worker():\n"
            "        time.sleep(1)\n"
            "    return worker\n"
        )
        assert _codes(src) == []

    def test_line_and_message_attribution(self):
        src = "import time\nasync def f():\n    time.sleep(1)\n"
        (finding,) = lint_source(src, "mod.py")
        assert finding.path == "mod.py"
        assert finding.line == 3
        assert "time.sleep" in finding.message
        assert str(finding).startswith("mod.py:3: CC001")


class TestUnawaitedClientCalls:
    def test_bare_request_flagged(self):
        src = "async def f(client):\n    client.request('ping')\n"
        assert _codes(src) == ["CC002"]

    def test_awaited_request_fine(self):
        src = "async def f(client):\n    return await client.request('ping')\n"
        assert _codes(src) == []

    def test_gather_arguments_fine(self):
        src = (
            "import asyncio\n"
            "async def f(a, b):\n"
            "    await asyncio.gather(a.ping(), b.ping())\n"
        )
        assert _codes(src) == []

    def test_create_task_fine(self):
        src = (
            "import asyncio\n"
            "async def f(client):\n"
            "    asyncio.create_task(client.request('x'))\n"
        )
        assert _codes(src) == []


class TestBareExcept:
    def test_bare_except_flagged_even_in_sync_code(self):
        src = "def f():\n    try:\n        pass\n    except:\n        pass\n"
        assert _codes(src) == ["CC003"]

    def test_typed_except_fine(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert _codes(src) == []


class TestSansIoCore:
    CORE = "src/repro/service/protocol.py"
    SOURCE = (
        "import asyncio\n"
        "from socket import create_connection\n"
        "import time\n"
        "def backoff(delay):\n"
        "    time.sleep(delay)\n"
    )

    def test_io_in_the_core_flagged(self):
        findings = lint_source(self.SOURCE, self.CORE)
        assert [(f.code, f.line) for f in findings] == [
            ("CC004", 1), ("CC004", 2), ("CC004", 5),
        ]

    def test_same_source_fine_in_a_driver(self):
        assert lint_source(self.SOURCE, "src/repro/service/client.py") == []
        # ... and the core may use the clock, just not sleep on it.
        assert lint_source("import time\nnow = time.monotonic()\n", self.CORE) == []


class TestRealTree:
    def test_serving_stack_lints_clean(self):
        findings = lint_paths([ROOT / target for target in DEFAULT_TARGETS])
        assert findings == [], [str(finding) for finding in findings]

    def test_main_exit_codes(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("async def f():\n    return 1\n")
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nasync def f():\n    time.sleep(1)\n")
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "CC001" in out and "1 finding(s)" in out

        assert main([str(tmp_path / "missing.py")]) == 2
