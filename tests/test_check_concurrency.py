"""Tests for ``tools/check_concurrency.py`` — the asyncio and shared-state lint.

Half the value is the negative space: the real tree (``src/repro/`` — the
serving stack under the loop rules, the rest under CC006) must lint clean,
and stay clean — the CI quick job runs the same tool.  The snippet tests pin down
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


class TestOnLoopSql:
    """CC005: under ``service/``, SQL runs on the loop only inside the
    step guard — the shape of ``QueryServer._run_guarded``."""

    SERVER = "src/repro/service/server.py"

    @staticmethod
    def _helper_source() -> str:
        import inspect
        import textwrap

        from repro.service.server import QueryServer

        return textwrap.dedent(inspect.getsource(QueryServer._run_guarded))

    def _cc005(self, source: str, name: str | None = None) -> list[int]:
        return [
            finding.line
            for finding in lint_source(source, name or self.SERVER)
            if finding.code == "CC005"
        ]

    def test_the_real_helper_passes(self):
        source = self._helper_source()
        assert "set_progress_handler" in source and "connection=lease" in source
        assert lint_source(source, self.SERVER) == []

    def test_the_helpers_body_without_the_guard_fails(self):
        source = self._helper_source()
        for guard_line in (
            "lease.set_progress_handler(guard, GUARD_STRIDE)",
            "lease.set_progress_handler(None, 0)",
        ):
            assert guard_line in source
            stripped = source.replace(guard_line, "pass")
            assert len(self._cc005(stripped)) == 1, guard_line

    def test_guard_must_be_installed_before_and_cleared_in_finally(self):
        cleared_elsewhere = (
            "def _run_guarded(prepared, lease):\n"
            "    lease.set_progress_handler(guard, 1000)\n"
            "    try:\n"
            "        return prepared.run(connection=lease)\n"
            "    except Exception:\n"
            "        lease.set_progress_handler(None, 0)\n"
            "        raise\n"
        )
        assert self._cc005(cleared_elsewhere) == [4]
        installed_after = (
            "def _run_guarded(prepared, lease):\n"
            "    try:\n"
            "        return prepared.run(connection=lease)\n"
            "    finally:\n"
            "        lease.set_progress_handler(None, 0)\n"
            "    lease.set_progress_handler(guard, 1000)\n"
        )
        assert self._cc005(installed_after) == [3]

    def test_unguarded_sql_in_a_coroutine_is_flagged(self):
        src = (
            "async def f(prepared, lease, db, package):\n"
            "    prepared.run(engine='batched', connection=lease)\n"
            "    lease.execute('SELECT 1')\n"
            "    execute_package_batched(db, package)\n"
            "    db.execute_sql('SELECT 1')\n"
            "    db.execute_cursor('SELECT 1')\n"
            "    prepared.run(engine='batched')\n"  # no lease: not this rule's
        )
        assert self._cc005(src) == [2, 3, 4, 5, 6]

    def test_offloaded_awaited_or_guarded_sql_is_fine(self):
        src = (
            "import asyncio\n"
            "async def f(prepared, lease, client):\n"
            "    await asyncio.to_thread(prepared.run, connection=lease)\n"
            "    await asyncio.to_thread(lambda: lease.execute('SELECT 1'))\n"
            "    await client.execute('Q1')\n"
            "    lease.set_progress_handler(guard, 1000)\n"
            "    try:\n"
            "        prepared.run(connection=lease)\n"
            "    finally:\n"
            "        lease.set_progress_handler(None, 0)\n"
        )
        assert self._cc005(src) == []

    def test_scope_is_loop_code_under_service(self):
        src = "def probe(lease):\n    lease.execute('SELECT 1')\n"
        assert self._cc005(src) == []  # a sync def: some thread's business
        coroutine = "async def probe(lease):\n    lease.execute('SELECT 1')\n"
        assert self._cc005(coroutine) == [2]
        assert self._cc005(coroutine, "src/repro/shard/client.py") == []


class TestSharedLibraryState:
    """CC006: module-level state a function mutates outside a lock."""

    LIBRARY = "src/repro/backend/executor.py"

    @staticmethod
    def _cc006(source: str, name: str = LIBRARY) -> list[int]:
        return [f.line for f in lint_source(source, name) if f.code == "CC006"]

    def test_the_real_pause_guard_passes_and_its_unlocked_form_fails(self):
        """Both directions on the real ``collector_paused``: as committed
        it is clean; with its two ``with _pause_lock:`` blocks turned into
        plain blocks, every rebinding of ``_pause_depth`` /
        ``_pause_resumes`` is a finding."""
        source = (ROOT / self.LIBRARY).read_text()
        assert source.count("with _pause_lock:") == 2
        assert self._cc006(source) == []
        unlocked = source.replace("with _pause_lock:", "if True:")
        flagged = [unlocked.splitlines()[line - 1].strip() for line in self._cc006(unlocked)]
        assert flagged == [
            "_pause_resumes = gc.isenabled()",
            "_pause_depth += 1",
            "_pause_depth -= 1",
        ]

    def test_the_real_fresh_name_passes_and_a_global_counter_fails(self):
        assert self._cc006((ROOT / "src/repro/nrc/ast.py").read_text()) == []
        parent = (
            "_FRESH_COUNTER = 0\n"
            "def fresh_name(base):\n"
            "    global _FRESH_COUNTER\n"
            "    _FRESH_COUNTER += 1\n"
            "    return f'{base}%{_FRESH_COUNTER}'\n"
        )
        assert self._cc006(parent, "src/repro/nrc/ast.py") == [4]

    def test_what_counts_as_a_mutation(self):
        src = (
            "from collections import OrderedDict\n"
            "A, B, C = {}, [], set()\n"
            "MEMO = OrderedDict()\n"
            "TABLE: dict = {}\n"
            "def f(k):\n"
            "    TABLE[k] = 1\n"
            "    del TABLE[k]\n"
            "    MEMO.pop(k, None)\n"
            "    MEMO.popitem()\n"
            "    MEMO.move_to_end(k)\n"
            "    MEMO.clear()\n"
            "    return TABLE.get(k), len(MEMO), A, B, C\n"
        )
        assert self._cc006(src) == [6, 7, 8, 9, 10, 11]

    def test_locks_locals_waivers_and_module_body_are_fine(self):
        src = (
            "import threading\n"
            "TABLE = {}\n"
            "LOCK = threading.Lock()\n"
            "TABLE['at import'] = 0\n"
            "def locked(k):\n"
            "    with LOCK:\n"
            "        TABLE[k] = 1\n"
            "def method(self, k):\n"
            "    with self._lock:\n"
            "        TABLE.pop(k)\n"
            "def shadowed(k):\n"
            "    TABLE = {}\n"
            "    TABLE[k] = 1\n"
            "def parameter(TABLE, k):\n"
            "    TABLE[k] = 1\n"
            "def waived(k):\n"
            "    TABLE[k] = 1  # CC006: written once, before threads start\n"
            "def own_state(self, k):\n"
            "    self.table[k] = 1\n"
        )
        assert self._cc006(src) == []

    def test_scope_is_the_library_outside_service_and_shard(self):
        src = "TABLE = {}\ndef f(k):\n    TABLE[k] = 1\n"
        assert self._cc006(src, "src/repro/pipeline/plan_cache.py") == [3]
        assert self._cc006(src, "src/repro/service/server.py") == []
        assert self._cc006(src, "src/repro/shard/client.py") == []
        assert self._cc006(src, "tools/loc.py") == []


class TestCollectorSwitches:
    """CC007: the cycle collector is switched only by the one guard."""

    GUARD_MODULE = "src/repro/backend/executor.py"

    @staticmethod
    def _cc007(source: str, name: str) -> list[str]:
        lines = source.splitlines()
        return [
            lines[f.line - 1].strip() for f in lint_source(source, name) if f.code == "CC007"
        ]

    def test_the_real_guard_passes_and_the_same_calls_elsewhere_fail(self):
        """Both directions on the real ``collector_paused``: as committed
        its module is clean; renamed, its disable, enable and collect are
        each a finding — and so is any of them in another function."""
        source = (ROOT / self.GUARD_MODULE).read_text()
        assert source.count("def collector_paused(") == 1
        assert self._cc007(source, self.GUARD_MODULE) == []
        renamed = source.replace("def collector_paused(", "def pause_it(")
        assert sorted(self._cc007(renamed, self.GUARD_MODULE)) == [
            "gc.collect(0)",
            "gc.disable()",
            "gc.enable()",
        ]
        elsewhere = source + "\n\ndef tidy():\n    gc.collect()\n"
        assert self._cc007(elsewhere, self.GUARD_MODULE) == ["gc.collect()"]
        # The guard's name only counts in the guard's module.
        assert self._cc007(source, "src/repro/pipeline/shredder.py") != []

    def test_every_switch_every_spelling(self):
        src = (
            "import gc\n"
            "import gc as collector\n"
            "from gc import collect as sweep, freeze, isenabled\n"
            "def f():\n"
            "    gc.disable()\n"
            "    collector.set_threshold(1)\n"
            "    sweep(0)\n"
            "    freeze()\n"
            "    gc.isenabled()\n"
            "    isenabled()\n"
            "    gc.get_count()\n"
        )
        assert self._cc007(src, "src/repro/shard/client.py") == [
            "gc.disable()",
            "collector.set_threshold(1)",
            "sweep(0)",
            "freeze()",
        ]

    def test_scope_is_the_library(self):
        src = "import gc\ngc.collect()\n"
        assert self._cc007(src, "src/repro/service/server.py") == ["gc.collect()"]
        assert self._cc007(src, "bench/run.py") == []
        assert self._cc007(src, "tests/test_x.py") == []


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
