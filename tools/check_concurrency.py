#!/usr/bin/env python3
"""Concurrency lint for ``src/repro`` (stdlib ``ast``, no dependencies).

The asyncio service and the shard fleet live or die by one rule: nothing
*unbounded* runs on the event loop — and the one thing that does run SQL
there (a light catalogue entry's request, ``QueryServer._run_guarded``)
does so under a step guard.  This tool walks ``src/repro/`` and flags the
patterns that have historically snuck blocking work onto a loop thread
(CC001–CC005, which bite in ``service/`` and ``shard/``) or let two
compiling threads race on a module global (CC006, everywhere else):

    CC001  a blocking call inside an ``async def`` body — ``time.sleep``,
           ``sqlite3.connect``, ``socket.create_connection``, the blocking
           socket methods (``recv``/``sendall``/``accept``/``makefile``/…),
           or ``subprocess``/``os.system`` — that is not routed through
           ``asyncio.to_thread`` / ``loop.run_in_executor``
    CC002  a synchronous service-client round-trip (``.request(…)`` /
           ``.ping(…)``) inside an ``async def`` without ``await``: either
           it blocks the loop (sync client) or it silently drops the
           coroutine (async client, missing await)
    CC003  a bare ``except:`` anywhere — it swallows ``CancelledError``
           and ``KeyboardInterrupt``, breaking task cancellation and drain
    CC004  I/O in the sans-IO protocol core (``service/protocol.py``):
           importing ``socket`` or ``asyncio``, or sleeping — the core
           decides, its two drivers (``service/client.py``) do the I/O
    CC005  SQL executed on the loop outside the guard, under
           ``src/repro/service/``: inside an ``async def`` — or inside
           the on-loop helper itself (``_run_guarded``) — a call that
           executes SQL (``.run(… connection=…)``, ``execute_package*``,
           ``execute_sql*``, ``.execute*(…)``) must be awaited/scheduled
           or sit in a ``try`` whose ``finally`` clears the progress
           handler a preceding ``set_progress_handler(<guard>, …)``
           installed

    CC006  unsynchronised process-wide state in the library, under
           ``src/repro/`` outside ``service/`` and ``shard/`` (which have
           their own rules): a function mutates a module-level ``dict`` /
           ``OrderedDict`` / ``list`` / ``set`` (``X[k] = …``, ``del X[k]``,
           ``X.pop*`` / ``.move_to_end`` / ``.append`` / ``.clear`` / …) or
           rebinds a ``global`` (``global X; X += …``) outside a
           ``with <lock>:`` block — server worker threads compile and run
           through these modules concurrently.  State that is safe without
           a lock says why on the line: ``# CC006: <reason>``

Calls are sanctioned when they appear inside an ``await`` expression or as
arguments to ``asyncio.gather`` / ``create_task`` / ``ensure_future`` /
``wait_for`` / ``shield`` / ``to_thread`` / ``run_in_executor``: those
either run on the loop properly or are explicitly off-loop.

Run from the repository root::

    python tools/check_concurrency.py            # lint src/repro
    python tools/check_concurrency.py PATH...    # lint specific files/dirs

Exit status 1 iff any finding.  ``lint_source`` is importable for tests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import lintcli
from lintcli import Finding

#: (module, attribute) calls that block the calling thread.
BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("sqlite3", "connect"),
    ("socket", "create_connection"),
    ("socket", "socket"),
    ("socket", "getaddrinfo"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("os", "system"),
    ("os", "waitpid"),
}

#: Method names that block on a raw socket (or file made from one).
BLOCKING_METHODS = {
    "recv",
    "recv_into",
    "recvfrom",
    "sendall",
    "accept",
    "makefile",
}

#: Synchronous client round-trips: called un-awaited inside a coroutine
#: they either block the loop (``ServiceClient``) or silently drop the
#: coroutine (``AsyncServiceClient``, missing ``await``).
SYNC_CLIENT_METHODS = {"request", "ping"}

#: Call sites whose *arguments* are sanctioned (scheduled or off-loop).
_SCHEDULERS = {
    "gather",
    "create_task",
    "ensure_future",
    "wait_for",
    "shield",
    "to_thread",
    "run_in_executor",
}

DEFAULT_TARGETS = ("src/repro",)

#: The module (path suffix) that holds the sans-IO client core, and the
#: modules it may not import.
SANS_IO_MODULE = "repro/service/protocol.py"
IO_MODULES = {"socket", "asyncio"}

#: CC005's scope, and the one sync function there that runs on the loop
#: by design — its body is held to the same rule as an ``async def``'s.
SERVICE_PACKAGE = "repro/service/"
ON_LOOP_HELPER = "_run_guarded"
SQL_CALL_PREFIXES = ("execute_package", "execute_sql")
SQL_METHODS = {"execute", "executemany", "executescript"}

#: CC006's scope is the library outside the two packages above; what makes
#: a module-level name shared mutable state, what mutates it, and the
#: in-place justification that waives a finding.
LIBRARY_PACKAGE = "repro/"
SHARD_PACKAGE = "repro/shard/"
CONTAINER_CALLS = {"dict", "OrderedDict", "defaultdict", "list", "set", "deque"}
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATING_METHODS = {
    "pop",
    "popitem",
    "popleft",
    "move_to_end",
    "append",
    "appendleft",
    "clear",
    "add",
    "update",
    "setdefault",
    "extend",
    "insert",
    "remove",
    "discard",
}
WAIVER = "# CC006:"


def _dotted(func: ast.expr) -> tuple[str, str] | None:
    """``module.attr`` for an Attribute call on a plain Name, else None."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _call_ids(node: ast.AST) -> set[int]:
    """ids of every Call node at or under ``node``."""
    return {id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)}


def _executes_sql(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name.startswith(SQL_CALL_PREFIXES):
        return True
    if not isinstance(func, ast.Attribute):
        return False
    return name in SQL_METHODS or (
        name == "run" and any(kw.arg == "connection" for kw in node.keywords)
    )


def _handler_call(node: ast.AST, clears: bool) -> bool:
    """``<x>.set_progress_handler(None, …)`` (``clears``) or
    ``<x>.set_progress_handler(<anything else>, …)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_progress_handler"
        and node.args
    ):
        return False
    first = node.args[0]
    return (isinstance(first, ast.Constant) and first.value is None) == clears


def _guarded_calls(function: ast.AST) -> set[int]:
    """ids of the Call nodes of ``function`` that run under a step guard:
    in the body of a ``try`` whose ``finally`` clears the progress handler,
    the ``try`` coming after a statement that installs one."""
    guarded: set[int] = set()
    for node in ast.walk(function):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        installed = False
        for statement in body:
            if (
                installed
                and isinstance(statement, ast.Try)
                and any(
                    _handler_call(sub, clears=True)
                    for final in statement.finalbody
                    for sub in ast.walk(final)
                )
            ):
                for part in statement.body:
                    guarded |= _call_ids(part)
            installed = installed or any(
                _handler_call(sub, clears=False) for sub in ast.walk(statement)
            )
    return guarded


def _sanctioned_calls(tree: ast.AST) -> set[int]:
    """ids of Call nodes awaited or handed to a scheduler/executor."""
    sanctioned: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Await):
            sanctioned |= _call_ids(node.value)
        elif isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name in _SCHEDULERS:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    sanctioned |= _call_ids(arg)
    return sanctioned


def _terminal_name(node: ast.expr) -> str:
    """``lock`` for ``lock``, ``self._lock``, ``lock()`` …"""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _module_containers(tree: ast.Module) -> set[str]:
    """Module-level names bound to a mutable container."""
    names: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        else:
            continue
        if isinstance(value, CONTAINER_NODES) or (
            isinstance(value, ast.Call)
            and _terminal_name(value.func) in CONTAINER_CALLS
        ):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _shared_state_findings(tree: ast.Module, source: str, path: str) -> list[Finding]:
    """CC006 over one module."""
    containers = _module_containers(tree)
    lines = source.splitlines()
    findings: list[Finding] = []

    def flag(node: ast.AST, name: str, what: str) -> None:
        if WAIVER not in lines[node.lineno - 1]:
            findings.append(
                Finding(
                    "CC006",
                    path,
                    node.lineno,
                    f"module-level '{name}' {what} outside a 'with <lock>:' "
                    f"block — compiling threads share it; guard it, or say "
                    f"why it is safe ('{WAIVER} <reason>' on the line)",
                )
            )

    def check(node: ast.AST, shared: set[str], rebound: set[str]) -> None:
        """``node`` sits in a function, under no lock: ``shared`` are the
        module's containers visible there, ``rebound`` its ``global`` names."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name) and target.id in rebound:
                    flag(node, target.id, "rebound through 'global'")
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in shared
                ):
                    flag(node, target.value.id, "written by key")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in shared
        ):
            flag(node, node.func.value.id, f"mutated by .{node.func.attr}()")

    def walk(node: ast.AST, shared: set[str], rebound: set[str], inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            parts = list(ast.walk(node))
            rebound = {
                name for sub in parts if isinstance(sub, ast.Global) for name in sub.names
            }
            local = {sub.arg for sub in parts if isinstance(sub, ast.arg)} | {
                sub.id
                for sub in parts
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            }
            shared = (shared - local) | (rebound & containers)
            inside = True
        elif isinstance(node, (ast.With, ast.AsyncWith)) and any(
            "lock" in _terminal_name(item.context_expr).lower() for item in node.items
        ):
            return
        elif inside:
            check(node, shared, rebound)
        for child in ast.iter_child_nodes(node):
            walk(child, shared, rebound, inside)

    walk(tree, containers, set(), False)
    return findings


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, sanctioned: set[int]) -> None:
        self.path = path
        self.sanctioned = sanctioned
        self.findings: list[Finding] = []
        self._async_depth = 0
        self._sans_io = Path(path).as_posix().endswith(SANS_IO_MODULE)
        self._service = SERVICE_PACKAGE in Path(path).as_posix()
        #: Calls under a step guard, and whether we are inside a function
        #: whose body runs on the loop (CC005).
        self._guarded: set[int] = set()
        self._on_loop = False

    # -- function scoping: a nested sync def runs on whatever thread calls
    # it later, so it leaves the enclosing coroutine's context.

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved, self._async_depth = self._async_depth, 0
        self._visit_loop_scope(node, node.name == ON_LOOP_HELPER)
        self._async_depth = saved

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved, self._async_depth = self._async_depth, 0
        self._visit_loop_scope(node, False)
        self._async_depth = saved

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self._visit_loop_scope(node, True)
        self._async_depth -= 1

    def _visit_loop_scope(self, node: ast.AST, on_loop: bool) -> None:
        saved = self._on_loop, self._guarded
        self._on_loop = on_loop and self._service
        self._guarded = _guarded_calls(node) if self._on_loop else set()
        self.generic_visit(node)
        self._on_loop, self._guarded = saved

    # -- rules

    def visit_Import(self, node: ast.Import) -> None:
        self._no_io_imports(node, [alias.name for alias in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._no_io_imports(node, [node.module or ""])

    def _no_io_imports(self, node: ast.stmt, modules: list[str]) -> None:
        for module in modules:
            if self._sans_io and module.split(".")[0] in IO_MODULES:
                self._add(
                    "CC004",
                    node,
                    f"'{module}' imported into the sans-IO protocol core — "
                    f"I/O belongs to the drivers in client.py",
                )

    def visit_Call(self, node: ast.Call) -> None:
        if self._sans_io and _dotted(node.func) == ("time", "sleep"):
            self._add(
                "CC004",
                node,
                "time.sleep() in the sans-IO protocol core — return the "
                "delay and let the driver sleep",
            )
        if (
            self._on_loop
            and _executes_sql(node)
            and id(node) not in self.sanctioned
            and id(node) not in self._guarded
        ):
            self._add(
                "CC005",
                node,
                "SQL executed on the event loop outside the step guard — "
                "hand it to asyncio.to_thread, or run it the way "
                f"{ON_LOOP_HELPER} does (set_progress_handler(guard, …), "
                "try, finally: set_progress_handler(None, 0))",
            )
        if self._async_depth and id(node) not in self.sanctioned:
            dotted = _dotted(node.func)
            if dotted in BLOCKING_MODULE_CALLS:
                self._add(
                    "CC001",
                    node,
                    f"blocking call {dotted[0]}.{dotted[1]}() inside "
                    f"'async def' — wrap in asyncio.to_thread or use the "
                    f"loop's non-blocking equivalent",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in BLOCKING_METHODS
            ):
                self._add(
                    "CC001",
                    node,
                    f"blocking socket method .{node.func.attr}() inside "
                    f"'async def' — use the StreamReader/StreamWriter "
                    f"surface or asyncio.to_thread",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SYNC_CLIENT_METHODS
            ):
                self._add(
                    "CC002",
                    node,
                    f"client round-trip .{node.func.attr}() inside "
                    f"'async def' without await — blocks the loop (sync "
                    f"client) or drops the coroutine (async client)",
                )
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                "CC003",
                node,
                "bare 'except:' swallows CancelledError and "
                "KeyboardInterrupt — catch Exception (or narrower)",
            )
        self.generic_visit(node)

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(code, self.path, getattr(node, "lineno", 0), message)
        )


def lint_source(source: str, name: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings sorted by line."""
    tree = ast.parse(source, filename=name)
    visitor = _Visitor(name, _sanctioned_calls(tree))
    visitor.visit(tree)
    findings = visitor.findings
    posix = Path(name).as_posix()
    if LIBRARY_PACKAGE in posix and not (
        SERVICE_PACKAGE in posix or SHARD_PACKAGE in posix
    ):
        findings = findings + _shared_state_findings(tree, source, name)
    return sorted(findings, key=lambda f: (f.line, f.code))


def lint_paths(paths: list[Path]) -> list[Finding]:
    return lintcli.lint_paths(paths, lint_source)


def main(argv: list[str] | None = None) -> int:
    return lintcli.run("check_concurrency", lint_source, DEFAULT_TARGETS, argv)


if __name__ == "__main__":
    sys.exit(main())
