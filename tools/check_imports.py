#!/usr/bin/env python3
"""Import-graph lint (stdlib ``ast``, no dependencies).

The library a user links against — ``repro.api``, ``repro.service``,
``repro.shard``, ``repro.pipeline``, ``repro.backend``, ``repro.sql`` —
must not be able to reach the paper's evaluation code: ``repro.baselines``
(loop-lifting, the avalanche, Van den Bussche) and ``repro.bench`` (the
Fig. 10/11 harness).  Those are imported by ``repro.__main__`` (the
``bench``/``figures`` subcommands) and by tests, never by the library.

    IM001  a library module imports ``repro.baselines`` or ``repro.bench``
           (at module level or inside a function — a lazy import is still
           an edge of the graph)
    IM002  ``repro.service.core`` or ``repro.shard.deployment`` imports
           ``asyncio`` or ``repro.service.server``: the protocol's op
           semantics and the in-process transport that drives them are
           loop-free — only the asyncio server is built on an event loop
    IM003  ``repro.api`` imports ``repro.shard`` at module level: ``import
           repro.api`` loads no sharding module (``connect_sharded``
           imports the deployment when it is called)

Run from the repository root::

    python tools/check_imports.py            # lint the library packages
    python tools/check_imports.py PATH...    # lint specific files/dirs

Exit status 1 iff any finding.  ``lint_source`` is importable for tests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import lintcli
from lintcli import Finding

#: Packages the library must not import.
FORBIDDEN = ("repro.baselines", "repro.bench")

#: The loop-free modules, and what they must not import.
LOOP_FREE = ("repro.service.core", "repro.shard.deployment")
LOOP_BOUND = ("asyncio", "repro.service.server")

#: The façade, and what it imports only inside a function.
FACADE = "repro.api"
LAZY = ("repro.shard",)

DEFAULT_TARGETS = tuple(
    f"src/repro/{package}"
    for package in ("api", "service", "shard", "pipeline", "backend", "sql")
)


def _module_name(path: str) -> str:
    """``src/repro/sql/codegen.py`` → ``repro.sql.codegen`` (the package
    itself for ``__init__.py``); paths outside ``repro`` name nothing."""
    parts = Path(path).with_suffix("").parts
    if "repro" not in parts:
        return ""
    parts = parts[parts.index("repro") :]
    if parts[-1] == "__init__":
        parts = parts[:-1] + ("",)  # relative imports resolve against the package
    return ".".join(parts)


def _imported(node: ast.AST, module: str) -> list[str]:
    """The absolute dotted names ``node`` binds, if it is an import."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            package = module.split(".")[: -node.level]
            base = ".".join(package + ([base] if base else []))
        # ``from repro import bench`` binds repro.bench just as well.
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def _module_level(tree: ast.AST) -> set[int]:
    """The ids of the nodes an import of the module runs: all but those
    inside a function body."""
    ids, stack = set(), [tree]
    while stack:
        node = stack.pop()
        ids.add(id(node))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return ids


def lint_source(source: str, name: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings sorted by line."""
    module = _module_name(name)
    tree = ast.parse(source, filename=name)
    rules = [
        (
            "IM001",
            FORBIDDEN,
            "library module imports '{}' — evaluation code is reachable "
            "from repro.__main__ and tests only",
            None,
        )
    ]
    if module in LOOP_FREE:
        rules.append(
            (
                "IM002",
                LOOP_BOUND,
                "loop-free module imports '{}' — the event loop belongs to "
                "repro.service.server alone",
                None,
            )
        )
    if module == FACADE or module.startswith(FACADE + "."):
        rules.append(
            (
                "IM003",
                LAZY,
                "repro.api imports '{}' at module level — import it inside "
                "the function that needs it",
                _module_level(tree),
            )
        )
    findings = []
    for node in ast.walk(tree):
        targets = _imported(node, module)
        # A rule's scope: every node (None), or only the nodes with these ids.
        for code, forbidden, message, scope in rules:
            if scope is not None and id(node) not in scope:
                continue
            hit = next(
                (
                    target
                    for target in targets
                    for prefix in forbidden
                    if target == prefix or target.startswith(prefix + ".")
                ),
                None,
            )
            if hit is not None:
                findings.append(
                    Finding(code, name, node.lineno, message.format(hit))
                )
    return sorted(findings, key=lambda f: f.line)


def lint_paths(paths: list[Path]) -> list[Finding]:
    return lintcli.lint_paths(paths, lint_source)


def main(argv: list[str] | None = None) -> int:
    return lintcli.run("check_imports", lint_source, DEFAULT_TARGETS, argv)


if __name__ == "__main__":
    sys.exit(main())
