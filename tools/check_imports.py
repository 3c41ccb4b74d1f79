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


def lint_source(source: str, name: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings sorted by line."""
    module = _module_name(name)
    findings = []
    for node in ast.walk(ast.parse(source, filename=name)):
        hit = next(
            (
                target
                for target in _imported(node, module)
                for forbidden in FORBIDDEN
                if target == forbidden or target.startswith(forbidden + ".")
            ),
            None,
        )
        if hit is not None:
            findings.append(
                Finding(
                    "IM001",
                    name,
                    node.lineno,
                    f"library module imports '{hit}' — evaluation code is "
                    f"reachable from repro.__main__ and tests only",
                )
            )
    return sorted(findings, key=lambda f: f.line)


def lint_paths(paths: list[Path]) -> list[Finding]:
    return lintcli.lint_paths(paths, lint_source)


def main(argv: list[str] | None = None) -> int:
    return lintcli.run("check_imports", lint_source, DEFAULT_TARGETS, argv)


if __name__ == "__main__":
    sys.exit(main())
