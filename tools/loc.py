#!/usr/bin/env python3
"""Code lines per package: lines carrying a non-comment token outside
docstrings (stdlib ``ast`` + ``tokenize``).  The counter behind every
CHANGES.md line-count claim.

    python tools/loc.py                  # src/repro/* packages + tests/
    python tools/loc.py src/repro/shard  # per-file table for one directory
    python tools/loc.py --against REV    # lines at git REV, now, and delta

``--against`` reads each file at ``REV`` through ``git show REV:path``
(run it from the repository root) and counts it the same way; it prints
only the rows whose count changed, then each root's totals.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

#: What the bare command counts: ``(root, one row per file?)``.
DEFAULT_ROOTS = ((Path("src/repro"), False), (Path("tests"), True))


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(getattr(body[0].value, "value", None), str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def counts(root: Path, sources: dict[Path, str], per_file: bool) -> dict[str, int]:
    """Code lines per row: a file, or a top-level package of ``root``."""
    rows: dict[str, int] = {}
    for path, source in sorted(sources.items()):
        parts = path.relative_to(root).parts
        key = str(path.relative_to(root)) if per_file or len(parts) == 1 else parts[0] + "/"
        rows[key] = rows.get(key, 0) + code_lines(source)
    return rows


def sources_now(root: Path) -> dict[Path, str]:
    return {path: path.read_text() for path in root.rglob("*.py")}


def sources_at(rev: str, root: Path) -> dict[Path, str]:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", str(root)).split("\n")
    return {Path(name): git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def table(root: Path, per_file: bool) -> None:
    rows = counts(root, sources_now(root), per_file)
    for key, count in rows.items():
        print(f"{count:7d}  {root}/{key}")
    print(f"{sum(rows.values()):7d}  {root} total")


def delta_table(rev: str, root: Path, per_file: bool) -> None:
    before = counts(root, sources_at(rev, root), per_file)
    now = counts(root, sources_now(root), per_file)
    for key in sorted(before.keys() | now.keys()):
        old, new = before.get(key, 0), now.get(key, 0)
        if old != new:
            print(f"{old:7d} {new:7d} {new - old:+7d}  {root}/{key}")
    old, new = sum(before.values()), sum(now.values())
    print(f"{old:7d} {new:7d} {new - old:+7d}  {root} total")


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments[:1] == ["--against"] and len(arguments) >= 2:
        rev, directories = arguments[1], arguments[2:]
        print(f"{rev[:7]:>7} {'now':>7} {'delta':>7}")
        roots = [(Path(d), True) for d in directories] or DEFAULT_ROOTS
        for root, per_file in roots:
            delta_table(rev, root, per_file)
    elif arguments:
        for argument in arguments:
            table(Path(argument), per_file=True)
    else:
        for root, per_file in DEFAULT_ROOTS:
            table(root, per_file)
