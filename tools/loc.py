#!/usr/bin/env python3
"""Code lines per package: lines carrying a non-comment token outside
docstrings (stdlib ``ast`` + ``tokenize``).  The counter behind every
CHANGES.md line-count claim.

    python tools/loc.py                  # src/repro/* packages + tests/
    python tools/loc.py src/repro/shard  # per-file table for one directory
    python tools/loc.py tests/test_x.py  # one file
    python tools/loc.py --against REV    # lines at git REV, now, and delta

``--against`` reads each file at ``REV`` through ``git show REV:path``
(run it from the repository root) and counts it the same way; it prints
only the rows whose count changed, then each root's totals.  A path given
must be a directory or a ``.py`` file that exists now (or, with
``--against``, at ``REV``: a path deleted since counts as 0 now); any
other path is refused, naming it.
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
        key = str(path) if per_file or len(parts) <= 1 else f"{root / parts[0]}/"
        rows[key] = rows.get(key, 0) + code_lines(source)
    return rows


def sources_now(root: Path) -> dict[Path, str]:
    paths = [root] if root.is_file() else root.rglob("*.py")
    return {path: path.read_text() for path in paths}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def sources_at(rev: str, root: Path) -> dict[Path, str]:
    names = git("ls-tree", "-r", "--name-only", rev, "--", str(root)).split("\n")
    return {Path(name): git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def refuse_unknown(root: Path, rev: str | None) -> None:
    """Exit naming ``root`` unless it is a directory or a ``.py`` file, now
    or at ``rev``."""
    if root.is_dir() or (root.is_file() and root.suffix == ".py"):
        return
    if rev is not None and root.suffix in ("", ".py") and git("ls-tree", rev, "--", str(root)):
        return
    where = "" if rev is None else f" (nor at {rev})"
    sys.exit(f"loc.py: {root}: not a directory or a .py file{where}")


def table(root: Path, per_file: bool) -> None:
    rows = counts(root, sources_now(root), per_file)
    for key, count in rows.items():
        print(f"{count:7d}  {key}")
    print(f"{sum(rows.values()):7d}  {root} total")


def delta_table(rev: str, root: Path, per_file: bool) -> None:
    before = counts(root, sources_at(rev, root), per_file)
    now = counts(root, sources_now(root) if root.exists() else {}, per_file)
    for key in sorted(before.keys() | now.keys()):
        old, new = before.get(key, 0), now.get(key, 0)
        if old != new:
            print(f"{old:7d} {new:7d} {new - old:+7d}  {key}")
    old, new = sum(before.values()), sum(now.values())
    print(f"{old:7d} {new:7d} {new - old:+7d}  {root} total")


def main(arguments: list[str]) -> None:
    if any(argument in ("-h", "--help") for argument in arguments):
        print(__doc__)
        return
    rev = None
    if arguments[:1] == ["--against"]:
        if len(arguments) < 2:
            sys.exit("loc.py: --against needs a git revision")
        rev, arguments = arguments[1], arguments[2:]
    unknown = [argument for argument in arguments if argument.startswith("-")]
    if unknown:
        sys.exit(f"loc.py: unknown option {unknown[0]} (see --help)")
    roots = [(Path(argument), True) for argument in arguments] or DEFAULT_ROOTS
    for root, _ in roots:
        refuse_unknown(root, rev)
    if rev is not None:
        print(f"{rev[:7]:>7} {'now':>7} {'delta':>7}")
    for root, per_file in roots:
        if rev is None:
            table(root, per_file)
        else:
            delta_table(rev, root, per_file)


if __name__ == "__main__":
    main(sys.argv[1:])
