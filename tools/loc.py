#!/usr/bin/env python3
"""Code lines per package: lines carrying a non-comment token outside
docstrings (stdlib ``ast`` + ``tokenize``).  The counter behind every
CHANGES.md line-count claim.

    python tools/loc.py                  # src/repro/* packages + tests/
    python tools/loc.py src/repro/shard  # per-file table for one directory
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


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


def table(root: Path, per_file: bool) -> None:
    counts: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        key = str(path.relative_to(root)) if per_file or len(parts) == 1 else parts[0] + "/"
        counts[key] = counts.get(key, 0) + code_lines(path.read_text())
    for key, count in counts.items():
        print(f"{count:7d}  {root}/{key}")
    print(f"{sum(counts.values()):7d}  {root} total")


if __name__ == "__main__":
    if sys.argv[1:]:
        for argument in sys.argv[1:]:
            table(Path(argument), per_file=True)
    else:
        table(Path("src/repro"), per_file=False)
        table(Path("tests"), per_file=True)
