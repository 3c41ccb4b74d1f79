"""What the ``tools/check_*.py`` lints share: the finding record, the file
walk and the command line (``TOOL [PATH...]``, exit 1 iff any finding)."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Finding:
    code: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


LintSource = Callable[[str, str], "list[Finding]"]


def lint_paths(paths: list[Path], lint_source: LintSource) -> list[Finding]:
    findings: list[Finding] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            findings.extend(lint_source(file.read_text(), str(file)))
    return findings


def run(
    tool: str,
    lint_source: LintSource,
    default_targets: tuple[str, ...],
    argv: list[str] | None = None,
) -> int:
    args = sys.argv[1:] if argv is None else argv
    targets = [Path(arg) for arg in args or default_targets]
    missing = [target for target in targets if not target.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    findings = lint_paths(targets, lint_source)
    for finding in findings:
        print(finding)
    checked = ", ".join(map(str, targets))
    if findings:
        print(f"{tool}: {len(findings)} finding(s) in {checked}")
        return 1
    print(f"{tool}: clean ({checked})")
    return 0
