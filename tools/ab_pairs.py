#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload: the ledger
row behind a perf claim.

    python tools/ab_pairs.py --parent HEAD~1 --workload fig11_inproc --pairs 10 --seeds 601-610
    python tools/ab_pairs.py --parent main --workload sharded_bulk --pairs 10 --seeds 1-10

``REV`` is exported with ``git archive`` into a temporary directory (run
from the repository root).  Pair ``i`` runs ``bench/run.py --workload W
--seed A+i --trace 0`` once from that export and once from the working
tree, the parent first in even pairs and the change first in odd ones, each
in a process of its own and over the window ``BENCHMARK.json`` fixes;
nothing is written outside the temporary directory.

Per end-to-end metric of ``BENCHMARK.json`` it prints each side's median
[q1, q3] (the quartiles ``bench/compare.py`` measures spread with), the
pairs the change won (strictly better in the metric's direction), the
parent's quartile distance, the bound verdict of ``bench/compare.py``
over the two sides' runs, and the standing-rule (a)
verdict: ``gain`` when at least ten pairs ran, the change won ≥ 90 % of
them, and its median is better than the parent's by more than the
parent's quartile distance; ``loss`` the same the other way; ``none``
otherwise.  A pair in which either side fails stops the run.  Fewer than
ten pairs make a smoke check, not a ledger row, and the header says so:
five ``sharded_bulk`` pairs over two trees running the same sharded path
have read an 8 % gap that ten pairs of the same trees did not repeat.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Standing rule (a): the fewest pairs, and the share of them to win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def seed_range(text: str) -> list[int]:
    """``"A-B"`` → ``[A, …, B]``; a single ``"A"`` → ``[A]``."""
    first, _dash, last = text.partition("-")
    low, high = int(first), int(last or first)
    if high < low:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` as files under ``into`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One untraced window of ``workload`` from ``tree``'s own ``bench/``
    and ``src/``; the run's result document."""
    command = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0", "--out", str(out),
    ]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    subprocess.run(command, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    document = json.loads(out.read_text(encoding="utf-8"))
    entry = document["runs"][0]["workloads"][workload]
    if entry["failed"]:
        raise RuntimeError(f"{tree}: seed {seed} failed {entry['failed']} op(s)")
    return document


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles``' default (exclusive)
    method, as ``bench/compare.py`` measures spread; a single value is all
    three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(workload: str, parent: list[dict], change: list[dict]) -> list[dict]:
    """Per end-to-end metric: both sides' quartiles, the change's wins,
    and both verdicts.  ``parent[i]`` and ``change[i]`` are pair ``i``'s
    result documents."""
    sys.path.insert(0, str(ROOT / "bench"))
    from compare import compare

    bounds = {
        row["metric"]: row["verdict"]
        for row in compare({"runs": _runs(parent)}, {"runs": _runs(change)}, SPEC)
        if row["workload"] == workload
    }
    rows = []
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [_value(document, workload, name) for document in parent]
        new = [_value(document, workload, name) for document in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        gap = old_q[2] - old_q[0]
        better = (old_q[1] - new_q[1]) if lower else (new_q[1] - old_q[1])
        needed = math.ceil(WIN_SHARE * len(old))
        if len(old) < MIN_PAIRS:
            rule = "too few pairs"
        elif wins >= needed and better > gap:
            rule = "gain"
        elif len(old) - wins >= needed and -better > gap:
            rule = "loss"
        else:
            rule = "none"
        rows.append({
            "metric": name, "unit": metric["unit"], "parent": old_q, "change": new_q,
            "wins": wins, "pairs": len(old), "parent_iqr": gap,
            "bound": bounds.get(name, "n/a"), "rule_a": rule,
        })
    return rows


def _runs(documents: list[dict]) -> list[dict]:
    return [run for document in documents for run in document["runs"]]


def _value(document: dict, workload: str, metric: str) -> float:
    return document["runs"][0]["workloads"][workload]["end_to_end"][metric]["value"]


def header(workload: str, parent: str, seeds: list[int]) -> str:
    """The lines above the table: what ran, and — below
    :data:`MIN_PAIRS` — that the row is a smoke check."""
    lines = []
    if len(seeds) < MIN_PAIRS:
        lines.append(
            f"smoke check, not a ledger row: {len(seeds)} < {MIN_PAIRS} pairs decide nothing"
        )
    lines.append(
        f"{workload}: {parent} → working tree, {len(seeds)} alternating pairs, "
        f"seeds {seeds[0]}–{seeds[-1]}"
    )
    return "\n".join(lines)


def render(rows: list[dict]) -> str:
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{'metric':14s} {'parent median [q1, q3]':30s} {'change median [q1, q3]':30s} "
        f"{'wins':>7s} {'parent IQR':>10s}  {'bound':10s} rule (a)"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:14s} {cell(row['parent']):30s} {cell(row['change']):30s} "
            f"{row['wins']:>3d}/{row['pairs']:<3d} {row['parent_iqr']:10.4g}  "
            f"{row['bound']:10s} {row['rule_a']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B",
                        help="pair i runs seed A+i; the range holds one seed per pair")
    args = parser.parse_args(argv)
    if len(args.seeds) != args.pairs:
        parser.error(f"--seeds holds {len(args.seeds)} seeds for {args.pairs} pairs")

    parent: list[dict] = []
    change: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as workdir:
        work = Path(workdir)
        tree = export(args.parent, work / "parent")
        for index, seed in enumerate(args.seeds):
            sides = [(tree, parent, "parent"), (ROOT, change, "change")]
            for side_tree, documents, label in sides if index % 2 == 0 else sides[::-1]:
                out = work / f"{label}-{seed}.json"
                documents.append(run_once(side_tree, args.workload, seed, out))
            print(f"pair {index + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    rows = summarise(args.workload, parent, change)
    print(header(args.workload, args.parent, args.seeds))
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
