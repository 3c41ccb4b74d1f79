"""``bench compare OLD NEW``: did an end-to-end metric move, per workload?

    python3 bench/compare.py bench/results/old.json bench/results/new.json

Each file is a result document of ``run.py`` holding one run or several.
Per workload × end-to-end metric the verdict is

* ``unresolved`` when either side's own spread exceeds the metric's
  bound (the quartile distance of its runs over their median; for a
  single run, of its five window segments) — never ``same``;
* ``worse`` / ``better`` when NEW's median differs from OLD's by more
  than the bound, in that direction;
* ``same`` otherwise.

Bounds come from ``BENCHMARK.json``.  Every ratio is printed with its
base.  Exits 1 when anything is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _spread(values: list[float]) -> float:
    """Quartile distance over the median; 0 when there is nothing to spread."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _side(document: dict, workload: str, metric: str) -> tuple[float, float, int]:
    """(median, own spread, runs) of one metric on one side."""
    cells = [
        run["workloads"][workload]["end_to_end"][metric]
        for run in document["runs"]
        if workload in run["workloads"]
    ]
    values = [cell["value"] for cell in cells]
    spread = _spread(values) if len(values) >= 4 else max(
        _spread(cell["segments"]) for cell in cells
    )
    return statistics.median(values), spread, len(values)


def compare(old: dict, new: dict, spec: dict) -> list[dict]:
    workloads = [
        w["name"]
        for w in spec["workloads"]
        if all(any(w["name"] in run["workloads"] for run in side["runs"]) for side in (old, new))
    ]
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old_median, old_spread, old_runs = _side(old, workload, name)
            new_median, new_spread, new_runs = _side(new, workload, name)
            ratio = new_median / old_median
            worsening = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if max(old_spread, new_spread) > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "old": old_median,
                    "new": new_median,
                    "ratio": ratio,
                    "old_spread": old_spread,
                    "new_spread": new_spread,
                    "runs": (old_runs, new_runs),
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':14s} {'verdict':10s} new/old (base: old)"
        f"{'':14s} spread old / new   bound"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:14s} {row['metric']:14s} {row['verdict']:10s} "
            f"{row['ratio']:6.3f} × {row['old']:.4g} {row['unit']:4s} → {row['new']:.4g}"
            f"   {row['old_spread']:.3f} / {row['new_spread']:.3f}"
            f"   {row['bound']:.2f}   ({row['runs'][0]} vs {row['runs'][1]} runs)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    rows = compare(old, new, spec)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
