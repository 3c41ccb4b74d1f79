"""The repository benchmark: one command, every metric by name.

    python3 bench/run.py --seed 0                      # all four workloads
    python3 bench/run.py --seed 0 --workload fig11_inproc
    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 bench/run.py --aa 10                       # A/A: two sets of 5 runs

Without ``--trace`` each workload is measured twice, each time in a
process of its own: the timed window with tracing off (end-to-end
metrics), then the traced run (per-layer metrics), and every metric is
printed with its unit.  With ``--trace`` only that half runs, here, and
the last line of output is the result as one JSON object.  Names, units
and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from measure import closed_loop, end_to_end, reference_kernel, tree_peak_rss_mb  # noqa: E402
from spans import SpanRecorder, median  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
SETUPS = 3  # set-ups per run; setup_s is their median
QUICK_SECONDS = 0.3
#: Hard limit on one half-run (window or traced) of one workload.
TIMEOUT_S = 170


def workload_classes() -> dict:
    from inproc import CompileCold, Fig11Inproc
    from served import ServedPoint
    from sharded import ShardedBulk

    classes = (Fig11Inproc, CompileCold, ServedPoint, ShardedBulk)
    return {cls.name: cls for cls in classes}


@contextmanager
def guarded(cls):
    """Run one half of ``cls``: raise in the main thread after
    ``TIMEOUT_S`` (the workloads' ``finally`` blocks then reap whatever
    they spawned), and keep an in-process workload on one core.

    On this host a process the scheduler moves between the two cores runs
    up to 2× slower for minutes at a time, threads or not, and the
    reference kernel does not follow it; pinned, it does not happen.  The
    engine's threads share the interpreter lock anyway (unpinned, process
    CPU ≈ wall).  Workloads with server processes are left to the
    scheduler: their parallelism is what they measure."""

    def expire(_signum, _frame):
        raise TimeoutError(f"workload exceeded {TIMEOUT_S}s")

    cores = os.sched_getaffinity(0)
    if cls.one_core:
        os.sched_setaffinity(0, {min(cores)})
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cores)


def measure_window(cls, seed: int, seconds: float, quick: bool) -> dict:
    """Set up (``SETUPS`` times), run the timed window with tracing off,
    verify, tear down."""
    setup_raw, setup_samples = [], []
    workload = None
    with guarded(cls):
        try:
            for attempt in range(SETUPS):
                workload = cls(seed, quick)
                stages = workload.setup()
                setup_raw.append(sum(stages.values()))
                setup_samples.append(stages.total_at_reference_speed())
                if attempt < SETUPS - 1:
                    workload.close()
                    workload = None
            gc.collect()
            gc.freeze()
            window = closed_loop(workload.make_callers(), seconds)
            last_ok = workload.verify_last()
            peak_rss = tree_peak_rss_mb()
        finally:
            gc.unfreeze()
            if workload is not None:
                workload.close()
    if not any(window.samples):
        raise RuntimeError(f"{cls.name}: no op succeeded ({window.first_error})")
    metrics = end_to_end(window)
    metrics["setup_s"] = {
        "value": median(setup_samples), "unit": "s", "segments": setup_samples,
        "raw": median(setup_raw),
    }
    metrics["peak_rss_mb"] = {
        "value": peak_rss, "unit": "MB", "segments": [], "raw": peak_rss,
    }
    return {
        "correct": window.failed == 0 and last_ok,
        "attempted": window.attempted,
        "failed": window.failed + (0 if last_ok else 1),
        "first_error": window.first_error,
        "loop": cls.loop,
        "callers": cls.callers,
        "metrics": metrics,
    }


def measure_layers(cls, seed: int, seconds: float, quick: bool, spans_out=None) -> dict:
    """Set up once and run the traced run; every per-layer metric the
    workload does not exercise reads 0."""
    recorder = SpanRecorder()
    with guarded(cls):
        workload = cls(seed, quick)
        try:
            workload.setup()
            kernel = [reference_kernel() for _ in range(5)]
            measured = workload.traced(seconds, recorder)
            kernel += [reference_kernel() for _ in range(5)]
        finally:
            workload.close()
    if set(measured) != set(cls.LAYER_METRICS):
        raise RuntimeError(
            f"{cls.name}: traced run emitted "
            f"{sorted(set(measured) ^ set(cls.LAYER_METRICS))} off its declared list"
        )
    if spans_out is not None:
        recorder.dump(spans_out)
    # Per-layer numbers are as measured; this one lets a reader put them
    # at reference host speed (× measure.REFERENCE_S ÷ it).
    measured["obs.host_kernel_ms"] = median(kernel) * 1000.0
    return {
        "correct": True,  # a traced run that disagrees with the oracle raises
        "attempted": len(recorder.spans) or 1,
        "failed": 0,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": spec["unit"]}
            for name, spec in PER_LAYER.items()
        },
    }


def provenance(seed: int, seconds: float) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref[5:]
        else:
            commit = ref
    return {
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:16.6f} {metric['unit']}")


def entry_of(result: dict, trace: int) -> dict:
    """A half's result as one workload's entry in a result document."""
    entry = {key: value for key, value in result.items() if key != "metrics"}
    entry["per_layer" if trace else "end_to_end"] = result["metrics"]
    return entry


def run_half(name: str, trace: int, seed: int, seconds: float, quick: bool, out_dir: Path) -> dict:
    """One half of one workload in a process of its own — nothing warm,
    and no memory high-water mark, carries over from the previous one —
    returning its entry of the result document."""
    path = out_dir / f"half-{os.getpid()}-{name}-{trace}.json"
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(path),
    ]
    subprocess.run(
        command + (["--quick"] if quick else []),
        check=True, stdout=subprocess.DEVNULL, timeout=2 * TIMEOUT_S,
    )
    try:
        return json.loads(path.read_text(encoding="utf-8"))["runs"][0]["workloads"][name]
    finally:
        path.unlink()


def run_suite(names, seed: int, seconds: float, quick: bool, out_dir: Path) -> dict:
    """Both halves of every named workload, printed; the run's document."""
    workloads = {}
    for name in names:
        entry = run_half(name, 0, seed, seconds, quick, out_dir)
        entry["per_layer"] = run_half(name, 1, seed, seconds, quick, out_dir)["per_layer"]
        failed_share = entry["failed"] / entry["attempted"]
        print(f"== {name}  ({entry['loop']} loop, {entry['callers']} caller(s), "
              f"{entry['attempted']} ops, failed_share {failed_share:.6f})")
        print_metrics("end to end (tracing off)", entry["end_to_end"])
        print_metrics("per layer (traced run)", entry["per_layer"])
        workloads[name] = entry
    return {"provenance": provenance(seed, seconds), "workloads": workloads}


def run_aa(count: int, names, seed: int, seconds: float, quick: bool, out_dir: Path) -> list:
    """``count`` runs of every window, as ``count`` documents."""
    return [
        {
            "provenance": provenance(seed, seconds),
            "workloads": {
                name: run_half(name, 0, seed, seconds, quick, out_dir) for name in names
            },
        }
        for _ in range(count)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny data and a sub-second window (self-test)")
    parser.add_argument("--out", type=Path,
                        help="result document (default: under bench/results/)")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run every window N times and compare the two halves")
    args = parser.parse_args(argv)
    # Stage verification defaults to "on under pytest or CI"; pin it off
    # (here and, by inheritance, in every server) so a CI variable in the
    # environment cannot change what the window measures.
    os.environ.setdefault("REPRO_VERIFY", "0")
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    out_dir = BENCH / "results"

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        cls = workload_classes()[args.workload]
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            result = measure_layers(
                cls, args.seed, seconds, args.quick,
                out_dir / f"{args.workload}-seed{args.seed}-spans.json",
            )
        else:
            result = measure_window(cls, args.seed, seconds, args.quick)
            if result["first_error"]:
                print(f"first error: {result['first_error']}", file=sys.stderr)
        if args.out:
            document = {
                "provenance": provenance(args.seed, seconds),
                "workloads": {args.workload: entry_of(result, args.trace)},
            }
            args.out.write_text(json.dumps({"runs": [document]}, indent=1), encoding="utf-8")
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }))
        return 0

    out_dir.mkdir(exist_ok=True)
    if args.aa:
        runs = run_aa(args.aa, names, args.seed, seconds, args.quick, out_dir)
    else:
        runs = [run_suite(names, args.seed, seconds, args.quick, out_dir)]
    out = args.out or out_dir / f"run-{time.strftime('%Y%m%dT%H%M%S')}-seed{args.seed}.json"
    out.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")
    print(f"results written to {out}")
    if args.aa:
        from compare import compare, render

        print(render(compare({"runs": runs[0::2]}, {"runs": runs[1::2]}, SPEC)))
    return 0 if all(w["correct"] for run in runs for w in run["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
