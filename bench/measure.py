"""The timed window, and process-tree CPU and memory read from ``/proc``.

A workload is a set of closed-loop callers.  Each caller repeats
``op(i)`` then ``check(i, result)``; only the op is on the clock.  The
check (the correctness gate) runs between ops, and its wall and CPU time
are kept out of every metric, so the gate's cost never reads as the
program's.

The sandbox this runs in is a small VM whose speed drifts by tens of
percent for seconds to minutes at a time (a pure-Python loop shows it
with nothing else running).  So between ops the first caller also runs a
fixed *reference kernel*, every 0.1 s of op time or so, and every timing
is reported at reference host speed: scaled by ``REFERENCE_S`` ÷ the
kernel's median time around the same moment.  The raw values are kept
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from spans import median, percentile

SEGMENTS = 5
_TICKS = os.sysconf("SC_CLK_TCK")
#: The reference kernel's time on the nominal host; only fixes the scale.
REFERENCE_S = 0.008
#: Op time a caller lets pass between two runs of the reference kernel.
TICK_EVERY_S = 0.1
#: An op is scaled by the kernel runs within this much op time of it.
SMOOTH_S = 1.0


def reference_kernel() -> float:
    """Seconds a fixed mix of interpreter work takes right now (integer
    arithmetic, a sort, dict grouping, object building — what decode and
    stitch are made of).  It touches nothing of the program's; the
    collector is held off meanwhile, so its time does not depend on how
    many objects the program keeps alive."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i % 7
        rows = [(i * 7919 % 1009, i) for i in range(12_000)]
        rows.sort()
        groups: dict[int, list] = {}
        for key, value in rows:
            groups.setdefault(key, []).append({"v": value})
        [{"k": key, "n": len(values)} for key, values in groups.items()]
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def host_factor(kernel_seconds: Sequence[float]) -> float:
    """What to multiply a measured time by to read it at reference speed."""
    return REFERENCE_S / median(kernel_seconds)


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None  # the process ended between listing and reading
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  Index 0 below is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2 :].split()


def process_tree() -> dict[int, list[str]]:
    """``/proc/<pid>/stat`` fields of this process and every live descendant."""
    stats: dict[int, list[str]] = {}
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                stats[int(entry)] = fields
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = {}, [os.getpid()]
    while frontier:
        pid = frontier.pop()
        tree[pid] = stats[pid]
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds() -> float:
    """User + system CPU of this process and its descendants, including
    children they have already reaped."""
    ticks = sum(
        int(fields[i]) for fields in process_tree().values() for i in (11, 12, 13, 14)
    )
    return ticks / _TICKS


def tree_peak_rss_mb() -> float:
    """Σ peak resident set (``VmHWM``) of this process and its descendants."""
    total_kb = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


class Stages(dict):
    """Named set-up stages and the seconds each took; their sum is the
    set-up time.  Work done outside ``timed`` blocks (the oracle, the
    gate's comparisons) is the benchmark's own and is not counted.  The
    reference kernel runs before the first block and after every block,
    which puts the total at reference host speed."""

    def __init__(self) -> None:
        super().__init__()
        self._kernel = [reference_kernel()]

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - started
            self._kernel.append(reference_kernel())

    def total_at_reference_speed(self) -> float:
        return sum(self.values()) * host_factor(self._kernel)


def round_robin(
    variants: dict[str, Callable[[int], object]], seconds: float, min_cycles: int = 3
) -> dict[str, list[float]]:
    """Call the variants in turn until ``seconds`` have passed (at least
    ``min_cycles`` times each); per variant, the milliseconds of each
    call.  Taking turns spreads drift over all variants alike."""
    times: dict[str, list[float]] = {name: [] for name in variants}
    started = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - started < seconds:
        for name, call in variants.items():
            before = time.perf_counter()
            call(cycle)
            times[name].append((time.perf_counter() - before) * 1000.0)
        cycle += 1
    return times


@dataclass
class Caller:
    op: Callable[[int], object]
    check: Callable[[int, object], bool]


class Rounds:
    """The bulk workloads' op: one round of ``self.prepared`` (name →
    something with ``.run()``) in a seeded order, gated by ``self.gate``:
    the first and the last op in full, every other op by shape."""

    ORDERS = 512  # pre-drawn orders, cycled

    def draw_orders(self, seed: int, names: Sequence[str]) -> None:
        rng = random.Random(seed)
        self.orders = [rng.sample(names, len(names)) for _ in range(self.ORDERS)]
        self.last = None

    def order(self, index: int) -> list[str]:
        return self.orders[index % self.ORDERS]

    def op(self, index: int) -> list:
        return [(name, self.prepared[name].run()) for name in self.order(index)]

    def check(self, index: int, results) -> bool:
        self.last = results
        test = self.gate.full if index == 0 else self.gate.quick
        return all(test(name, result.value) for name, result in results)

    def make_callers(self) -> list[Caller]:
        return [Caller(self.op, self.check)]

    def verify_last(self) -> bool:
        return all(self.gate.full(name, result.value) for name, result in self.last)


@dataclass
class Window:
    """What the closed loop observed.  ``samples`` are (timed clock at
    completion, latency ms) of correct ops, per caller; ``ticks`` are
    (timed clock, reference-kernel seconds); ``marks`` are (tree CPU s,
    correct ops, CPU s spent off the clock) at the window's start, at
    each segment boundary and at its end."""

    seconds: float
    samples: list[list[tuple[float, float]]]
    ticks: list[tuple[float, float]]
    marks: list[tuple[float, int, float]]
    attempted: int
    failed: int
    first_error: str


class _Progress:
    """One caller's running totals, read by whoever takes a mark."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.ticks: list[tuple[float, float]] = []  # the lead's only
        self.attempted = self.failed = 0
        self.check_cpu = 0.0  # the gate's and the reference kernel's CPU
        self.first_error = ""


def _run_caller(
    caller: Caller, seconds: float, mine: _Progress, pause: threading.Barrier, mark=None
) -> None:
    """One caller's loop.  Every caller's timed clock passes the same
    tick times (multiples of ``TICK_EVERY_S``), and at each all callers
    pause at ``pause`` while the lead (the one given ``mark``) runs the
    reference kernel alone — run beside a busy caller it would fight that
    caller for the interpreter lock and both would read slow.  The lead
    also calls ``mark`` as its clock passes each inner segment boundary."""
    timed = 0.0
    ticks_passed = marks_taken = 0
    step = seconds / SEGMENTS
    index = 0
    while True:
        while (due := ticks_passed * TICK_EVERY_S) <= timed and due < seconds:
            pause.wait()
            if mark is not None and due + TICK_EVERY_S > timed:  # one run per stop
                cpu_before = time.thread_time()
                mine.ticks.append((timed, reference_kernel()))
                mine.check_cpu += time.thread_time() - cpu_before
            pause.wait()
            ticks_passed += 1
        if timed >= seconds:
            break
        started = time.perf_counter()
        try:
            result, error = caller.op(index), None
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        timed += elapsed
        cpu_before = time.thread_time()
        if error is None and not caller.check(index, result):
            error = f"wrong result at op {index}"
        mine.check_cpu += time.thread_time() - cpu_before
        mine.attempted += 1
        if error is None:
            mine.samples.append((timed, elapsed * 1000.0))
        else:
            mine.failed += 1
            mine.first_error = mine.first_error or error
        index += 1
        while mark is not None and marks_taken < SEGMENTS - 1 and (marks_taken + 1) * step <= timed:
            mark()
            marks_taken += 1


def closed_loop(callers: Sequence[Caller], seconds: float) -> Window:
    """Run every caller for ``seconds`` of op time (one thread each; the
    first runs on the calling thread and takes the marks)."""
    progress = [_Progress() for _ in callers]
    marks: list[tuple[float, int, float]] = []

    def mark() -> None:
        marks.append(
            (
                tree_cpu_seconds(),
                sum(len(p.samples) for p in progress),
                sum(p.check_cpu for p in progress),
            )
        )

    pause = threading.Barrier(len(callers), timeout=60)
    threads = [
        threading.Thread(target=_run_caller, args=(caller, seconds, mine, pause))
        for caller, mine in zip(callers[1:], progress[1:])
    ]
    mark()
    for thread in threads:
        thread.start()
    _run_caller(callers[0], seconds, progress[0], pause, mark)
    for thread in threads:
        thread.join()
    mark()
    return Window(
        seconds=seconds,
        samples=[p.samples for p in progress],
        ticks=progress[0].ticks,
        marks=marks,
        attempted=sum(p.attempted for p in progress),
        failed=sum(p.failed for p in progress),
        first_error=next((p.first_error for p in progress if p.first_error), ""),
    )


def _local_factors(window: Window) -> Callable[[float, float], float]:
    """factor(lo, hi): the host factor from the kernel runs whose timed
    clock lies in [lo, hi] (all of them when none does)."""
    ticks = sorted(window.ticks)
    times = [at for at, _seconds in ticks]
    every = host_factor([seconds for _at, seconds in ticks])

    def factor(lo: float, hi: float) -> float:
        near = ticks[bisect.bisect_left(times, lo) : bisect.bisect_right(times, hi)]
        return host_factor([seconds for _at, seconds in near]) if near else every

    return factor


def end_to_end(window: Window) -> dict[str, dict]:
    """The window's end-to-end metrics, read at reference host speed:
    each op's latency is scaled by the kernel runs within ``SMOOTH_S`` of
    it, then percentiles are taken over the whole window.  The same
    statistic over ``SEGMENTS`` equal slices of the window is kept as
    ``segments`` (the run's own dispersion, which ``compare.py`` reads)
    and the unscaled value as ``raw``."""
    factor = _local_factors(window)
    callers = len(window.samples)
    ops = [
        (at, ms, ms * factor(at - SMOOTH_S, at + SMOOTH_S))
        for caller in window.samples
        for at, ms in caller
    ]
    step = window.seconds / SEGMENTS
    slices: list[list] = [[] for _ in range(SEGMENTS)]
    for op in ops:  # an op that ends past the window belongs to the last slice
        slices[min(int(op[0] / step), SEGMENTS - 1)].append(op)
    # CPU is only known per slice (the marks); scale it slice by slice.
    cpu_raw = cpu_scaled = 0.0
    cpu_segments = []
    for k in range(SEGMENTS):
        before, after = window.marks[k], window.marks[k + 1]
        cpu = (after[0] - before[0]) - (after[2] - before[2])
        scaled = cpu * factor(k * step, (k + 1) * step)
        cpu_raw += cpu
        cpu_scaled += scaled
        if after[1] > before[1]:
            cpu_segments.append(scaled * 1000.0 / (after[1] - before[1]))

    def statistic(fn, unit: str) -> dict:
        return {
            "value": fn([scaled for _at, _ms, scaled in ops]),
            "unit": unit,
            "segments": [fn([scaled for _a, _m, scaled in part]) for part in slices if part],
            "raw": fn([ms for _at, ms, _scaled in ops]),
        }

    # Every caller is inside an op at all times, so op time is Σ latency ÷ callers.
    def per_second(latencies: list[float]) -> float:
        return len(latencies) * callers * 1000.0 / sum(latencies)

    return {
        "op_ms_p50": statistic(median, "ms"),
        "op_ms_p90": statistic(lambda values: percentile(values, 90.0), "ms"),
        "ops_per_s": statistic(per_second, "1/s"),
        "cpu_ms_per_op": {
            "value": cpu_scaled * 1000.0 / len(ops),
            "unit": "ms",
            "segments": cpu_segments,
            "raw": cpu_raw * 1000.0 / len(ops),
        },
    }
