"""Benchmark harness (§8): systems registry, timed runs, scale sweeps.

The paper measures "total time to translate a nested query to SQL, evaluate
the resulting SQL queries, and stitch the results together" — so a *run*
here is compile + execute + stitch, end to end, against an already-loaded
database (data generation and loading are excluded, like the paper's).

Times are medians over ``repeats`` runs (paper: medians of 5).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.backend.database import Database
from repro.baselines.looplifting import LoopLiftingPipeline
from repro.baselines.naive import AvalanchePipeline
from repro.data.generator import scaled_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES, QF_SQL
from repro.nrc.ast import Term
from repro.pipeline.flat import compile_flat_query
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions

__all__ = [
    "SYSTEMS",
    "BenchConfig",
    "CellResult",
    "run_system",
    "median_millis",
    "sweep",
    "default_scales",
]

Runner = Callable[[Term, Database], object]


def median_millis(fn: Callable[[], object], repeats: int | None = None) -> float:
    """Median wall time of ``fn()`` over ``max(1, repeats)`` calls, in ms.

    The one timing helper: the sweeps and the bar benchmarks
    (``benchmarks/test_plan_cache.py`` / ``test_shard_scaling.py``) all
    time through it.  ``repeats`` defaults to ``REPRO_BENCH_REPEATS`` (5).
    """
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
    samples = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


# Every system is a fresh compile per run over the store as it is: none
# advises an index or runs ANALYZE, so one generated store per scale
# serves every cell of a sweep and no system's cells flatter another's.


def _run_shredding(query: Term, db: Database) -> object:
    return ShreddingPipeline(db.schema).run(query, db)


# The §6.2/§7 let-inserted ROW_NUMBER form and its §8 knobs: forced, since
# a schema with keys on every table otherwise resolves to key indexes.


def _run_shredding_flat(query: Term, db: Database) -> object:
    options = SqlOptions(scheme="flat")
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_inline(query: Term, db: Database) -> object:
    options = SqlOptions(scheme="flat", inline_with=True)
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_keys(query: Term, db: Database) -> object:
    options = SqlOptions(scheme="flat", order_by_keys=True)
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_looplifting(query: Term, db: Database) -> object:
    return LoopLiftingPipeline(db.schema).run(query, db)


def _run_default_flat(query: Term, db: Database) -> object:
    compiled = compile_flat_query(query, db.schema)
    return compiled.decode_rows(db.execute_sql(compiled.sql))


def _run_avalanche(query: Term, db: Database) -> object:
    return AvalanchePipeline(db.schema).run(query, db)


#: The systems of Figs. 10-11 (default, shredding, loop-lifting), the
#: N+1 avalanche of §1 and the §6 plan-shape ablations.
SYSTEMS: dict[str, Runner] = {
    "shredding": _run_shredding,
    "loop-lifting": _run_looplifting,
    "default": _run_default_flat,
    "avalanche": _run_avalanche,
    "shredding-flat": _run_shredding_flat,
    "shredding-inline-with": _run_shredding_inline,
    "shredding-key-rownum": _run_shredding_keys,
}


@dataclass
class BenchConfig:
    """Sweep configuration, overridable by the ``REPRO_BENCH_*``
    environment variables (README, "Benchmarks")."""

    max_departments: int = int(os.environ.get("REPRO_BENCH_MAX_DEPTS", "64"))
    min_departments: int = int(os.environ.get("REPRO_BENCH_MIN_DEPTS", "4"))
    employees_per_dept: int = int(os.environ.get("REPRO_BENCH_ROWS", "20"))
    repeats: int = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    #: Per-cell time budget (ms); slower cells abandon larger scales,
    #: mirroring the paper's "did not finish within 1 minute" cut-off.
    cell_budget_ms: float = float(
        os.environ.get("REPRO_BENCH_BUDGET_MS", "15000")
    )
    seed: int = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@dataclass
class CellResult:
    query: str
    system: str
    departments: int
    millis: float | None  # None = skipped/over budget
    note: str = ""


def default_scales(config: BenchConfig) -> list[int]:
    """Departments 4, 8, …, max (powers of two, §8)."""
    scales = []
    n = config.min_departments
    while n <= config.max_departments:
        scales.append(n)
        n *= 2
    return scales


ALL_BENCH_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}


def run_system(
    system: str, query_name: str, db: Database, repeats: int = 3
) -> float:
    """Time one (system, query) cell on a prepared database: the median
    wall-clock milliseconds of compile + execute + stitch."""
    query = ALL_BENCH_QUERIES[query_name]
    if system == "default-raw-sql":
        sql = QF_SQL[query_name]
        return median_millis(lambda: db.execute_sql(sql), repeats)
    runner = SYSTEMS[system]
    return median_millis(lambda: runner(query, db), repeats)


def sweep(
    query_names: list[str],
    systems: list[str],
    config: BenchConfig | None = None,
) -> list[CellResult]:
    """The Fig. 10/11 sweep: every query × system × scale.

    One database is generated per scale and shared by every cell; a system
    that blows its budget at some scale is skipped at larger scales for
    that query.
    """
    config = config or BenchConfig()
    results: list[CellResult] = []
    over_budget: set[tuple[str, str]] = set()
    for departments in default_scales(config):
        db = scaled_database(
            departments, seed=config.seed, scale_rows=config.employees_per_dept
        )
        db.connection()  # materialise SQLite outside the timed region
        for query_name in query_names:
            for system in systems:
                if (query_name, system) in over_budget:
                    results.append(
                        CellResult(
                            query_name, system, departments, None, "over budget"
                        )
                    )
                    continue
                millis = run_system(
                    system, query_name, db, repeats=config.repeats
                )
                results.append(
                    CellResult(query_name, system, departments, millis)
                )
                if millis > config.cell_budget_ms:
                    over_budget.add((query_name, system))
    return results
