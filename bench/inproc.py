"""The two in-process workloads, and the stage-by-stage pipeline replay.

``fig11_inproc`` is the paper's Fig. 11: warm plans, data work only.
``compile_cold`` is App. C: no plan cache, tiny data, so every op pays
normalise → shred → let-insert → SQL generation.

The traced run replays the pipeline through the layers' public
functions, one span per call, and checks that the replay returns the
value ``Prepared.run()`` returns, so the ledger describes the same
program the window timed.
"""

from __future__ import annotations

import functools
import math
import random
import time

from repro.api import SqlOptions, connect
from repro.backend.executor import (
    ExecutionStats,
    ensure_compiled_indexes,
    execute_package_batched,
)
from repro.data.generator import scaled_database
from repro.data.organisation import figure3_database
from repro.letins.translate import let_insert
from repro.normalise import nf_to_term, normalise
from repro.nrc import ast
from repro.nrc.typecheck import infer
from repro.obs import Tracer
from repro.pipeline import ShreddingPipeline
from repro.pipeline.plan_cache import shared_plan_cache
from repro.service.registry import paper_registry
from repro.shred import (
    TOP_TAG,
    annotation_at,
    annotations,
    package_from,
    paths,
    shred_query_package,
    type_at,
)
from repro.shred.stitch import stitch_grouped
from repro.sql.codegen import compile_shredded

from measure import Caller, Rounds, Stages, round_robin
from oracle import Gate, Oracle
from spans import SpanRecorder, median, rollup, unaccounted_share

PAPER_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
#: The flat scheme's top-level ⊤·1 context, as the batched engine keys it.
TOP_KEY = (TOP_TAG, 1)
ORDERS = 512  # pre-drawn op orders and parameters of compile_cold, cycled


@functools.cache
def catalogue() -> dict:
    """name → λNRC term, for the paper queries and the two registry shapes
    (one shared, read-only dict)."""
    registry = paper_registry()
    return {name: registry.lookup(name).term for name in registry.names()}


# --------------------------------------------------------------------------
# The replay: each layer called through its public function.


def replay_compile(term, schema, options, rec: SpanRecorder):
    """normalise → shred → SQL generation for one query; returns the SQL
    package and the result type.  (``compile_shredded`` let-inserts
    internally; the traced run prices that step on its own.)"""
    with rec.span("normalise"):
        normal_form = normalise(term, schema)
    result_type = infer(nf_to_term(normal_form), schema)
    with rec.span("shred"):
        shredded = shred_query_package(normal_form, result_type)
    compiled = {}
    for path in paths(result_type):
        with rec.span("sql"):
            compiled[path] = compile_shredded(
                annotation_at(shredded, path),
                type_at(result_type, path).element,
                schema,
                options,
            )
    return package_from(result_type, compiled.__getitem__), normal_form, shredded


def replay_execute(db, sql_package, params, parallel, rec: SpanRecorder, stats=None):
    """SQLite + decode, then stitch.  With spans on, the program's own
    tracer supplies the sql/decode split of every statement."""
    with rec.span("backend"):
        tracer = Tracer() if rec.enabled else None
        results = execute_package_batched(
            db,
            sql_package,
            stats=stats,
            params=params,
            parallel=parallel,
            tracer=tracer,
        )
        if tracer is not None:
            for statement in tracer.spans:
                for part in statement.children:
                    rec.record(part.name, part.duration_ms / 1000.0)
    with rec.span("stitch"):
        return stitch_grouped(results, TOP_KEY)


def let_insert_all(shredded_packages) -> None:
    """Let-insert every shredded query of the packages."""
    for package in shredded_packages:
        for _path, query in annotations(package):
            let_insert(query)


def span_ms(table: dict, name: str, ops: int) -> float:
    return table.get(name, {"total_ms": 0.0})["total_ms"] / ops


def execution_ledger(rec: SpanRecorder, ops: int, rows_per_op: float, values_per_op: int) -> dict:
    """backend/stitch/obs metrics out of the traced ops' spans."""
    table = rollup(rec.spans)
    backend = span_ms(table, "backend", ops)
    stitch = span_ms(table, "stitch", ops)
    return {
        "backend.sql_ms_per_op": span_ms(table, "sql", ops),
        "backend.decode_ms_per_op": span_ms(table, "decode", ops),
        "backend.rows_per_ms": rows_per_op / backend,
        "stitch.ms_per_op": stitch,
        "stitch.values_per_ms": values_per_op / stitch,
        "stitch.result_values_per_op": values_per_op,
        "obs.unaccounted_share": unaccounted_share(rec.spans, "op"),
    }


def variant_ledger(times: dict) -> dict:
    """The metrics that are differences between the round-robin variants."""
    run, replay = median(times["run"]), median(times["replay"])
    return {
        "api.facade_overhead_ms": run - replay,
        "obs.trace_overhead_share": median(times["run_traced"]) / run - 1.0,
        "obs.bench_span_overhead_share": median(times["replay_spans"]) / replay - 1.0,
    }


# --------------------------------------------------------------------------


EXECUTION_METRICS = (
    "data.generate_s",
    "backend.load_ms",
    "backend.sql_ms_per_op",
    "backend.decode_ms_per_op",
    "backend.rows_per_ms",
    "backend.rows_fetched_per_op",
    "backend.statements_per_op",
    "stitch.ms_per_op",
    "stitch.values_per_ms",
    "stitch.result_values_per_op",
    "api.facade_overhead_ms",
    "pipeline.plan_cache_hit_rate",
    "obs.trace_overhead_share",
    "obs.bench_span_overhead_share",
    "obs.unaccounted_share",
)


class Fig11Inproc(Rounds):
    name = "fig11_inproc"
    loop = "closed"
    callers = 1
    one_core = True  # see run.guarded

    LAYER_METRICS = EXECUTION_METRICS + (
        "backend.index_setup_ms",
        "pipeline.plan_cache_hit_ms",
        "engine.auto.round_ms",
        "engine.batched.round_ms",
        "engine.parallel.round_ms",
        "engine.per-path.round_ms",
        "sql.optimize_on.round_ms",
        "sql.optimize_off.round_ms",
        "fig11.scaling_exponent",
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.departments, self.rows = (4, 10) if quick else (64, 100)
        self.draw_orders(seed, PAPER_QUERIES)
        self.gate = Gate()

    def _session(self, departments: int):
        db = scaled_database(departments, self.seed, self.rows)
        db.connection()
        session = connect(db)
        terms = catalogue()
        return session, {n: session.prepare(terms[n]) for n in PAPER_QUERIES}

    def setup(self) -> Stages:
        stages = Stages()
        # Each set-up pays its own compiles: connect()'s default plan
        # cache is process-wide.
        shared_plan_cache().clear()
        with stages.timed("generate"):
            self.db = scaled_database(self.departments, self.seed, self.rows)
        with stages.timed("load"):
            self.db.connection()
        with stages.timed("compile"):
            self.session = connect(self.db)
            terms = catalogue()
            self.prepared = {n: self.session.prepare(terms[n]) for n in PAPER_QUERIES}
            self.plans = {n: p.compiled for n, p in self.prepared.items()}
        with stages.timed("index"):
            for plan in self.plans.values():
                for _path, statement in annotations(plan.sql_package):
                    ensure_compiled_indexes(self.db, statement)
            self.db.refresh_statistics()
        oracle = Oracle(self.db)
        for name in PAPER_QUERIES:
            self.gate.expect(name, oracle.evaluate(name))
        with stages.timed("warm"):
            first = self.op(0)
        if not all(self.gate.full(n, r.value) for n, r in first):
            raise AssertionError("fig11_inproc: first run differs from the oracle")
        with stages.timed("warm"):
            for index in (1, 2):
                self.op(index)
        self.stages = stages
        return stages

    def close(self) -> None:
        self.session.close()

    # ------------------------------------------------------------- traced

    def _replay(self, index: int, rec: SpanRecorder):
        rec.op = index
        with rec.span("op"):
            return [
                (
                    name,
                    replay_execute(
                        self.db,
                        self.plans[name].sql_package,
                        None,
                        self.parallel[name],
                        rec,
                    ),
                )
                for name in self.order(index)
            ]

    def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        stages = self.stages
        metrics = {
            "data.generate_s": stages["generate"],
            "backend.load_ms": stages["load"] * 1000.0,
            "backend.index_setup_ms": stages["index"] * 1000.0,
        }
        self.parallel = {
            n: self.session.resolve_engine(None, plan) == "parallel"
            for n, plan in self.plans.items()
        }
        off = SpanRecorder(enabled=False)
        if not all(self.gate.full(n, v) for n, v in self._replay(0, off)):
            raise AssertionError("fig11_inproc: replay differs from Prepared.run()")

        run_stats = ExecutionStats()

        def run(index: int):
            for _name, result in self.op(index):
                run_stats.merge(result.stats)

        before = self.session.stats_snapshot()
        times = round_robin(
            {
                "run": run,
                "run_traced": lambda i: [
                    self.prepared[n].run(trace=True) for n in self.order(i)
                ],
                "replay_spans": lambda i: self._replay(i, rec),
                "replay": lambda i: self._replay(i, off),
            },
            seconds * 0.4,
        )
        after = self.session.stats_snapshot()
        ops = len(times["run"])
        statements = run_stats.queries / ops
        if statements != sum(plan.query_count for plan in self.plans.values()):
            raise AssertionError(f"fig11_inproc: {statements} statements per op")
        uses = ops * len(PAPER_QUERIES)
        values = sum(self.gate.sizes[n][1] for n in PAPER_QUERIES)
        metrics.update(
            execution_ledger(rec, len(times["replay_spans"]), run_stats.rows_fetched / ops, values)
        )
        metrics.update(variant_ledger(times))
        metrics.update(
            {
                "backend.rows_fetched_per_op": run_stats.rows_fetched / ops,
                "backend.statements_per_op": statements,
                "pipeline.plan_cache_hit_rate": 1.0
                - (after["cache_misses"] - before["cache_misses"]) / uses,
                "pipeline.plan_cache_hit_ms": self._plan_cache_hit_ms(),
            }
        )
        metrics.update(self._engine_ablation())
        metrics.update(self._optimizer_ablation())
        metrics["fig11.scaling_exponent"] = self._scaling_exponent(median(times["run"]))
        return metrics

    def _plan_cache_hit_ms(self) -> float:
        terms = [catalogue()[n] for n in PAPER_QUERIES]
        repeats = 20 if self.quick else 200
        started = time.perf_counter()
        for _ in range(repeats):
            for term in terms:
                self.session.prepare(term).compiled
        return (time.perf_counter() - started) * 1000.0 / (repeats * len(terms))

    def _round(self, prepared: dict, index: int, **kwargs) -> None:
        for name in self.order(index):
            prepared[name].run(**kwargs)

    def _engine_ablation(self) -> dict:
        engines = {"auto": None, "batched": "batched", "parallel": "parallel", "per-path": "per-path"}
        for engine in engines.values():
            self._round(self.prepared, 0, engine=engine)
        times = round_robin(
            {
                label: (lambda i, e=engine: self._round(self.prepared, i, engine=e))
                for label, engine in engines.items()
            },
            0.0,
            min_cycles=1 if self.quick else 3,
        )
        return {f"engine.{label}.round_ms": median(times[label]) for label in engines}

    def _optimizer_ablation(self) -> dict:
        optimized = self.session.with_options(optimize=True)
        terms = catalogue()
        on = {n: optimized.prepare(terms[n]) for n in PAPER_QUERIES}
        for index in (0, 1):  # compile, shared-scan set-up, indexes
            self._round(on, index)
        times = round_robin(
            {
                "on": lambda i: self._round(on, i),
                "off": lambda i: self._round(self.prepared, i),
            },
            0.0,
            min_cycles=1 if self.quick else 5,
        )
        return {
            "sql.optimize_on.round_ms": median(times["on"]),
            "sql.optimize_off.round_ms": median(times["off"]),
        }

    def _scaling_exponent(self, round_ms_here: float) -> float:
        """Log-log slope of round time over a 16× range of departments."""
        points = [(self.departments, round_ms_here)]
        for departments in (self.departments // 4, self.departments * 4):
            session, prepared = self._session(departments)
            try:
                for index in (0, 1):
                    self._round(prepared, index)
                times = round_robin(
                    {"round": lambda i: self._round(prepared, i)},
                    0.0,
                    min_cycles=1 if self.quick else 3,
                )
            finally:
                session.close()
            points.append((departments, median(times["round"])))
        xs = [math.log(d) for d, _ms in points]
        ys = [math.log(ms) for _d, ms in points]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )


class CompileCold:
    name = "compile_cold"
    loop = "closed"
    callers = 1
    one_core = True  # see run.guarded

    LAYER_METRICS = EXECUTION_METRICS + (
        "normalise.ms_per_compile",
        "normalise.nf_nodes",
        "shred.ms_per_compile",
        "shred.paths_per_query",
        "letins.ms_per_compile",
        "sql.codegen_ms_per_compile",
        "sql.sql_bytes_per_round",
        "sql.optimizer_ms_per_compile",
        "sql.rules_fired_per_round",
        "check.verify_ms_per_compile",
        "pipeline.compile_cold_ms",
        "pipeline.compile_unaccounted_ms",
    )

    DEPTS = ("Product", "Quality", "Research", "Sales")
    SALARIES = (500, 900, 10_000, 50_000, 100_000)

    def __init__(self, seed: int, quick: bool) -> None:
        self.terms = catalogue()
        self.names = tuple(self.terms)
        rng = random.Random(seed)
        self.draws = [
            (
                rng.sample(self.names, len(self.names)),
                {"dept": rng.choice(self.DEPTS)},
                {"min_salary": rng.choice(self.SALARIES)},
            )
            for _ in range(ORDERS)
        ]
        self.gate = Gate()

    def _params(self, name: str, dept: dict, salary: dict):
        return dept if name == "dept_staff" else salary if name == "staff_above" else None

    @staticmethod
    def _key(name: str, params):
        return (name, *(params or {}).values())

    def setup(self) -> Stages:
        stages = Stages()
        with stages.timed("generate"):
            self.db = figure3_database()
        with stages.timed("load"):
            self.db.connection()
        with stages.timed("compile"):
            self.session = connect(self.db, cache=False)
        oracle = Oracle(self.db)
        for name in self.names:
            for params in (
                [{"dept": d} for d in self.DEPTS]
                if name == "dept_staff"
                else [{"min_salary": s} for s in self.SALARIES]
                if name == "staff_above"
                else [None]
            ):
                self.gate.expect(self._key(name, params), oracle.evaluate(name, params))
        with stages.timed("warm"):
            for index in range(3):
                if not self.check(index, self.op(index)):
                    raise AssertionError("compile_cold: first run differs from the oracle")
        self.stages = stages
        return stages

    def op(self, index: int):
        order, dept, salary = self.draws[index % ORDERS]
        out = []
        for name in order:
            params = self._params(name, dept, salary)
            out.append(
                (name, params, self.session.prepare(self.terms[name]).run(params=params))
            )
        return out

    def check(self, index: int, results) -> bool:
        # Fig. 3 values are tiny: every op gets the full comparison.
        return all(
            self.gate.full(self._key(name, params), result.value)
            for name, params, result in results
        )

    def make_callers(self) -> list[Caller]:
        return [Caller(self.op, self.check)]

    def verify_last(self) -> bool:
        return True  # check() is already exact on every op

    def close(self) -> None:
        self.session.close()

    # ------------------------------------------------------------- traced

    def _replay(self, index: int, rec: SpanRecorder):
        order, dept, salary = self.draws[index % ORDERS]
        rec.op = index
        out = []
        with rec.span("op"):
            for name in order:
                params = self._params(name, dept, salary)
                package, _nf, _shredded = replay_compile(
                    self.terms[name], self.db.schema, self.session.options, rec
                )
                value = replay_execute(
                    self.db, package, params, self.parallel[name], rec
                )
                out.append((name, params, value))
        return out

    def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        stages = self.stages
        compiles = len(self.names)
        plans = {n: self.session.prepare(t).compiled for n, t in self.terms.items()}
        self.parallel = {
            n: self.session.resolve_engine(None, plan) == "parallel"
            for n, plan in plans.items()
        }
        off = SpanRecorder(enabled=False)
        if not all(
            self.gate.full(self._key(n, p), v) for n, p, v in self._replay(0, off)
        ):
            raise AssertionError("compile_cold: replay differs from Prepared.run()")

        run_stats = ExecutionStats()

        def run(index: int):
            for _name, _params, result in self.op(index):
                run_stats.merge(result.stats)

        def run_traced(index: int):
            order, dept, salary = self.draws[index % ORDERS]
            for name in order:
                self.session.prepare(self.terms[name]).run(
                    params=self._params(name, dept, salary), trace=True
                )

        # Cold compiles of the whole catalogue under four option sets, and
        # the let-insertion step on its own, take turns with the ops so
        # that host drift falls on all of them alike.
        pipelines = {
            "default": ShreddingPipeline(self.db.schema, self.session.options),
            "plain": ShreddingPipeline(self.db.schema, SqlOptions(verify=False)),
            "optimized": ShreddingPipeline(
                self.db.schema, SqlOptions(verify=False, optimize=True)
            ),
            "verified": ShreddingPipeline(self.db.schema, SqlOptions(verify=True)),
        }
        compiled = {
            label: [pipeline.compile(term) for term in self.terms.values()]
            for label, pipeline in pipelines.items()
        }
        parts = [
            replay_compile(term, self.db.schema, self.session.options, off)
            for term in self.terms.values()
        ]
        shredded = [package for _sql, _nf, package in parts]
        stage_rec = SpanRecorder()  # the compile stages back to back, like the compiles
        variants = {
            "run": run,
            "run_traced": run_traced,
            "replay_spans": lambda i: self._replay(i, rec),
            "replay": lambda i: self._replay(i, off),
            "stages": lambda i: [
                replay_compile(term, self.db.schema, self.session.options, stage_rec)
                for term in self.terms.values()
            ],
            "letins": lambda i: let_insert_all(shredded),
        }
        for label, pipeline in pipelines.items():
            variants[f"compile_{label}"] = lambda i, p=pipeline: [
                p.compile(term) for term in self.terms.values()
            ]
        times = round_robin(variants, seconds * 0.4)
        ops = len(times["run"])
        traced_ops = len(times["replay_spans"])
        cycles = len(times["stages"])

        def mean_per_compile(variant: str) -> float:
            return sum(times[variant]) / (cycles * compiles)

        per_compile = {label: mean_per_compile(f"compile_{label}") for label in pipelines}
        letins = mean_per_compile("letins")
        statements = run_stats.queries / ops
        if statements != sum(plan.query_count for plan in plans.values()):
            raise AssertionError(f"compile_cold: {statements} statements per op")

        table = rollup(stage_rec.spans)
        staged = {
            stage: span_ms(table, stage, cycles * compiles)
            for stage in ("normalise", "shred", "sql")
        }

        # Σ bag sizes of one op's results, averaged over the drawn ops.
        values = sum(
            self.gate.sizes[self._key(name, self._params(name, dept, salary))][1]
            for order, dept, salary in self.draws
            for name in order
        ) / len(self.draws)
        metrics = {
            "data.generate_s": stages["generate"],
            "backend.load_ms": stages["load"] * 1000.0,
            "normalise.ms_per_compile": staged["normalise"],
            "normalise.nf_nodes": sum(
                sum(1 for _ in ast.subterms(nf_to_term(nf))) for _pkg, nf, _s in parts
            )
            / compiles,
            "shred.ms_per_compile": staged["shred"],
            "shred.paths_per_query": statements / compiles,
            "letins.ms_per_compile": letins,
            "sql.codegen_ms_per_compile": staged["sql"] - letins,
            "sql.sql_bytes_per_round": sum(
                len(sql.encode("utf-8"))
                for plan in compiled["plain"]
                for _path, sql in plan.sql_by_path
            ),
            "sql.optimizer_ms_per_compile": per_compile["optimized"] - per_compile["plain"],
            "sql.rules_fired_per_round": sum(
                len(plan.fired_rules) for plan in compiled["optimized"]
            ),
            "check.verify_ms_per_compile": per_compile["verified"] - per_compile["plain"],
            "pipeline.compile_cold_ms": per_compile["default"],
            "pipeline.compile_unaccounted_ms": per_compile["default"] - sum(staged.values()),
            # No plan cache: every plan use is a cold compile.
            "pipeline.plan_cache_hit_rate": 0.0,
            "backend.rows_fetched_per_op": run_stats.rows_fetched / ops,
            "backend.statements_per_op": statements,
        }
        metrics.update(
            execution_ledger(rec, traced_ops, run_stats.rows_fetched / ops, values)
        )
        metrics.update(variant_ledger(times))
        return metrics
