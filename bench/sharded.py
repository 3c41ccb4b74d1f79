"""``sharded_bulk``: bulk results through a two-shard process group.

``connect_sharded(processes=True)`` spawns two shard servers and the
full-copy fallback; an op is one round of fan-out Q1, Q2, Q3, Q4, Q6, so
0.2–0.8 MB answers travel per-shard stitch → ``to_dicts`` → JSON →
socket → decode → merge.  ``service`` carries large frames here and
``shard`` only works here.

Recorded limits: Q5 fans out only under the tasks⟂employees placement (a
second cluster), so it is left out; ``serve`` has no ``--seed``, so the
servers' data seed is 0 and ``--seed`` drives op order and lookup keys.
"""

from __future__ import annotations

import random
import time

from repro.api import connect_sharded
from repro.data.generator import scaled_database
from repro.obs import Tracer
from repro.shard import Placement, plan_route, sharded
from repro.values import bag_equal

from measure import Rounds, Stages, round_robin
from oracle import Gate, Oracle
from served import frame_costs
from spans import SpanRecorder, median, unaccounted_share

QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q6")
SERVER_SEED = 0
PLACEMENT = Placement.of(
    {"departments": sharded(key="name"), "employees": sharded(key="dept")},
    aligned=[("departments", "employees")],
)


class ShardedBulk(Rounds):
    name = "sharded_bulk"
    loop = "closed"
    callers = 1
    one_core = False  # see run.guarded

    LAYER_METRICS = (
        "backend.rows_fetched_per_op",
        "backend.statements_per_op",
        "pipeline.plan_cache_hit_rate",
        "service.frame_encode_ms_per_op",
        "service.frame_decode_ms_per_op",
        "service.frame_bytes_per_op",
        "service.shed_count",
        "service.deadline_count",
        "service.client_retries",
        "shard.plan_ms",
        "shard.merge_ms_p50",
        "shard.slowest_shard_ms_p50",
        "shard.skew",
        "shard.server_ms_sum_per_op",
        "shard.work_ratio_vs_1",
        "shard.round_ms_1shard",
        "shard.speedup_2_vs_1",
        "shard.routed_ms_p50",
        "shard.routed_single_shard",
        "shard.spawn_s",
        "shard.close_s",
        "obs.trace_overhead_share",
        "obs.bench_span_overhead_share",
        "obs.unaccounted_share",
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.quick = quick
        self.departments, self.rows = (4, 10) if quick else (64, 100)
        self.draw_orders(seed, QUERIES)
        rng = random.Random(seed)
        oracle = Oracle(scaled_database(self.departments, SERVER_SEED, self.rows))
        self.oracle = oracle
        self.routed_keys = [
            rng.choice(oracle.departments)["name"] for _ in range(20 if quick else 200)
        ]
        self.gate = Gate()
        for name in QUERIES:
            self.gate.expect(name, oracle.evaluate(name))
        self.session = None

    def _cluster(self, shards: int):
        session = connect_sharded(
            placement=PLACEMENT,
            shards=shards,
            processes=True,
            scale=self.departments,
            rows=self.rows,
        )
        try:
            prepared = {name: session.prepare(name) for name in QUERIES}
            for name, query in prepared.items():
                if query.plan.mode != "fanout":
                    raise AssertionError(f"sharded_bulk: {name} plans as {query.plan.mode}")
        except BaseException:
            session.close()
            raise
        return session, prepared

    def setup(self) -> Stages:
        stages = Stages()
        with stages.timed("spawn"):
            self.session, self.prepared = self._cluster(2)
        with stages.timed("warm"):
            first = self.op(0)
        if not all(self.gate.full(n, r.value) for n, r in first):
            raise AssertionError("sharded_bulk: first run differs from the oracle")
        with stages.timed("warm"):
            for index in (1, 2):
                self.op(index)
        self.stages = stages
        return stages

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # ------------------------------------------------------------- traced

    def _traced_round(self, index: int, rec: SpanRecorder, parts: list | None) -> None:
        """One round through ``execute_full(tracer=…)``: the program's own
        span tree gives each sub-request's client-side and server-side
        time.  ``parts`` collects (wall, slowest, mean, Σ server) ms."""
        client = self.session.client
        rec.op = index
        wall = slowest = mean = server = 0.0
        with rec.span("op"):
            for name in self.order(index):
                tracer = Tracer()
                with rec.span("query"):
                    started = time.perf_counter()
                    client.execute_full(name, tracer=tracer)
                    wall += (time.perf_counter() - started) * 1000.0
                    shards = tracer.spans[0].children
                    for shard in shards:
                        rec.record("shard", shard.duration_ms / 1000.0, concurrent=True)
                times = [shard.duration_ms for shard in shards]
                slowest += max(times)
                mean += sum(times) / len(times)
                server += sum(shard.attributes["server_millis"] for shard in shards)
        if parts is not None:
            parts.append((wall, slowest, mean, server))

    def _server_counters(self) -> dict:
        """Σ over every server of the counters the ``stats`` op reports."""
        report = self.session.client.stats()
        totals = {"hits": 0, "misses": 0, "shed": 0, "deadline_exceeded": 0}
        for server in report["shards"] + [report["fallback"]]:
            totals["hits"] += server["plan_cache"]["hits"]
            totals["misses"] += server["plan_cache"]["misses"]
            totals["shed"] += server["server"]["shed"]
            totals["deadline_exceeded"] += server["server"]["deadline_exceeded"]
        return totals

    def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        client = self.session.client
        off = SpanRecorder(enabled=False)
        parts: list = []
        totals = {"queries": 0, "rows": 0}

        def run(index: int) -> None:
            for _name, result in self.op(index):
                totals["queries"] += result.stats.queries
                totals["rows"] += result.stats.rows_fetched

        before = self._server_counters()
        times = round_robin(
            {
                "run": run,
                "run_traced": lambda i: self._traced_round(i, off, None),
                "run_spans": lambda i: self._traced_round(i, rec, parts),
            },
            seconds * 0.4,
        )
        after = self._server_counters()
        ops = len(times["run"])
        statements = totals["queries"] / ops
        expected = client.shard_count * sum(
            client.prepare(name)["statements"] for name in QUERIES
        )
        if statements != expected:
            raise AssertionError(f"sharded_bulk: {statements} statements per op")

        # One shard (plus its fallback) on the same data: the work and
        # the time fan-out is measured against.
        one, one_prepared = self._cluster(1)
        try:
            one_rows = 0
            for name in QUERIES:
                result = one_prepared[name].run()
                one_rows += result.stats.rows_fetched
                if not self.gate.quick(name, result.value):
                    raise AssertionError(f"sharded_bulk: 1-shard {name} is wrong")
            versus = round_robin(
                {
                    "two": lambda i: self.op(i),
                    "one": lambda i: [
                        one_prepared[n].run() for n in self.order(i)
                    ],
                },
                0.0,
                min_cycles=2 if self.quick else 7,
            )
        finally:
            one.close()

        routed_ms, single = [], 0
        for key in self.routed_keys:
            counts = self.session.run_counts()
            started = time.perf_counter()
            result = self.session.run("dept_staff", params={"dept": key})
            routed_ms.append((time.perf_counter() - started) * 1000.0)
            hits = [
                b - a
                for a, b in zip(counts["per_shard"], self.session.run_counts()["per_shard"])
            ]
            single += sum(hits) == 1 and max(hits) == 1
            if not bag_equal(result.value, self.oracle.dept_staff(key)):
                raise AssertionError(f"sharded_bulk: routed dept_staff({key}) is wrong")

        plans = [client.plan_for(name) for name in QUERIES]
        repeats = 20 if self.quick else 500
        started = time.perf_counter()
        for _ in range(repeats):
            for plan in plans:
                plan_route(plan, client.shard_count, down_shards=client.down_shards())
        plan_ms = (time.perf_counter() - started) * 1000.0 / repeats

        encode, decode, size = frame_costs(client.execute_full(name) for name in QUERIES)

        retries = client.stats_snapshot()["retries"]
        started = time.perf_counter()
        self.close()
        close_s = time.perf_counter() - started

        lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
        return {
            "backend.rows_fetched_per_op": totals["rows"] / ops,
            "backend.statements_per_op": statements,
            "pipeline.plan_cache_hit_rate": (after["hits"] - before["hits"]) / lookups,
            "service.frame_encode_ms_per_op": encode * 1000.0,
            "service.frame_decode_ms_per_op": decode * 1000.0,
            "service.frame_bytes_per_op": size,
            "service.shed_count": after["shed"] - before["shed"],
            "service.deadline_count": after["deadline_exceeded"] - before["deadline_exceeded"],
            "service.client_retries": retries,
            "shard.plan_ms": plan_ms,
            "shard.merge_ms_p50": median([wall - slowest for wall, slowest, _m, _s in parts]),
            "shard.slowest_shard_ms_p50": median([slowest for _w, slowest, _m, _s in parts]),
            "shard.skew": sum(p[1] for p in parts) / sum(p[2] for p in parts),
            "shard.server_ms_sum_per_op": sum(p[3] for p in parts) / len(parts),
            "shard.work_ratio_vs_1": (totals["rows"] / ops) / one_rows,
            "shard.round_ms_1shard": median(versus["one"]),
            "shard.speedup_2_vs_1": median(versus["one"]) / median(versus["two"]),
            "shard.routed_ms_p50": median(routed_ms),
            "shard.routed_single_shard": single / len(self.routed_keys),
            "shard.spawn_s": self.stages["spawn"],
            "shard.close_s": close_s,
            "obs.trace_overhead_share": median(times["run_traced"]) / median(times["run"]) - 1.0,
            "obs.bench_span_overhead_share": median(times["run_spans"])
            / median(times["run_traced"])
            - 1.0,
            "obs.unaccounted_share": unaccounted_share(rec.spans, "op"),
        }
