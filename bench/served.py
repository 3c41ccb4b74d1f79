"""``served_point``: point lookups against one server process.

Small frames and ~0.2 ms of SQL per request, so the per-request fixed
cost of ``service`` (frame, admission, lease, thread hop, registry and
plan-cache lookup) and ``api`` dominates — the opposite use of
``service`` from ``sharded_bulk``.  Two closed-loop connections; an op
is one ``execute("dept_staff", {"dept": k})``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from repro.data.generator import scaled_database
from repro.service import ServiceClient, pack_frame, split_frame

from measure import Caller, Stages, closed_loop, round_robin
from oracle import Oracle
from spans import SpanRecorder, median, percentile, unaccounted_share

LAUNCHER = Path(__file__).resolve().parent / "serve_point.py"
KEYS = 65536  # pre-drawn lookup keys per connection, cycled
OPEN_LOOP_RATE = 500.0  # requests per second, fixed


def digest(rows) -> list:
    """A ``dept_staff`` answer as a comparable value: bags as sorted lists."""
    return [
        (row["department"], sorted(member["name"] for member in row["staff"]))
        for row in rows
    ]


def frame_costs(messages) -> tuple[float, float, int]:
    """(encode s, decode s, bytes) of replaying ``pack_frame`` and
    ``split_frame`` on the messages."""
    encode = decode = 0.0
    size = 0
    for message in messages:
        mark = time.perf_counter()
        frame = pack_frame(message)
        packed = time.perf_counter()
        split_frame(frame[4:])
        encode += packed - mark
        decode += time.perf_counter() - packed
        size += len(frame)
    return encode, decode, size


class ServedPoint:
    name = "served_point"
    loop = "closed"
    callers = 2
    one_core = False  # see run.guarded

    LAYER_METRICS = (
        "data.generate_s",
        "backend.load_ms",
        "backend.rows_fetched_per_op",
        "backend.statements_per_op",
        "pipeline.plan_cache_hit_rate",
        "service.rtt_ms_p50",
        "service.rtt_ms_p99",
        "service.server_ms_p50",
        "service.backend_ms_p50",
        "service.wire_ms_p50",
        "service.server_overhead_ms_p50",
        "service.frame_encode_ms_per_op",
        "service.frame_decode_ms_per_op",
        "service.frame_bytes_per_op",
        "service.shed_count",
        "service.deadline_count",
        "service.client_retries",
        "service.openloop_500.p90_ms",
        "service.openloop_500.late_ms_p90",
        "obs.trace_overhead_share",
        "obs.unaccounted_share",
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.departments, self.rows = (4, 10) if quick else (64, 100)
        # The launcher generates the same instance from the same seed;
        # this copy only feeds the oracle.
        oracle = Oracle(scaled_database(self.departments, seed, self.rows))
        names = [row["name"] for row in oracle.departments]
        self.expected = {name: digest(oracle.dept_staff(name)) for name in names}
        rng = random.Random(seed)
        self.keys = [
            [rng.choice(names) for _ in range(KEYS)] for _ in range(self.callers)
        ]
        self.process = None
        self.clients: list[ServiceClient] = []
        self.samples: list[list] = [[] for _ in range(self.callers)]
        self.recent: deque = deque(maxlen=200)  # responses kept for the frame replay

    def setup(self) -> Stages:
        stages = Stages()
        with stages.timed("spawn"):
            self.process = subprocess.Popen(
                [
                    sys.executable, str(LAUNCHER),
                    "--seed", str(self.seed),
                    "--departments", str(self.departments),
                    "--rows", str(self.rows),
                    "--pool", str(self.callers),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("served_point: the server exited before it was ready")
            self.ready = json.loads(line)
        with stages.timed("connect"):
            self.clients = [
                ServiceClient("127.0.0.1", self.ready["port"])
                for _ in range(self.callers)
            ]
            self.clients[0].prepare("dept_staff")
        for index in range(3):  # the first verified run, then two warm-up ops
            for caller in range(self.callers):
                with stages.timed("warm"):
                    response = self.op(caller, index)
                if not self.check(caller, index, response):
                    raise AssertionError("served_point: first run differs from the oracle")
        self.stages = stages
        return stages

    def op(self, caller: int, index: int) -> dict:
        return self.clients[caller].execute_full(
            "dept_staff", {"dept": self.keys[caller][index % KEYS]}
        )

    def check(self, caller: int, index: int, response: dict) -> bool:
        return digest(response["rows"]) == self.expected[self.keys[caller][index % KEYS]]

    def make_callers(self) -> list[Caller]:
        return [
            Caller(
                lambda i, c=caller: self.op(c, i),
                lambda i, response, c=caller: self.check(c, i, response),
            )
            for caller in range(self.callers)
        ]

    def verify_last(self) -> bool:
        return True  # check() is already exact on every op

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None

    # ------------------------------------------------------------- traced

    def _sampled_op(self, caller: int, index: int) -> dict:
        started = time.perf_counter()
        response = self.op(caller, index)
        taken = time.perf_counter() - started
        stats = response["stats"]
        self.samples[caller].append(
            (started, taken, response["server_millis"], stats["millis"],
             stats["queries"], stats["rows_fetched"])
        )
        self.recent.append(response)
        return response

    def _open_loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Send at ``OPEN_LOOP_RATE`` whatever the answers do.  Latency
        runs from the time a request was *due*; how late the generator
        itself sent it is reported beside it."""
        per_caller = max(1, int(seconds * OPEN_LOOP_RATE / self.callers))
        origin = time.perf_counter() + 0.05
        outs: list[list] = [[] for _ in range(self.callers)]

        def sender(caller: int) -> None:
            for k in range(per_caller):
                due = origin + (k * self.callers + caller) / OPEN_LOOP_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                self.op(caller, k)
                outs[caller].append(
                    ((time.perf_counter() - due) * 1000.0, (sent - due) * 1000.0)
                )

        threads = [
            threading.Thread(target=sender, args=(c,)) for c in range(self.callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pairs = [pair for out in outs for pair in out]
        return [latency for latency, _late in pairs], [late for _latency, late in pairs]

    def traced(self, seconds: float, rec: SpanRecorder) -> dict:
        before = self.clients[0].stats()
        closed_loop(
            [
                Caller(
                    lambda i, c=caller: self._sampled_op(c, i),
                    lambda i, response, c=caller: self.check(c, i, response),
                )
                for caller in range(self.callers)
            ],
            seconds * 0.4,
        )
        after = self.clients[0].stats()
        samples = [sample for caller in self.samples for sample in caller]
        rtt = [taken * 1000.0 for _s, taken, *_rest in samples]
        server = [sample[2] for sample in samples]
        backend = [sample[3] for sample in samples]
        for op_id, (started, taken, server_ms, backend_ms, *_counts) in enumerate(samples):
            rec.op = op_id
            op_span = rec.add("op", started, started + taken)
            server_span = rec.add("server", started, started + server_ms / 1000.0, op_span)
            rec.add("backend", started, started + backend_ms / 1000.0, server_span)

        replayed = list(self.recent)
        requests = [
            {"op": "execute", "query": "dept_staff",
             "params": {"dept": response["rows"][0]["department"]}, "id": 1}
            for response in replayed
        ]
        encode, decode, size = frame_costs(requests + replayed)

        times = round_robin(
            {
                "plain": lambda i: self.op(0, i),
                "traced": lambda i: self.clients[0].execute_full(
                    "dept_staff", {"dept": self.keys[0][i % KEYS]}, trace_id="bench"
                ),
            },
            seconds * 0.1,
        )
        latency, late = self._open_loop(0.2 if self.quick else min(5.0, seconds * 0.25))

        cache_before, cache_after = before["plan_cache"], after["plan_cache"]
        lookups = (cache_after["hits"] + cache_after["misses"]) - (
            cache_before["hits"] + cache_before["misses"]
        )
        statements = sum(sample[4] for sample in samples) / len(samples)
        if statements != self.clients[0].prepare("dept_staff")["statements"]:
            raise AssertionError(f"served_point: {statements} statements per op")
        return {
            "data.generate_s": self.ready["generate"],
            "backend.load_ms": self.ready["load"] * 1000.0,
            "backend.rows_fetched_per_op": sum(s[5] for s in samples) / len(samples),
            "backend.statements_per_op": statements,
            "pipeline.plan_cache_hit_rate": (cache_after["hits"] - cache_before["hits"])
            / lookups,
            "service.rtt_ms_p50": median(rtt),
            "service.rtt_ms_p99": percentile(rtt, 99.0),
            "service.server_ms_p50": median(server),
            "service.backend_ms_p50": median(backend),
            "service.wire_ms_p50": median([r - s for r, s in zip(rtt, server)]),
            "service.server_overhead_ms_p50": median(
                [s - b for s, b in zip(server, backend)]
            ),
            "service.frame_encode_ms_per_op": encode * 1000.0 / len(replayed),
            "service.frame_decode_ms_per_op": decode * 1000.0 / len(replayed),
            "service.frame_bytes_per_op": size / len(replayed),
            "service.shed_count": after["server"]["shed"] - before["server"]["shed"],
            "service.deadline_count": after["server"]["deadline_exceeded"]
            - before["server"]["deadline_exceeded"],
            "service.client_retries": sum(client.retries for client in self.clients),
            "service.openloop_500.p90_ms": percentile(latency, 90.0),
            "service.openloop_500.late_ms_p90": percentile(late, 90.0),
            "obs.trace_overhead_share": median(times["traced"]) / median(times["plain"]) - 1.0,
            "obs.unaccounted_share": unaccounted_share(rec.spans, "op"),
        }
