"""The asyncio query server: one shared Session, many concurrent clients.

    python -m repro serve --port 7411 --pool 4

Architecture (the concurrency story the paper's avalanche-free guarantee
makes *predictable*: every request is a statically bounded number of flat
SQL queries, so per-request cost cannot degenerate under load):

* one :class:`~repro.api.session.Session` per database — its plan cache
  and its metrics registry shared by every connection (the cache is
  lock-guarded, each counter has its own lock);
* what each op *means* — its field checks, its response shape — is
  :class:`~repro.service.core.ServerCore`'s, shared with
  the in-process endpoints of :mod:`repro.shard.deployment`; this module
  is its event-loop driver and decides only *where* a request runs;
* one asyncio connection handler per client, reading length-prefixed JSON
  frames (:mod:`repro.service.protocol`);
* every request holds a *leased* read-only connection from the
  database's pool, and execution offloads to worker threads via
  :func:`asyncio.to_thread` — sqlite3 releases the GIL inside its C-level
  steps, so one request's SQLite evaluation overlaps another's
  Python-side decode — **unless the catalogue entry has proved light**,
  in which case the request runs to completion on the event-loop thread
  (below);
* graceful shutdown: the listener closes first, in-flight handlers drain.

Light entries run on the loop.  Shredding makes a query a *fixed* number
of flat statements, so a point lookup is a few indexed steps — less work
than the thread hop that used to carry it (context copy, executor queue,
two futex wakes, a self-pipe write, an epoll wake, and the interpreter
lock passed between the loop and the workers).  The verdict is learned
per entry, from work counters only, never from a clock:

* an entry's **first** run — compile, index advisement, ``ANALYZE`` —
  always goes to a worker thread;
* if a run fetched at most :data:`LIGHT_ROWS` rows the entry is *light*,
  and its later runs execute right in the connection handler
  (:meth:`QueryServer._run_guarded`, the one sanctioned on-loop execution
  site — ``tools/check_concurrency.py`` CC005), touching nothing but
  their lease: no index advisement, no ``ANALYZE``, no store lock;
* every on-loop run is under a **guard**: a SQLite progress handler on
  the lease that interrupts the run after :data:`INLINE_STEP_BUDGET`
  virtual-machine steps.  When it trips (a light query met a heavy
  parameter) the partial result is dropped, the entry turns *heavy* and
  the same request re-runs on a worker thread on the same lease —
  counted in ``escalations``.  A run that fetched more than
  :data:`LIGHT_ROWS` rows inside the budget turns the entry heavy too.
  Heavy is sticky until ``register`` replaces the entry.  Every run is
  the batched engine's: a request names no engine (protocol v1.6).

So the invariant is no longer "nothing runs on the loop" but: **one
request occupies the loop for at most** :data:`INLINE_STEP_BUDGET`
**SQLite steps plus the fold of the rows those steps fetched** — more
than :data:`LIGHT_ROWS` rows at most once per entry — **plus serialising
a frame of at most** :data:`LIGHT_ROWS` **fetched rows** (bigger frames
are packed on a worker) **or joining the bytes of a shredded one**.
Pings, admission and deadlines of other connections wait that long at
worst, a millisecond or two.

A ``result: "shredded"`` answer (protocol v1.5) has nothing to serialise:
its column tables are the bytes SQLite wrote, and framing them is one
``bytes`` join — two copies of the frame, ≈ 0.4 ms per MB (0.13 ms for
Q1 over 64 × 100 rows, 335 KB), bounded by ``MAX_FRAME_BYTES`` — so it is
framed on the loop whatever its row count; the thread hop (≈ 0.1 ms by
itself) is kept for nested ``rows``, where ``json.dumps`` is ≈ 17 ms per
MB (7 ms for the same answer).  Such a run's light/heavy verdict
reads the same ``stats.rows_fetched`` (the statements' ``count(*)``).

Fault-tolerant serving (protocol v1.1):

* **admission control** — at most ``max_pending`` execute requests may be
  in flight (running on a lease or queued for one); the next one is shed
  *immediately* with an ``Overloaded`` error frame instead of growing an
  unbounded queue.  Prepares/explains/stats/pings are not shed: they are
  cheap, and health checks must keep answering exactly when the server is
  saturated.
* **per-request deadlines** — an execute carrying ``deadline_ms`` waits at
  most that long for its result; past it, the server answers a
  ``DeadlineExceeded`` error frame.  The worker thread cannot be
  interrupted mid-SQLite-step, but its lease is reclaimed by the parking
  callback when it finishes, so a straggler costs one pool slot, not a
  wedged server.  An on-loop run is checked against the admission clock
  when it returns (the guard bounds how late that can be).
  ``default_deadline_ms`` applies when the request names none.
* **graceful drain** — :meth:`QueryServer.stop` first closes the listener
  (new connects are refused by the OS), then waits up to ``drain_grace``
  seconds for requests already *read off a socket* to answer, and only
  then cancels the (now idle) connection handlers.
* **ping + request ids** — ``ping`` (like ``stats``, ``metrics`` and
  ``register``) answers inline on the event loop; any request's ``id`` is
  echoed in its response (success or error), which clients use to detect
  desynced connections.
"""

from __future__ import annotations

import asyncio
import sqlite3
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Iterator

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
)
from repro.service.core import DRIVER_EVENTS, Execution, ServerCore
from repro.service.protocol import (
    error_payload,
    frame_length,
    pack_frame,
    split_frame,
)
from repro.service.registry import QueryRegistry, RegisteredQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["QueryServer", "ServerHandle", "serve_in_background"]

#: Read-connection leases a server holds by default (concurrent requests
#: beyond this queue on the lease, not on SQLite).
DEFAULT_SERVICE_POOL = 4

#: Default admission bound: in-flight executes beyond ``pool × this`` are
#: shed with an ``Overloaded`` frame (queueing a little absorbs bursts;
#: queueing a lot just converts overload into timeouts).
PENDING_PER_LEASE = 8

#: How long :meth:`QueryServer.stop` waits for in-flight requests to
#: answer before cancelling their connection handlers.
DEFAULT_DRAIN_GRACE = 10.0

#: The *light* line, used for both on-loop decisions: an entry whose run
#: fetched at most this many rows runs on the event loop from then on,
#: and a response built from at most this many fetched rows is serialised
#: there (``stats.rows_fetched`` — not top-level rows: 64 departments can
#: nest 6 000 values).
LIGHT_ROWS = 256

#: SQLite virtual-machine steps an on-loop run may take before its guard
#: interrupts it.  ``dept_staff`` takes ≈ 500; an index-less scan spends
#: ≈ 3 per row it rejects and ≈ 6 per row it returns, so the budget is
#: ≈ 0.2–0.5 ms inside SQLite and at most ≈ 3 000 fetched rows.  A count,
#: so the verdict is the same on every host.
INLINE_STEP_BUDGET = 20_000

#: Steps between two calls of the guard (SQLite counts them per cached
#: statement, across runs, so a run overshoots its budget by at most one
#: stride per statement).
GUARD_STRIDE = 1_000


class _StepGuard:
    """The progress handler of one on-loop run: called by SQLite every
    :data:`GUARD_STRIDE` steps, it interrupts the statement once the
    budget is spent and remembers that it did — ``tripped``, not the
    text of the ``OperationalError``, is what the server reads."""

    __slots__ = ("strides_left", "tripped")

    def __init__(self) -> None:
        self.strides_left = INLINE_STEP_BUDGET // GUARD_STRIDE
        self.tripped = False

    def __call__(self) -> int:
        self.strides_left -= 1
        if self.strides_left < 0:
            self.tripped = True
        return self.tripped


class QueryServer:
    """A query service bound to one session and one query catalogue."""

    def __init__(
        self,
        session: "Session",
        registry: QueryRegistry,
        pool_size: int = DEFAULT_SERVICE_POOL,
        shard_label: str | None = None,
        max_pending: int | None = None,
        default_deadline_ms: float | None = None,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool size must be ≥1, got {pool_size}")
        #: What every op means — this class only decides where each runs.
        self.core = ServerCore(session, registry, shard_label)
        self.session = session
        self.metrics = self.core.metrics
        self.pool_size = pool_size
        #: Admission bound: executes in flight beyond this are shed with
        #: an ``Overloaded`` error frame.
        self.max_pending = (
            pool_size * PENDING_PER_LEASE if max_pending is None else max_pending
        )
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be ≥1, got {self.max_pending}"
            )
        #: Server-side deadline applied to executes that name none.
        self.default_deadline_ms = default_deadline_ms
        self._server: asyncio.AbstractServer | None = None
        self._leases: asyncio.Queue | None = None
        self._handlers: set[asyncio.Task] = set()
        self._stopped = False
        #: Execute requests admitted but not yet answered (event-loop
        #: thread only), and the gauge/flag pair the drain logic waits on.
        self._pending = 0
        self._dispatching = 0
        self._drained: asyncio.Event | None = None
        #: What this server has learned about its catalogue: name →
        #: (entry, light?).  Keyed per server, not kept on the entry — a
        #: registry may be shared by servers over different stores — and
        #: checked by entry identity, so a re-``register`` starts afresh.
        self._verdicts: dict[str, tuple[RegisteredQuery, bool]] = {}
        #: The events only this driver sees, by the key the ``stats`` op
        #: reports each under.
        self._events = {
            key: self.metrics.counter(*family)
            for key, family in DRIVER_EVENTS.items()
        }
        #: Saturation gauges, each the sum over the live servers of the
        #: session: this server's callbacks join them from :meth:`start`
        #: to :meth:`stop`.
        self._gauges = [
            (self.metrics.gauge(name, help), callback)
            for name, help, callback in (
                ("pending_requests", "Executes/inserts admitted and not yet answered",
                 lambda: self._pending),
                ("admission_limit", "Admission bound (requests beyond this are shed)",
                 lambda: self.max_pending),
                ("lease_pool_size", "Leased read connections the servers hold",
                 lambda: self.pool_size),
                ("leases_free", "Read-connection leases currently parked (0 = saturated)",
                 lambda: self._leases.qsize() if self._leases is not None else 0),
            )
        ]

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and listen; returns the actual (host, port) — port 0 picks
        a free one (the test/bench path)."""
        self._stopped = False  # a stopped server may be started again
        self.core.draining = False
        self._pending = 0
        self._dispatching = 0
        self._drained = asyncio.Event()
        self._drained.set()
        # Dedicated reader connections (not the shared read pool, which
        # the parallel engine stripes every run over): each request runs on
        # a connection no other executor can touch, so concurrent SQLite
        # steps never contend on one connection's serialisation mutex.
        connections = self.session.db.dedicated_read_connections(self.pool_size)
        self._leases = asyncio.Queue()
        for connection in connections:
            self._leases.put_nowait(connection)
        try:
            self._server = await asyncio.start_server(self._handle, host, port)
        except BaseException:
            # e.g. the port is taken: don't leak the readers just opened.
            self._leases = None
            for connection in connections:
                self.session.db.release_dedicated_reader(connection)
            raise
        for family, callback in self._gauges:
            family.track(callback)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("server not started; call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_grace: float = DEFAULT_DRAIN_GRACE) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, retire.

        Ordering: (1) close the listener so new connects are refused at
        the OS level; (2) wait up to ``drain_grace`` seconds for requests
        already read off a socket to finish and *answer* — an in-flight
        query completes normally; (3) cancel the remaining handlers, all
        of which are now idle between requests (or stragglers past the
        grace); (4) retire the connection leases.
        """
        self._stopped = True
        self.core.draining = True
        for family, callback in self._gauges:
            family.untrack(callback)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatching > 0 and self._drained is not None:
            try:
                await asyncio.wait_for(self._drained.wait(), drain_grace)
            except asyncio.TimeoutError:
                pass  # stragglers get cancelled below
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        # Retire every lease.  Idle leases are parked already; leases held
        # by in-flight thread work arrive when the worker finishes (its
        # done callback sees _stopped and releases, so waiting here is
        # bounded by the slowest running query, capped at 10s).
        if self._leases is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            retired = 0
            while retired < self.pool_size:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    lease = await asyncio.wait_for(
                        self._leases.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
                if lease is not None:  # None = retired by _park_lease
                    self.session.db.release_dedicated_reader(lease)
                retired += 1

    # ------------------------------------------------------------ connection

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._events["connections_served"].inc()
        try:
            while True:
                if self.core.draining:
                    break  # shutting down: no further requests on this link
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client hung up between requests
                try:
                    length = frame_length(prefix)
                except ServiceError as error:
                    # A rejected/corrupt length prefix desyncs the stream —
                    # the body was never read, so the next read would parse
                    # payload bytes as a length.  Answer and hang up.
                    writer.write(pack_frame(error_payload(error)))
                    self._events["errors"].inc()
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        pass
                    break
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break
                # From the moment a full request is off the wire until its
                # response is flushed, this connection counts as
                # *dispatching* — graceful drain waits for exactly this.
                self._dispatching += 1
                if self._drained is not None:
                    self._drained.clear()
                try:
                    request_id: object = None
                    try:
                        request = split_frame(body)
                        request_id = request.get("id")
                        response, closing = await self._dispatch(request)
                    except Exception as error:  # noqa: BLE001 — answer in-frame
                        response, closing = (
                            error_payload(error, request_id),
                            False,
                        )
                        self._events["errors"].inc()
                    if request_id is not None:
                        response.setdefault("id", request_id)
                    try:
                        # Serialising a big result set is real CPU time —
                        # keep it off the loop so other connections stay
                        # served.  Sized by the rows the run fetched, not
                        # by top-level rows (only execute responses carry
                        # "stats") — and only nested "rows" are serialised
                        # at all: a shredded answer is a bytes join.
                        stats = response.get("stats")
                        if (
                            stats is not None
                            and stats["rows_fetched"] > LIGHT_ROWS
                            and "rows" in response
                        ):
                            frame = await asyncio.to_thread(pack_frame, response)
                        else:
                            frame = pack_frame(response)
                    except ServiceError as error:
                        # e.g. a result set larger than the frame limit: the
                        # client still deserves a structured answer.
                        frame = pack_frame(error_payload(error, request_id))
                        self._events["errors"].inc()
                    writer.write(frame)
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        break
                finally:
                    self._dispatching -= 1
                    if self._dispatching == 0 and self._drained is not None:
                        self._drained.set()
                if closing:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection quietly
        finally:
            writer.close()
            try:
                # A shutdown cancellation can re-raise here (first await
                # after cancel); swallow it so the task ends cleanly and
                # the streams machinery never logs a phantom exception.
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -------------------------------------------------------------- dispatch

    async def _dispatch(self, request: dict) -> tuple[dict, bool]:
        """Run ``request`` through the core, choosing where: executes and
        inserts (which contend for the same store) under the admission
        bound and off the loop — unless the entry is light; compiles off
        the loop; the rest right here, so health checks keep answering
        exactly when every lease is busy."""
        started = time.perf_counter()
        op, handler = self.core.route(request)
        with self._admitted() if op in ("execute", "insert") else nullcontext():
            if op == "execute":
                response = await self._execute(request)
            elif op in ("insert", "prepare", "explain"):
                response = await asyncio.to_thread(handler, request)
            else:
                response = handler(request)
        if op == "stats":
            response["server"].update(
                pool_size=self.pool_size,
                max_pending=self.max_pending,
                pending=self._pending,
            )
        return self.core.answered(request, response, started), op == "close"

    @contextmanager
    def _admitted(self) -> Iterator[None]:
        """Admission control *before* any work: past the bound, shed
        immediately — an error frame now beats a timeout later."""
        if self._pending >= self.max_pending:
            self._events["shed"].inc()
            raise OverloadedError(
                f"server at admission limit ({self.max_pending} requests "
                f"in flight); retry with backoff or divert"
            )
        self._pending += 1
        try:
            yield
        finally:
            self._pending -= 1

    async def _execute(self, request: dict) -> dict:
        execution = self.core.execution(request, self.default_deadline_ms)
        entry, deadline_ms = execution.entry, execution.deadline_ms
        # Each request runs whole on its leased connection — concurrency
        # comes from overlapping *requests* — and only a run of a light
        # entry may stay on the loop.
        on_loop = self._is_light(entry)
        assert self._leases is not None, "server not started"
        lease = await self._leases.get()
        leased = time.perf_counter()
        result = self._run_inline(execution, lease) if on_loop else None
        inline = result is not None
        if result is None:
            # The lease is parked by the *work task's* completion callback,
            # not by this coroutine's finally: if the handler is cancelled
            # mid-request the worker thread keeps running, and the
            # connection must stay out of the queue (and unclosed) until it
            # finishes.
            work = asyncio.get_running_loop().create_task(
                asyncio.to_thread(execution.run, connection=lease)
            )
            work.add_done_callback(
                lambda task: self._park_lease(
                    lease, task.cancelled() or task.exception() is not None
                )
            )
            shielded = asyncio.shield(work)
            if deadline_ms is None:
                result = await shielded
            else:
                # An escalated request has spent some of its deadline on
                # the loop already.
                spent = time.perf_counter() - leased
                try:
                    result = await asyncio.wait_for(
                        shielded, deadline_ms / 1000.0 - spent
                    )
                except asyncio.TimeoutError:
                    # The worker thread runs on (SQLite steps are not
                    # interruptible); its done callback reclaims the lease.
                    raise self._deadline_exceeded(entry, deadline_ms) from None
        self._learn(entry, light=result.stats.rows_fetched <= LIGHT_ROWS)
        if inline:
            # A worker-thread request yields the loop while it waits; an
            # on-loop one has to say so, or a client that pipelines its
            # requests holds the loop for its whole backlog.
            await asyncio.sleep(0)
            if deadline_ms is not None and (
                (time.perf_counter() - execution.admitted) * 1000.0 > deadline_ms
            ):
                # An on-loop run cannot be abandoned half-way (its guard
                # bounds it instead); late is late all the same.
                raise self._deadline_exceeded(entry, deadline_ms)
        response = execution.response(result)  # lease wait included
        if request.get("trace_id") is not None:
            response["inline"] = inline
        return response

    def _run_inline(self, execution: Execution, lease):
        """One on-loop attempt at a light entry's request, with its
        bookkeeping: the :class:`~repro.api.results.Result` (lease parked,
        ``inline_runs`` counted), or None when the guard tripped — the
        entry is heavy from now on, ``escalations`` is counted, and the
        lease is still held for the worker-thread re-run."""
        try:
            result = self._run_guarded(execution, lease)
        except Exception:
            self._park_lease(lease, failed=True)
            raise
        if result is None:
            self._learn(execution.entry, light=False)
            self._events["escalations"].inc()
        else:
            self._park_lease(lease, failed=False)
            self._events["inline_runs"].inc()
        return result

    def _run_guarded(self, execution: Execution, lease):
        """Run on the calling — the event-loop — thread, under the step
        guard: the one place this server executes SQL on the loop
        (``tools/check_concurrency.py`` CC005 holds it to the install /
        ``try`` / ``finally``-clear shape below).

        Touches only ``lease``: index advisement and ``ANALYZE`` were the
        entry's first, worker-thread run's job, and taking the store's
        setup lock here could park the loop behind another thread's DDL.
        Returns None when the guard interrupted the run: the partial
        result is gone and the lease is clean again.
        """
        guard = _StepGuard()
        lease.set_progress_handler(guard, GUARD_STRIDE)
        try:
            return execution.run(connection=lease, create_indexes=False)
        except Exception:
            if not guard.tripped:
                raise
            return None
        finally:
            lease.set_progress_handler(None, 0)

    def _is_light(self, entry: RegisteredQuery) -> bool:
        known = self._verdicts.get(entry.name)
        return known is not None and known[0] is entry and known[1]

    def _learn(self, entry: RegisteredQuery, light: bool) -> None:
        """Record what a finished run showed.  The first run of an entry
        object decides; after that only *heavy* is news — it is sticky."""
        known = self._verdicts.get(entry.name)
        if known is None or known[0] is not entry or not light:
            self._verdicts[entry.name] = (entry, light)

    def _deadline_exceeded(
        self, entry: RegisteredQuery, deadline_ms: float
    ) -> DeadlineExceededError:
        self._events["deadline_exceeded"].inc()
        return DeadlineExceededError(
            f"server-side deadline of {deadline_ms:.0f}ms exceeded "
            f"executing {entry.name!r}"
        )

    def _park_lease(self, lease, failed: bool) -> None:
        """Return a lease to the queue once its run actually finished.

        Runs on the event loop: as the work task's done callback, or
        straight after an on-loop run.  A failed run may mean the lease
        itself died (e.g. the store was disposed under us) — never park a
        dead connection; after stop(), retire instead of parking.
        """
        if self._stopped or self._leases is None:
            self.session.db.release_dedicated_reader(lease)
            if self._leases is not None:
                # Tombstone so stop()'s drain still counts this lease.
                self._leases.put_nowait(None)
            return
        if failed:
            try:
                lease.execute("SELECT 1").fetchone()
            except sqlite3.Error:
                self.session.db.release_dedicated_reader(lease)
                try:
                    lease = self.session.db.dedicated_read_connections(1)[0]
                except Exception:  # noqa: BLE001 — store gone entirely
                    return  # a later start() builds fresh leases
        self._leases.put_nowait(lease)


# --------------------------------------------------------------------------
# In-process background serving (tests and benchmarks).


class ServerHandle:
    """A server running on a dedicated event-loop thread.

    ``host``/``port`` are live once the constructor returns; ``stop()``
    shuts the server down and joins the thread.  Context manager.
    """

    def __init__(self, server: QueryServer, host: str, port: int) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout=10)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    session: "Session",
    registry: QueryRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    **server_options: object,
) -> ServerHandle:
    """Start a :class:`QueryServer` (``server_options`` are its: ``pool_size``,
    ``shard_label``, ``max_pending``, ``default_deadline_ms``)
    on its own thread; returns its handle.

    The canonical in-process setup used by the tests and the service
    benchmarks: server and clients in one process, real sockets in
    between.  A sharded deployment starts one of these per shard (plus
    one for the full-copy fallback) and puts a
    :class:`~repro.shard.client.ShardedServiceClient` in front.
    """
    server = QueryServer(session, registry, **server_options)
    started: "threading.Event" = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            box["address"] = loop.run_until_complete(server.start(host, port))
        except Exception as error:  # noqa: BLE001 — surface via started event
            box["error"] = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # Drain pending callbacks/tasks so sockets close cleanly.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, name="repro-query-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise ServiceError("query server failed to start within 30s")
    if "error" in box:
        raise ServiceError(f"query server failed to start: {box['error']}")
    bound_host, bound_port = box["address"]
    handle = ServerHandle(server, bound_host, bound_port)
    handle._loop = box["loop"]
    handle._thread = thread
    return handle
