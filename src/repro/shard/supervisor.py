"""Process supervision for local shard deployments (self-healing groups).

The serving story so far assumed someone else keeps the ``python -m
repro serve --shard i/n`` processes alive.  This module is that someone:

* :class:`ShardProcess` — one ``serve`` subprocess under management:
  argv construction (shard label, replica index, scale, durable
  ``--data-dir``), readiness probing via the wire ``ping``, ``kill`` /
  ``restart`` / graceful ``terminate`` (SIGINT → the server's own drain
  path), and stdout/stderr capture to per-shard log files (CI uploads
  them as failure artifacts).  It generalises the fault-injection
  harness's class of the same name, which is now a thin alias.
* :class:`Supervisor` — the health-check loop over a set of processes:
  a dead process is restarted after an exponential backoff, a process
  that keeps dying (``crash_loop_threshold`` deaths inside
  ``crash_loop_window`` seconds) is declared failed and left down —
  restarting a crash-looper forever just burns the machine it shares
  with its healthy siblings.  ``poll()`` is a *pure step* driven by an
  injectable clock, so tests advance time explicitly and assert the
  exact event sequence; ``run_in_background()`` wraps the same step in
  a daemon thread for real deployments.
* :func:`spawn_group` / :class:`SupervisedDeployment` — spawn a full
  replica-group fleet (``shards`` × ``replication`` partition servers
  plus the full-copy fallback), supervise it, and hand back the address
  lists a :class:`~repro.shard.client.ShardedServiceClient` takes.

Determinism: the supervisor itself never makes a routing decision — it
only restarts processes.  The client's breakers/replica order decide
where requests go while a process is down; once the restarted server
answers ``ping`` again, ``check_health`` closes the loop.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import ShardingError

__all__ = [
    "ShardProcess",
    "Supervisor",
    "SupervisedDeployment",
    "spawn_group",
    "free_port",
]


def free_port() -> int:
    """An OS-assigned free TCP port (closed again before use — the usual
    benign race; callers bind immediately after)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _source_root() -> str:
    """The directory to put on a child's PYTHONPATH so ``-m repro``
    resolves to *this* checkout, installed or not."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


class ShardProcess:
    """One ``python -m repro serve`` subprocess under management.

    ``shard`` is the deployment label (``"i/n"``, ``"full/n"``, or ``""``
    for an unsharded server); ``replica`` distinguishes siblings serving
    the same partition (it shifts the durable file name and the log file
    name, nothing else — replicas are full peers).  ``data_dir`` makes
    the server durable (``serve --data-dir``): a restart recovers every
    pre-crash insert from the on-disk store instead of regenerating seed
    data.  ``log_dir`` (default ``$REPRO_SUPERVISOR_LOG_DIR``) captures
    stdout/stderr per process; unset, output is discarded.
    """

    def __init__(
        self,
        shard: str = "",
        port: Optional[int] = None,
        pool: int = 1,
        *,
        replica: int = 0,
        scale: int = 0,
        rows: int = 20,
        placement_spec: Optional[str] = None,
        data_dir: "str | os.PathLike | None" = None,
        log_dir: "str | os.PathLike | None" = None,
        ready_timeout: float = 30.0,
        start_now: bool = True,
    ) -> None:
        if replica < 0:
            raise ShardingError(f"replica index must be ≥0, got {replica}")
        self.shard = shard
        self.replica = replica
        self.port = free_port() if port is None else port
        self.pool = pool
        self.scale = scale
        self.rows = rows
        #: ``Placement.to_spec()`` text forwarded as ``serve --placement``
        #: so the child partitions its regenerated data exactly like the
        #: deployment's client routes (None = the server default).
        self.placement_spec = placement_spec
        self.data_dir = os.fspath(data_dir) if data_dir is not None else None
        log_dir = (
            log_dir
            if log_dir is not None
            else os.environ.get("REPRO_SUPERVISOR_LOG_DIR") or None
        )
        self.log_dir = os.fspath(log_dir) if log_dir is not None else None
        self.ready_timeout = ready_timeout
        self.process: Optional[subprocess.Popen] = None
        self._log_handles: list = []
        if start_now:
            self.start()

    # ---------------------------------------------------------------- naming

    @property
    def label(self) -> str:
        """The endpoint label: the shard label for primaries (``"2/4"``),
        the replica-suffixed form for siblings (``"2.1/4"``) — matching
        :meth:`~repro.shard.client.ShardedServiceClient.replica_label`."""
        base = self.shard or "single"
        if not self.replica:
            return base
        index, slash, count = base.partition("/")
        if slash:
            return f"{index}.{self.replica}/{count}"
        return f"{base}.{self.replica}"

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def argv(self) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(self.port),
            "--pool",
            str(self.pool),
        ]
        if self.shard:
            argv += ["--shard", self.shard]
        if self.scale:
            argv += ["--scale", str(self.scale), "--rows", str(self.rows)]
        if self.placement_spec:
            argv += ["--placement", self.placement_spec]
        if self.data_dir is not None:
            argv += ["--data-dir", self.data_dir]
        if self.replica:
            argv += ["--replica", str(self.replica)]
        return argv

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn the server (idempotent while it is alive) and block until
        it answers ``ping`` on the wire."""
        if self.launch():
            self.await_ready()

    def launch(self) -> bool:
        """Spawn the server without waiting for it; False (and nothing
        done) while a previous incarnation is alive.  Follow with
        :meth:`await_ready` — :func:`spawn_group` launches a whole fleet
        first so the children boot side by side."""
        if self.process is not None and self.process.poll() is None:
            return False
        env = dict(os.environ)
        src = _source_root()
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        stdout, stderr = self._open_logs()
        self.process = subprocess.Popen(
            self.argv(), env=env, stdout=stdout, stderr=stderr
        )
        return True

    def await_ready(self) -> None:
        """Block until the launched server answers ``ping`` on the wire."""
        try:
            self._await_ready(self.ready_timeout)
        except BaseException:
            # A child that never became ready (bad argv, port stolen,
            # boot hang) must not outlive the exception: kill and *reap*
            # it here, or a spawning loop that fails midway strands live
            # subprocesses no caller holds a handle to.
            self.kill()
            raise

    def _open_logs(self):
        if not self.log_dir:
            return subprocess.DEVNULL, subprocess.DEVNULL
        self._close_logs()
        directory = Path(self.log_dir)
        directory.mkdir(parents=True, exist_ok=True)
        slug = self.label.replace("/", "-of-")
        # Append across restarts: the log shows every incarnation.
        out = open(directory / f"shard-{slug}.out.log", "ab")
        err = open(directory / f"shard-{slug}.err.log", "ab")
        self._log_handles = [out, err]
        return out, err

    def _close_logs(self) -> None:
        for handle in self._log_handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort
                pass
        self._log_handles = []

    def _await_ready(self, timeout: float) -> None:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert self.process is not None
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve --shard {self.shard or '-'} exited with "
                    f"{self.process.returncode} before accepting connections"
                )
            try:
                client = ServiceClient(
                    "127.0.0.1", self.port, timeout=2, connect_now=True
                )
            except OSError:
                time.sleep(0.05)
                continue
            try:
                client.ping(deadline_ms=2000)
                return
            except Exception:  # noqa: BLE001 - still booting
                time.sleep(0.05)
            finally:
                client.close()
        raise RuntimeError(
            f"serve --shard {self.shard or '-'} not ready within {timeout}s"
        )

    def poll(self) -> Optional[int]:
        """``None`` while the server runs; its exit code once it died
        (a never-started process reads as dead with code ``-1``)."""
        if self.process is None:
            return -1
        return self.process.poll()

    def kill(self) -> None:
        """SIGKILL the server process — connections die mid-whatever."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self._close_logs()

    def terminate(self, grace: float = 10.0) -> None:
        """Graceful stop: SIGINT triggers the server's own drain path
        (in-flight requests finish, new connects are refused); a server
        that outlives ``grace`` seconds is killed."""
        if self.process is not None and self.process.poll() is None:
            try:
                self.process.send_signal(signal.SIGINT)
                self.process.wait(timeout=grace)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=10)
        self._close_logs()

    def restart(self) -> None:
        self.kill()
        self.process = None
        self.start()

    def close(self) -> None:
        self.kill()

    def __enter__(self) -> "ShardProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.poll() is not None else "up"
        return f"<ShardProcess {self.label} :{self.port} {state}>"


@dataclass
class _ProcessState:
    """Supervision bookkeeping for one managed process."""

    #: Clock times of observed deaths inside the crash-loop window.
    deaths: list = field(default_factory=list)
    #: When the pending restart fires (None = no restart scheduled).
    restart_at: Optional[float] = None
    restarts: int = 0
    #: Crash-looped: left down until an operator intervenes.
    failed: bool = False


class Supervisor:
    """Auto-restart with exponential backoff + crash-loop detection.

    One :meth:`poll` is one deterministic supervision step against the
    injected ``clock``: newly dead processes get a restart scheduled
    ``backoff_base · 2^(deaths-1)`` seconds out (capped at
    ``backoff_cap``); a scheduled restart whose time has come is
    executed; ``crash_loop_threshold`` deaths inside
    ``crash_loop_window`` seconds mark the process *failed* and stop
    restarting it.  A process that stays up a full window gets its death
    history forgiven.  Every step returns (and accumulates in
    ``self.events``) the events it produced, so tests assert exact
    sequences instead of sleeping and hoping.
    """

    def __init__(
        self,
        processes: Sequence[ShardProcess],
        *,
        clock: Callable[[], float] = time.monotonic,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        crash_loop_threshold: int = 5,
        crash_loop_window: float = 30.0,
        check_interval: float = 0.25,
        metrics: object = None,
    ) -> None:
        if crash_loop_threshold < 2:
            raise ShardingError(
                f"crash-loop threshold must be ≥2, got {crash_loop_threshold}"
            )
        self.processes = list(processes)
        self.clock = clock
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self.check_interval = check_interval
        self._states = [_ProcessState() for _ in self.processes]
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stopped = False
        self.metrics: object = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry) -> None:
        """Count supervision events (deaths, restarts, crash loops) into a
        :class:`~repro.obs.MetricsRegistry`, and expose how many shards are
        currently declared failed as a gauge."""
        self._m_events = {
            "died": registry.counter(
                "supervisor_deaths_total",
                "Shard process deaths observed by the supervisor.",
                labels=("shard",),
            ),
            "restarted": registry.counter(
                "supervisor_restarts_total",
                "Shard processes restarted by the supervisor.",
                labels=("shard",),
            ),
            "restart-failed": registry.counter(
                "supervisor_restart_failures_total",
                "Restart attempts that came up dead.",
                labels=("shard",),
            ),
            "crash-loop": registry.counter(
                "supervisor_crash_loops_total",
                "Shards declared failed after repeated rapid deaths.",
                labels=("shard",),
            ),
        }
        registry.gauge(
            "supervisor_failed_shards",
            "Shards the supervisor has given up restarting.",
            callback=lambda: sum(1 for s in self._states if s.failed),
        )
        self.metrics = registry

    # ------------------------------------------------------------------ step

    def poll(self) -> list[dict]:
        """One supervision step; returns the events this step produced."""
        now = self.clock()
        events: list[dict] = []
        with self._lock:
            for process, state in zip(self.processes, self._states):
                if state.failed:
                    continue
                code = process.poll()
                if code is None:
                    if (
                        state.deaths
                        and state.restart_at is None
                        and now - state.deaths[-1] >= self.crash_loop_window
                    ):
                        state.deaths.clear()  # a full quiet window: forgiven
                    continue
                if state.restart_at is None:
                    # Newly observed death.
                    state.deaths = [
                        at
                        for at in state.deaths
                        if now - at <= self.crash_loop_window
                    ]
                    state.deaths.append(now)
                    if len(state.deaths) >= self.crash_loop_threshold:
                        state.failed = True
                        events.append(
                            {
                                "event": "crash-loop",
                                "shard": process.label,
                                "deaths": len(state.deaths),
                            }
                        )
                        continue
                    backoff = min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (len(state.deaths) - 1)),
                    )
                    state.restart_at = now + backoff
                    events.append(
                        {
                            "event": "died",
                            "shard": process.label,
                            "returncode": code,
                            "backoff": backoff,
                        }
                    )
                if state.restart_at is not None and now >= state.restart_at:
                    state.restart_at = None
                    try:
                        process.start()
                    except (RuntimeError, OSError) as error:
                        # Came up dead (or not at all): the next step sees
                        # a fresh death and backs off further.
                        events.append(
                            {
                                "event": "restart-failed",
                                "shard": process.label,
                                "error": str(error),
                            }
                        )
                    else:
                        state.restarts += 1
                        events.append(
                            {
                                "event": "restarted",
                                "shard": process.label,
                                "port": process.port,
                            }
                        )
            self.events.extend(events)
        if self.metrics is not None:
            for event in events:
                counter = self._m_events.get(event["event"])
                if counter is not None:
                    counter.labels(shard=event["shard"]).inc()
        return events

    # -------------------------------------------------------------- threaded

    def run_in_background(self) -> None:
        """Run :meth:`poll` every ``check_interval`` seconds in a daemon
        thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stopped = False  # a restarted loop may be stopped again
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-supervisor", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll()
            except Exception:  # pragma: no cover - keep supervising
                pass
            self._stop.wait(self.check_interval)

    def stop(self, drain_grace: float = 10.0) -> None:
        """Stop the loop, then gracefully drain every managed process.

        Idempotent and crash-tolerant: a second stop is a no-op, and
        children that already died (crash, explicit kill, a sibling's
        teardown) are skipped by :meth:`ShardProcess.terminate` instead
        of raising or waiting out the drain grace."""
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        for process in self.processes:
            process.terminate(grace=drain_grace)

    # -------------------------------------------------------------- surface

    def status(self) -> list[dict]:
        """Point-in-time view of every managed process."""
        with self._lock:
            return [
                {
                    "shard": process.label,
                    "port": process.port,
                    "alive": process.poll() is None,
                    "restarts": state.restarts,
                    "failed": state.failed,
                    "recent_deaths": len(state.deaths),
                }
                for process, state in zip(self.processes, self._states)
            ]

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# --------------------------------------------------------------------------
# Fleet spawning: shards × replicas + the full-copy fallback.


def spawn_group(
    shards: int,
    *,
    replication: int = 1,
    pool: int = 1,
    scale: int = 0,
    rows: int = 20,
    placement: object = None,
    data_dir: "str | os.PathLike | None" = None,
    log_dir: "str | os.PathLike | None" = None,
    base_port: int = 0,
) -> tuple[list[list[ShardProcess]], ShardProcess]:
    """Spawn a full local deployment: for each of ``shards`` partitions a
    replica group of ``replication`` processes (primary first), plus the
    full-copy fallback server.  Returns ``(groups, fallback)``.

    ``placement`` (a :class:`~repro.shard.placement.Placement`) is
    forwarded to every child as ``serve --placement`` so the servers
    partition their regenerated data under the same policy the client
    routes with; None keeps the server default.

    ``base_port=0`` takes OS-assigned free ports; otherwise the fallback
    binds ``base_port`` and shard ``i`` replica ``j`` binds
    ``base_port + 1 + i·replication + j`` (stable, scriptable).  The
    children are launched together and then awaited one by one.  On any
    spawn failure *every* process of the partial group — including the
    child whose own readiness probe failed — is killed and reaped before
    the exception propagates: constructors run with ``start_now=False``
    so a process is tracked before its subprocess ever exists, and no
    spawn path can strand an orphan.
    """
    if shards < 1:
        raise ShardingError(f"shard count must be ≥1, got {shards}")
    if replication < 1:
        raise ShardingError(
            f"replication factor must be ≥1, got {replication}"
        )
    spec: Optional[str] = None
    if placement is not None:
        to_spec = getattr(placement, "to_spec", None)
        spec = to_spec() if callable(to_spec) else str(placement)

    def port_for(slot: int) -> Optional[int]:
        return None if not base_port else base_port + slot

    started: list[ShardProcess] = []
    try:
        fallback = ShardProcess(
            shard=f"full/{shards}",
            port=port_for(0),
            pool=pool,
            scale=scale,
            rows=rows,
            placement_spec=spec,
            data_dir=data_dir,
            log_dir=log_dir,
            start_now=False,
        )
        started.append(fallback)
        groups: list[list[ShardProcess]] = []
        for index in range(shards):
            group: list[ShardProcess] = []
            for replica in range(replication):
                process = ShardProcess(
                    shard=f"{index}/{shards}",
                    port=port_for(1 + index * replication + replica),
                    pool=pool,
                    replica=replica,
                    scale=scale,
                    rows=rows,
                    placement_spec=spec,
                    data_dir=data_dir,
                    log_dir=log_dir,
                    start_now=False,
                )
                started.append(process)
                group.append(process)
            groups.append(group)
        # Every child first, then every readiness probe: interpreter
        # start-up and imports overlap instead of queueing.
        for process in started:
            process.launch()
        for process in started:
            process.await_ready()
    except BaseException:
        for process in started:
            process.kill()
        raise
    return groups, fallback


class SupervisedDeployment:
    """A spawned, supervised fleet plus the client that talks to it.

    The one-call path from nothing to a self-healing deployment::

        from repro.shard import SupervisedDeployment

        with SupervisedDeployment(
            shards=2, replication=2, data_dir="./state",
            placement=placement, registry=registry, schema=schema,
        ) as deployment:
            deployment.client.check_health()
            deployment.client.execute("Q1")

    The supervisor loop runs in the background; a killed primary is
    absorbed by its sibling replica (the client's routing) and restarted
    (the supervisor), recovering its durable store.  ``close()`` drains
    the fleet gracefully.
    """

    def __init__(
        self,
        shards: int,
        *,
        placement,
        registry,
        schema,
        replication: Optional[int] = None,
        pool: int = 1,
        scale: int = 0,
        rows: int = 20,
        data_dir: "str | os.PathLike | None" = None,
        log_dir: "str | os.PathLike | None" = None,
        base_port: int = 0,
        supervise: bool = True,
        client_options: Optional[dict] = None,
        supervisor_options: Optional[dict] = None,
    ) -> None:
        from repro.shard.client import ShardedServiceClient

        if replication is None:
            replication = placement.replication
        self._closed = False
        self.groups, self.fallback = spawn_group(
            shards,
            replication=replication,
            pool=pool,
            scale=scale,
            rows=rows,
            placement=placement,
            data_dir=data_dir,
            log_dir=log_dir,
            base_port=base_port,
        )
        processes = [self.fallback] + [
            process for group in self.groups for process in group
        ]
        self.supervisor = Supervisor(processes, **(supervisor_options or {}))
        self.client = ShardedServiceClient(
            self.shard_addresses,
            self.fallback.address,
            placement=placement.with_replication(replication),
            registry=registry,
            schema=schema,
            **(client_options or {}),
        )
        if supervise:
            self.supervisor.run_in_background()

    @property
    def shard_addresses(self) -> list[list[tuple[str, int]]]:
        return [
            [process.address for process in group] for group in self.groups
        ]

    def close(self, drain_grace: float = 10.0) -> None:
        """Tear the deployment down: close the client, stop supervising,
        drain every child.  Idempotent (a second close is a no-op) and
        tolerant of children that already died — a crashed shard must not
        turn shutdown into an exception or a full drain-grace hang."""
        if self._closed:
            return
        self._closed = True
        self.client.close()
        self.supervisor.stop(drain_grace=drain_grace)

    def __enter__(self) -> "SupervisedDeployment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
