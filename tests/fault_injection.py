"""Deterministic fault injection for the serving path.

Three tools, all dependency-free and deterministic (no random fault
timing — tests decide exactly which fault fires and when):

* :class:`FaultyProxy` — a TCP proxy in front of one server endpoint.
  Clients connect to the proxy; the proxy forwards to the real server and
  injects the configured fault mode:

  - ``"pass"``      forward everything faithfully (the healthy baseline);
  - ``"refuse"``    close every new connection immediately (and every
                    existing one at the moment the mode is set) — the
                    endpoint looks dead;
  - ``"drop"``      forward requests but swallow all response bytes — the
                    client waits until its deadline/timeout fires;
  - ``"delay"``     forward responses only after ``delay`` seconds;
  - ``"truncate"``  forward exactly ``truncate_bytes`` of the next
                    response, then cut the connection mid-frame.

  Every injected fault is appended as a JSON line to the file named by
  ``$REPRO_FAULT_LOG`` (when set) — CI uploads that log as an artifact on
  failure, so a red fault-injection run shows exactly which faults fired.

* :class:`ShardProcess` — one ``python -m repro serve --shard i/n``
  subprocess with kill/restart, for failures no in-process harness can
  fake (the whole server process dies mid-connection).  Since PR 7 this
  is the production class from :mod:`repro.shard.supervisor` (re-exported
  here so existing tests keep importing it from the harness).

* :func:`register_slow` — a registry entry that sleeps before answering,
  for deadline/admission/drain tests that need a predictably slow query
  without depending on data scale.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

from repro.data.queries import NESTED_QUERIES
from repro.service.registry import QueryRegistry, RegisteredQuery
from repro.shard.supervisor import ShardProcess, free_port

__all__ = ["FaultyProxy", "ShardProcess", "register_slow", "free_port"]

_CHUNK = 65536


class FaultyProxy:
    """A fault-injecting TCP proxy in front of one (host, port) endpoint."""

    MODES = ("pass", "refuse", "drop", "delay", "truncate")

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        mode: str = "pass",
        delay: float = 0.2,
        truncate_bytes: int = 6,
        label: str = "",
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.label = label or f"{upstream_host}:{upstream_port}"
        self._mode = mode
        self.delay = delay
        #: 4 length-prefix bytes + 2 body bytes: enough to start a frame,
        #: never enough to finish one — the canonical mid-frame cut.
        self.truncate_bytes = truncate_bytes
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._closing = False
        self.faults_injected = 0
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"proxy-{self.label}", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------ mode

    @property
    def mode(self) -> str:
        with self._lock:
            return self._mode

    def set_mode(self, mode: str) -> None:
        """Switch the fault mode; ``refuse`` also cuts live connections."""
        if mode not in self.MODES:
            raise ValueError(f"unknown proxy mode {mode!r}; one of {self.MODES}")
        with self._lock:
            self._mode = mode
            live = list(self._conns) if mode == "refuse" else []
        self._log("set_mode", mode=mode, cut_connections=len(live))
        for sock in live:
            _shutdown(sock)

    def _log(self, event: str, **fields: object) -> None:
        path = os.environ.get("REPRO_FAULT_LOG")
        record = {
            "ts": round(time.time(), 3),
            "proxy": self.label,
            "event": event,
            **fields,
        }
        if event == "fault":
            self.faults_injected += 1
        if not path:
            return
        try:
            with open(path, "a", encoding="utf-8") as log:
                log.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - the log is best-effort
            pass

    # -------------------------------------------------------------- plumbing

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if self._closing:
                _shutdown(client)
                return
            if self.mode == "refuse":
                self._log("fault", mode="refuse")
                _shutdown(client)
                continue
            try:
                server = socket.create_connection(self.upstream, timeout=5)
            except OSError:
                self._log("fault", mode="upstream-dead")
                _shutdown(client)
                continue
            with self._lock:
                self._conns.update((client, server))
            up = threading.Thread(
                target=self._pump,
                args=(client, server, "request"),
                daemon=True,
            )
            down = threading.Thread(
                target=self._pump,
                args=(server, client, "response"),
                daemon=True,
            )
            self._threads.extend((up, down))
            up.start()
            down.start()

    def _pump(
        self, source: socket.socket, sink: socket.socket, direction: str
    ) -> None:
        sent = 0
        try:
            while True:
                data = source.recv(_CHUNK)
                if not data:
                    break
                if direction == "response":
                    mode = self.mode
                    if mode == "drop":
                        self._log("fault", mode="drop", swallowed=len(data))
                        continue  # swallow; keep reading so the server
                        # never blocks on its send buffer
                    if mode == "delay":
                        self._log("fault", mode="delay", seconds=self.delay)
                        time.sleep(self.delay)
                    elif mode == "truncate":
                        budget = self.truncate_bytes - sent
                        if budget <= 0:
                            self._log("fault", mode="truncate", cut_at=sent)
                            break
                        if len(data) > budget:
                            sink.sendall(data[:budget])
                            sent += budget
                            self._log("fault", mode="truncate", cut_at=sent)
                            break
                sink.sendall(data)
                sent += len(data)
        except OSError:
            pass
        finally:
            _shutdown(source)
            _shutdown(sink)
            with self._lock:
                self._conns.discard(source)
                self._conns.discard(sink)

    def close(self) -> None:
        self._closing = True
        # Closing a listening socket does not wake an accept() blocked in
        # another thread; shutting it down does.
        _shutdown(self._listener)
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            live = list(self._conns)
        for sock in live:
            _shutdown(sock)
        self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "FaultyProxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# --------------------------------------------------------------------------
# Predictably slow queries (deadline / admission / drain tests).


class _SlowQuery(RegisteredQuery):
    """A registry entry that sleeps before delegating to a real query."""

    def __init__(self, name: str, seconds: float, base: str = "Q1") -> None:
        from repro.api.fluent import to_term

        super().__init__(
            name=name,
            term=to_term(NESTED_QUERIES[base]),
            description=f"sleeps {seconds}s, then answers {base}",
        )
        self.seconds = seconds

    def prepared(self, session):  # noqa: ANN001 - mirrors RegisteredQuery
        real = super().prepared(session)
        seconds = self.seconds

        class _SlowPrepared:
            def run(self, **kwargs):
                time.sleep(seconds)
                return real.run(**kwargs)

            def __getattr__(self, attr):  # compiled / explain / …
                return getattr(real, attr)

        return _SlowPrepared()


def register_slow(
    registry: QueryRegistry, name: str, seconds: float, base: str = "Q1"
) -> None:
    """Register ``name`` as ``base`` behind a ``seconds`` sleep."""
    entry = _SlowQuery(name, seconds, base)
    with registry._lock:
        registry._entries[name] = entry
