"""Clients for the query service: two I/O drivers over one protocol core.

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", 7411) as client:
        client.prepare("staff_above")
        rows = client.execute("staff_above", params={"min_salary": 900})

The client side of the protocol — stamping and framing a request, parsing
and checking its response, judging a transport failure, and every op's
payload and projection — is written once, without I/O, in
:class:`repro.service.protocol.ClientCore`.  The two classes here add
only what genuinely differs: connect, bounded write, read, sleep and
close — :class:`ServiceClient` over a blocking socket,
:class:`AsyncServiceClient` over asyncio streams, with the same ops
(awaitable there), the same counters and the same errors
(:class:`~repro.errors.ServiceError` carrying the server's classification
in ``.kind`` for error responses).

Fault tolerance (the v1.1 contract — one statement for both drivers):

* **one uniform timeout** — ``timeout=`` bounds the TCP connect *and*
  every subsequent read and write (default ``DEFAULT_TIMEOUT`` = 30s);
* **per-request deadlines** — ``deadline_ms`` (per call or as the
  client-wide default) is a wall-clock budget threaded into every wait
  and forwarded to the server, which enforces it independently; on
  expiry the client raises :class:`~repro.errors.DeadlineExceededError`.
  A wait that times out *before* the deadline is a connection failure,
  not a deadline error;
* **drop on any transport error** — a timeout or partial read mid-frame
  leaves unread bytes on the wire, so the *next* request would read a
  stale response; the connection is closed on every transport error and
  re-established lazily.  Request ids (echoed by the server) are
  verified on every response as a second line of defence: a response
  carrying the wrong id is discarded *with* the connection;
* **closed stays closed** — after ``close()`` every op raises instead of
  silently reconnecting.

What each driver adds:

* *blocking* — **bounded retries**: transport failures (never structured
  error frames, which are answers) are retried per
  :class:`~repro.service.resilience.RetryPolicy` — exponential backoff
  with jitter, never beyond the request deadline; safe because every op
  is read-only or, for ``insert``, idempotent by key — and an optional
  per-endpoint **circuit breaker**
  (:class:`~repro.service.resilience.CircuitBreaker`): consecutive
  transport failures trip it, tripped requests fail fast with
  :class:`~repro.errors.ServiceConnectionError` (kind ``CircuitOpen``)
  instead of re-paying connect timeouts, and a half-open probe heals it.
  Thread-confined: share a connection per thread, not one across threads;
* *asyncio* — a **single attempt**, no breaker: an asyncio caller composes
  its own backoff.  One request at a time per client.
"""

from __future__ import annotations

import asyncio
import socket
import time
from contextlib import suppress
from typing import Any, Callable, Optional

from repro.errors import ServiceConnectionError, ServiceError
from repro.service.protocol import _USE_DEFAULT, DEFAULT_TIMEOUT, ClientCore
from repro.service.resilience import CircuitBreaker, RetryPolicy

__all__ = ["ServiceClient", "AsyncServiceClient", "DEFAULT_TIMEOUT"]


class ServiceClient(ClientCore):
    """The blocking driver: one persistent socket, retries, an optional
    breaker (thread-confined: share a connection per thread, not one
    across threads)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: float = DEFAULT_TIMEOUT,
        *,
        deadline_ms: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        connect_now: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(host, port, timeout, deadline_ms=deadline_ms, clock=clock)
        self.retry = RetryPolicy() if retry is None else retry
        self.breaker = breaker
        self._socket: Optional[socket.socket] = None
        if connect_now:
            self._connect(timeout)

    def _connect(self, limit: Optional[float]) -> None:
        self._socket = socket.create_connection(
            (self.host, self.port), timeout=limit
        )
        self._connected()

    def _drop(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._socket = None

    def request(
        self,
        payload: dict,
        *,
        deadline_ms: object = _USE_DEFAULT,
        retry: bool = True,
    ) -> dict:
        """One request/response round trip (raises on error frames).

        Transport failures close the connection and are retried within
        the request's deadline; structured error frames are answers and
        raise without retrying.
        """
        self._begin(payload, deadline_ms, retry)
        while True:
            self._admit()
            try:
                if self._socket is None:
                    self._connect(self._budget("connecting"))
                assert self._socket is not None
                self._socket.settimeout(self._budget("sending the request"))
                self._socket.sendall(self._frame)
                response = None
                while response is None:
                    self._socket.settimeout(self._budget("awaiting the response"))
                    response = self._receive(self._socket.recv(self._wanted))
            except (OSError, ServiceError) as error:
                time.sleep(self._failed(error))
                continue
            return self._answered(response)

    def _call(
        self,
        payload: dict,
        project: Optional[Callable[[dict], Any]] = None,
        **options: Any,
    ) -> Any:
        response = self.request(payload, **options)
        return response if project is None else project(response)

    def close(self) -> None:
        """Polite shutdown: send the close op, then drop the socket."""
        if self._socket is not None and not self._closed:
            with suppress(ServiceError):  # the socket may already be gone
                self.request({"op": "close"}, retry=False)
        self._closed = True
        self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncServiceClient(ClientCore):
    """The asyncio driver: the same ops, awaitable; a single attempt per
    request and no breaker."""

    _reader: Optional[asyncio.StreamReader] = None
    _writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "AsyncServiceClient":
        await self._connect(self.timeout)
        return self

    async def _connect(self, limit: Optional[float]) -> None:
        # Failures surface as ServiceConnectionError, never a raw OSError
        # — this connect is also a public entry point.
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), limit
            )
        except OSError as error:  # a TimeoutError is one, with no message
            raise ServiceConnectionError(
                f"connect to {self.host}:{self.port} failed: "
                f"{str(error) or f'timed out after {limit}s'}"
            ) from error
        self._connected()

    def _drop(self) -> None:
        if self._writer is not None:
            # abort, not close: close would go on flushing a request the
            # peer may never read.
            self._writer.transport.abort()
        self._reader = self._writer = None

    async def request(
        self, payload: dict, *, deadline_ms: object = _USE_DEFAULT
    ) -> dict:
        """One request/response round trip (raises on error frames); a
        transport failure closes the connection and raises."""
        self._begin(payload, deadline_ms, retry=False)
        self._admit()
        try:
            if self._writer is None:
                await self._connect(self._budget("connecting"))
            assert self._reader is not None and self._writer is not None
            limit = self._budget("sending the request")
            self._writer.write(self._frame)
            await asyncio.wait_for(self._writer.drain(), limit)
            response = None
            while response is None:
                limit = self._budget("awaiting the response")
                response = self._receive(
                    await asyncio.wait_for(
                        self._reader.readexactly(self._wanted), limit
                    )
                )
        except (OSError, EOFError, ServiceError) as error:
            self._failed(error)  # single attempt: the verdict is an error
            raise
        return self._answered(response)

    async def _call(
        self,
        payload: dict,
        project: Optional[Callable[[dict], Any]] = None,
        *,
        deadline_ms: object = _USE_DEFAULT,
        retry: bool = False,  # accepted from ping(); there is nothing to turn off
    ) -> Any:
        response = await self.request(payload, deadline_ms=deadline_ms)
        return response if project is None else project(response)

    async def close(self) -> None:
        """Polite shutdown: send the close op, then close the stream."""
        writer = self._writer
        if writer is not None and not self._closed:
            with suppress(ServiceError):  # the stream may already be gone
                await self.request({"op": "close"})
        self._closed = True
        self._drop()
        if writer is not None:
            with suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
