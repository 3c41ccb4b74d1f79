"""``repro.service`` — the query service layer over the façade.

Turns a :class:`~repro.api.session.Session` into a long-running concurrent
query server::

    from repro.api import connect
    from repro.service import QueryRegistry, QueryServer, paper_registry

    session = connect(db)
    server = QueryServer(session, paper_registry(), pool_size=4)
    # asyncio: await server.start(host, port); await server.serve_forever()

    # or in-process (tests/benchmarks):
    from repro.service import serve_in_background
    with serve_in_background(session, paper_registry()) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.execute("Q6")

Six pieces:

* :mod:`~repro.service.registry` — the prepared-query catalogue: named
  shapes (fluent/captured/λNRC, with typed ``Param`` placeholders) that
  compile once through the plan cache and re-bind host parameters per call;
* :mod:`~repro.service.protocol` — length-prefixed JSON frames, the op
  list (``OPS``) and the client side of the protocol with the I/O left
  out (``ClientCore``);
* :mod:`~repro.service.resilience` — deadlines, retry policies and
  circuit breakers shared by the clients and the sharded fan-out;
* :mod:`~repro.service.core` — the server side of the protocol with the
  event loop left out (``ServerCore``): what every op of ``OPS`` checks,
  does and answers, as a synchronous ``handle(request) -> response``.
  The asyncio server and the in-process endpoints of
  :mod:`repro.shard.deployment` are its two drivers;
* :mod:`~repro.service.server` — the asyncio driver (``python -m repro
  serve``): every request runs on a leased read-only connection, on a
  worker thread — or, once its catalogue entry has proved *light* (a run
  fetched ≤ ``LIGHT_ROWS`` rows), right on the event loop, under a guard
  that interrupts it after ``INLINE_STEP_BUDGET`` SQLite steps and hands
  the request to a worker instead (the entry is *heavy* from then on).
  ``stats()["server"]["inline_runs"]`` / ``["escalations"]`` (metrics
  ``execute_inline_total`` / ``execute_escalations_total``) count the
  two; a point-lookup service reads ≈ executes and 0;
* :mod:`~repro.service.client` — the blocking and asyncio drivers of
  that core.
"""

from repro.service.client import (
    DEFAULT_TIMEOUT,
    AsyncServiceClient,
    ServiceClient,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    pack_frame,
    split_frame,
)
from repro.service.registry import QueryRegistry, RegisteredQuery, paper_registry
from repro.service.resilience import CircuitBreaker, Deadline, RetryPolicy
from repro.service.server import QueryServer, ServerHandle, serve_in_background

__all__ = [
    "QueryRegistry",
    "RegisteredQuery",
    "paper_registry",
    "QueryServer",
    "ServerHandle",
    "serve_in_background",
    "ServiceClient",
    "AsyncServiceClient",
    "DEFAULT_TIMEOUT",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "pack_frame",
    "split_frame",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
]
