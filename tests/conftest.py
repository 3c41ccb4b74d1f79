"""Shared fixtures: the Fig. 3 database and schema, plus generated instances.

Also the ``deadline`` marker: the suites that spawn shard or server
processes carry it, and each phase of such a test fails after a fixed
deadline with every thread's traceback instead of hanging the run.

Also registers the ``repro-ci`` hypothesis profile: the tier-1 CI matrix
runs the property suites (including the oracle matrix's property part,
``tests/test_oracle_matrix.py``, whose example count is the active
profile's) under ``HYPOTHESIS_PROFILE=repro-ci``, which prints the
``@reproduce_failure`` blob on any failing example so a CI failure
replays locally exactly.  (``derandomize`` was measured >20× slower on
these recursive query strategies, so reproducibility comes from the blob
rather than from derandomised generation.)
"""

from __future__ import annotations

import asyncio
import faulthandler
import os
import signal
import sqlite3

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro-ci",
    print_blob=True,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

from repro.backend.database import Database
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    empty_database,
    figure3_database,
)


def run_per_path(query, db, options=None):
    """One-shot compile-run-stitch through the façade on the *per-path*
    reference executor, no plan cache — named explicitly so these tests'
    coverage of it does not migrate to whatever ``auto`` resolves to."""
    from repro.api import connect

    session = connect(db, options=options, cache=False)
    return session.query(query).run(engine="per-path").value


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(function)`` → a list that grows by one per *outermost*
    call of ``function`` (a recursive function counts once per entry),
    whichever ``repro`` module's by-name import the caller goes through —
    the spy behind the work bars, which count calls, not clocks."""
    import sys

    def install(function):
        calls: list = []
        depth: list = []

        def spy(*args, **kwargs):
            if not depth:
                calls.append(args)
            depth.append(None)
            try:
                return function(*args, **kwargs)
            finally:
                depth.pop()

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, function.__name__, None) is function
            ):
                monkeypatch.setattr(module, function.__name__, spy)
        return calls

    return install


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: spawns real serve subprocesses (kill/restart fault tests)",
    )
    config.addinivalue_line(
        "markers",
        "deadline(seconds=DEADLINE_S): each of the test's setup, call and "
        "teardown fails after `seconds` with every thread's traceback "
        "(SIGALRM) — the suites that spawn shard or server processes, so a "
        "hung child fails the job instead of stalling it",
    )


#: Seconds a ``deadline``-marked test phase may run; the slowest today (a
#: module-scoped cluster's teardown) takes ≈ 20 s.
DEADLINE_S = 120


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a test phase outlives its deadline —
    a ``BaseException``, so no ``except Exception`` in the code under test
    (or a hypothesis shrink) swallows it; pytest reports the test failed."""


def _phase_deadline(item):
    """Around one phase of a ``deadline``-marked test: raise
    :class:`DeadlineExceeded` in the main thread once the phase outlives
    its seconds, first writing every thread's stack to stderr with
    :mod:`faulthandler` (the worker that hung is rarely the main thread)."""
    marker = item.get_closest_marker("deadline")
    if marker is None:
        yield
        return
    seconds = marker.args[0] if marker.args else DEADLINE_S

    def expire(_signum, _frame):
        faulthandler.dump_traceback(all_threads=True)
        raise DeadlineExceeded(f"test phase exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_phase_deadline)
pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_phase_deadline)
pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_phase_deadline)


@pytest.fixture
def schema():
    return ORGANISATION_SCHEMA


@pytest.fixture
def db() -> Database:
    """The exact Fig. 3 sample instance."""
    return figure3_database()


@pytest.fixture
def empty_db() -> Database:
    return empty_database()


@pytest.fixture
def small_random_db() -> Database:
    """A small deterministic random instance (seeded) for integration tests."""
    from repro.data.generator import generate_organisation

    return generate_organisation(
        departments=3, employees_per_dept=4, contacts_per_dept=3, seed=42
    )


# --------------------------------------------------------------------------
# One wire client over both I/O drivers.


class _RunToCompletion:
    """An :class:`AsyncServiceClient` driven from synchronous test code:
    every method call (they all return awaitables) is run to completion
    on the fixture's event loop."""

    def __init__(self, client, loop) -> None:
        self._client, self._loop = client, loop

    def __getattr__(self, name):
        attribute = getattr(self._client, name)
        if not callable(attribute):
            return attribute
        return lambda *args, **kwargs: self._loop.run_until_complete(
            attribute(*args, **kwargs)
        )


@pytest.fixture(params=["blocking", "asyncio"])
def wire_client(request):
    """``wire_client(host, port, **options)`` → a lazily connecting,
    single-attempt client of the parametrised driver; the asyncio one sits
    behind :class:`_RunToCompletion`, so a test body is written once and
    runs as one cell per driver.  Everything made is closed at exit."""
    from repro.service import AsyncServiceClient, RetryPolicy, ServiceClient

    loop = asyncio.new_event_loop()
    made = []

    def make(host, port, **options):
        if request.param == "blocking":
            client = ServiceClient(
                host, port, connect_now=False, retry=RetryPolicy.none(),
                **options,
            )
        else:
            client = _RunToCompletion(
                AsyncServiceClient(host, port, **options), loop
            )
        made.append(client)
        return client

    yield make
    for client in made:
        client.close()
    loop.close()


# --------------------------------------------------------------------------
# Sharded sessions over both endpoint kinds.


def _store_gone(*args, **kwargs):
    """Stands in for a store's statement runner once the store died."""
    raise sqlite3.OperationalError("the store is gone")


class DeploymentSessions:
    """Builds deployment sessions (:func:`~repro.shard.connect_sharded`'s
    :class:`~repro.api.Session`) over one endpoint kind and tears
    everything down at fixture exit.

    ``local`` is ``connect_sharded(<ShardedDatabase>)`` (LocalEndpoints);
    ``wire`` serves every store of the same ShardedDatabase from an
    in-process server and puts a ``ShardedServiceClient`` over the
    addresses — same data, same catalogue, real sockets.  Either way
    ``session.db`` is the ShardedDatabase underneath.
    """

    def __init__(self, transport: str) -> None:
        self.transport = transport
        self._shared: dict = {}
        self._servers: dict = {}  # session → its server handles

    def __call__(
        self, shards=2, *, placement=None, database=None, options=None,
        cache=True, shared=False,
    ):
        """A session; ``shared=True`` reuses one per (shards, placement)
        for the fixture's lifetime — read-only tests only.  ``options`` /
        ``cache`` configure every store's session."""
        from repro.data.organisation import organisation_placement
        from repro.service import paper_registry, serve_in_background
        from repro.shard import ShardedDatabase, connect_sharded, endpoint_session

        if placement is None:
            placement = organisation_placement()
        key = (shards, placement)
        if shared and key in self._shared:
            return self._shared[key]
        registry = paper_registry()
        sdb = ShardedDatabase(database or figure3_database(), placement, shards)
        if self.transport == "local":
            session = connect_sharded(sdb, options=options, cache=cache, registry=registry)
            self._servers[session] = []
        else:
            labels = [f"{i}/{shards}" for i in range(shards)] + [f"full/{shards}"]
            handles = [
                serve_in_background(
                    endpoint_session(store, placement, options=options, cache=cache),
                    registry,
                    pool_size=2,
                    shard_label=label,
                )
                for store, label in zip([*sdb.shards, sdb.full], labels)
            ]
            session = self._over_the_wire(handles, sdb, registry, options)
            self._servers[session] = handles
        if shared:
            self._shared[key] = session
        return session

    def _over_the_wire(self, handles, sdb, registry, options=None):
        from repro.shard import ShardedServiceClient, deployment_session

        addresses = [(handle.host, handle.port) for handle in handles]
        client = ShardedServiceClient(
            addresses[:-1], addresses[-1], placement=sdb.placement,
            registry=registry, schema=sdb.schema, options=options,
        )
        return deployment_session(client, db=sdb)

    def sibling(self, session):
        """A session another thread may use next to ``session``: itself
        over local endpoints (shareable), a new coordinator to the same
        servers over the wire (thread-confined)."""
        if self.transport == "local":
            return session
        twin = self._over_the_wire(
            self._servers[session], session.db, session.client.registry,
            session.client.options,
        )
        self._servers[twin] = []
        return twin

    def break_fallback(self, session) -> None:
        """Make the full-copy fallback really fail: its store raises
        (local) / its server is gone (wire)."""
        if self.transport == "local":
            session.db.full.execute_sql_chunks = _store_gone
        else:
            self._servers[session][-1].stop()

    def close(self) -> None:
        for session, handles in self._servers.items():
            session.close()
            for handle in handles:
                handle.stop()
        self._servers.clear()


@pytest.fixture(scope="module", params=["local", "wire"])
def sharded_session(request):
    """The transport-parametrised sharded-session factory: every test
    that takes it runs once per endpoint kind."""
    sessions = DeploymentSessions(request.param)
    yield sessions
    sessions.close()
