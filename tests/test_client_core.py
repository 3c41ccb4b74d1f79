"""The protocol's client side, tested as a state machine — no sockets.

:class:`repro.service.protocol.ClientCore` owns a request's whole life
with the I/O left out, so every safety rule the two drivers share can be
pinned here deterministically, on a fake clock: framing and stamping, the
response parser under every possible read fragmentation, the desync
checks, and the failure verdicts (deadline / retry / give up / circuit
open).  ``test_protocol_parity.py`` then only has to show that each real
driver moves the bytes.
"""

from __future__ import annotations

import struct

import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceConnectionError,
    ServiceError,
)
from repro.service import CircuitBreaker, RetryPolicy
from repro.service.protocol import (
    _USE_DEFAULT,
    MAX_FRAME_BYTES,
    ClientCore,
    error_payload,
    pack_frame,
    split_frame,
)


class FakeDriver(ClientCore):
    """A driver with no transport: counts drops, records calls."""

    def __init__(self, *, timeout=5.0, deadline_ms=None, attempts=3, breaker=None):
        self.now = 100.0
        self.drops = 0
        self.calls = []
        super().__init__(
            "db.test", 7411, timeout, deadline_ms=deadline_ms, clock=lambda: self.now
        )
        self.retry = RetryPolicy(attempts=attempts, base_delay=1.0, jitter=0.0)
        self.breaker = breaker

    def _drop(self):
        self.drops += 1

    def _call(self, payload, project=None, **options):
        self.calls.append((payload, options))
        self.now += 0.25  # the round trip
        return project({"ok": True, "pong": True})

    def start(self, payload=None, deadline_ms=_USE_DEFAULT, retry=True):
        self._begin(payload or {"op": "stats", "id": 1}, deadline_ms, retry)
        self._admit()
        return self

    def feed(self, stream: bytes, cuts=()):
        """Deliver ``stream`` the way a socket may: never more than the
        core asked for, and additionally split at every offset in ``cuts``."""
        position, response = 0, None
        while response is None:
            end = position + self._wanted
            end = min([end] + [cut for cut in cuts if position < cut < end])
            response = self._receive(stream[position:end])
            position = end
        assert position == len(stream)
        return response


class TestFraming:
    def test_request_is_stamped_and_framed_once(self):
        core = FakeDriver(deadline_ms=250).start({"op": "ping"})
        assert split_frame(core._frame[4:]) == {
            "op": "ping", "id": 1, "deadline_ms": 250,
        }
        core.start({"op": "ping", "id": "mine"}, deadline_ms=None)
        assert split_frame(core._frame[4:]) == {"op": "ping", "id": "mine"}
        assert core._frame == pack_frame({"op": "ping", "id": "mine"})

    def test_response_split_at_every_boundary(self):
        reply = pack_frame({"ok": True, "id": 1, "rows": list(range(40))})
        expected = split_frame(reply[4:])
        core = FakeDriver()
        assert core.start().feed(reply) == expected  # two exact reads
        for cut in range(1, len(reply)):
            assert core.start().feed(reply, cuts=(cut,)) == expected, cut
        every_byte = range(1, len(reply))
        assert core.start().feed(reply, cuts=every_byte) == expected
        # An id-less answer (a v1.0 server) is accepted.
        assert core.start().feed(pack_frame({"ok": True})) == {"ok": True}

    @pytest.mark.parametrize(
        "stream",
        [
            struct.pack(">I", MAX_FRAME_BYTES + 1),  # oversize length prefix
            struct.pack(">I", 3) + b"{{{",  # malformed body
            struct.pack(">I", 2) + b"[]",  # not an object
            b"",  # the peer hung up
            pack_frame({"ok": True, "id": 99}),  # desync: somebody else's answer
        ],
    )
    def test_a_stream_that_cannot_be_trusted_is_dropped(self, stream):
        core = FakeDriver().start()
        with pytest.raises(ServiceError) as caught:
            core.feed(stream)
        assert not isinstance(caught.value, DeadlineExceededError)
        assert core.drops == 0
        assert core._failed(caught.value) == 1.0  # retry, after the backoff
        assert core.drops == 1 and core.retries == 1


class TestVerdicts:
    def test_error_frame_is_an_answer(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        core = FakeDriver(breaker=breaker).start()
        frame = error_payload(ServiceError("no such query", kind="UnknownQueryError"), 1)
        response = core.feed(pack_frame(frame))
        with pytest.raises(ServiceError) as caught:
            core._answered(response)
        assert caught.value.kind == "UnknownQueryError"
        # Success was recorded before the raise; nothing dropped or retried.
        assert breaker.snapshot()["consecutive_failures"] == 0
        assert core.drops == 0 and core.retries == 0

    def test_timeout_is_a_deadline_error_iff_the_deadline_expired(self):
        core = FakeDriver(timeout=0.2, attempts=1).start(deadline_ms=60000)
        core.now += 0.2  # the I/O timeout fired; 59.8s of budget left
        with pytest.raises(ServiceConnectionError) as caught:
            core._failed(TimeoutError("timed out"))
        assert not isinstance(caught.value, DeadlineExceededError)

        core = FakeDriver(timeout=5).start(deadline_ms=150)
        core.now += 0.15
        with pytest.raises(DeadlineExceededError, match="150ms"):
            core._failed(TimeoutError("timed out"))
        assert core.drops == 1

    def test_backoff_never_outlives_the_deadline(self):
        core = FakeDriver().start(deadline_ms=1000)
        assert core._budget("reading") == 1.0  # min(timeout 5, 1s left)
        core.now += 0.75
        assert core._failed(ConnectionResetError()) == pytest.approx(0.25)
        core.now += 0.25
        with pytest.raises(DeadlineExceededError, match="connecting"):
            core._budget("connecting")

    def test_attempts_exhausted_names_the_count(self):
        core = FakeDriver(attempts=3).start()
        assert core._failed(ConnectionRefusedError("refused")) == 1.0
        core._admit()
        assert core._failed(ConnectionRefusedError("refused")) == 2.0
        core._admit()
        with pytest.raises(
            ServiceConnectionError, match=r"db.test:7411 failed after 3 attempt"
        ):
            core._failed(ConnectionRefusedError("refused"))
        assert (core.retries, core.drops) == (2, 3)
        # retry=False is a single attempt whatever the policy.
        with pytest.raises(ServiceConnectionError, match="after 1 attempt"):
            core.start(retry=False)._failed(ConnectionRefusedError())

    def test_open_breaker_refuses_the_attempt(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60)
        core = FakeDriver(breaker=breaker).start()
        core._failed(ConnectionRefusedError())  # trips it
        with pytest.raises(ServiceConnectionError) as caught:
            core._admit()
        assert caught.value.kind == "CircuitOpen"
        assert breaker.fast_failures == 1


def test_ping_is_single_attempt_and_timed_on_the_injected_clock():
    core = FakeDriver()
    core.ping(deadline_ms=500)
    assert core.calls == [({"op": "ping"}, {"deadline_ms": 500, "retry": False})]
    assert core.last_ping_ms == pytest.approx(250.0)
