"""The frame handoff from producer thread to socket.

The producer hands frames to the loop without waiting while the session
queue has room, and the loop writes every ready frame with one socket
write.  These tests pin what that must not change: a session's first
``step`` frame reaches the client while the producer is still blocked
behind it, a repeated session is answered on the loop from the frames
it kept, and ``/metrics`` shows the memory hits, the loop-side replays
and how many writes carried the frames.
"""

import json
import socket
import threading
import time

from repro.confection import Confection
from repro.engine.registry import get_backend
from repro.server import client as wire
from repro.server.http import parse_chunked

from tests.server.test_app import _wait_for_no_sessions

PROGRAM = "(or #f #f (not #t) (and #t #f) #t)"


class _BlockingStepper:
    """Delegates to ``inner``, but every step after the first parks on
    ``release``: the lift shows its step 0 and then stalls."""

    def __init__(self, inner, release):
        self._inner = inner
        self._release = release
        self.steps = 0

    def load(self, core_term):
        return self._inner.load(core_term)

    def term(self, state):
        return self._inner.term(state)

    def step(self, state):
        self.steps += 1
        if self.steps > 1:
            assert self._release.wait(timeout=30), "never released"
        return self._inner.step(state)


def test_first_step_arrives_while_the_producer_is_blocked(make_server):
    harness = make_server(max_sessions=4)
    backend = get_backend("lambda")
    release = threading.Event()
    stepper = _BlockingStepper(backend.make_stepper(), release)
    rules = backend.make_rules(None)
    harness.server._make_engine = lambda request: (
        Confection(rules, stepper),
        backend,
    )
    body = json.dumps({"program": PROGRAM}).encode()
    with socket.create_connection(
        (harness.host, harness.port), timeout=10
    ) as sock:
        sock.sendall(
            (
                f"POST /lift HTTP/1.1\r\nHost: h\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        received = b""
        while b'"type":"step"' not in received:
            data = sock.recv(65536)
            assert data, "connection closed before the first step"
            received += data
        # Frame 0 arrived with the producer held in its stepper.
        assert not release.is_set()
        deadline = time.monotonic() + 10
        while stepper.steps < 2:
            assert time.monotonic() < deadline, "producer never parked"
            time.sleep(0.01)
        release.set()
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received += data
    payload, complete = parse_chunked(received.partition(b"\r\n\r\n")[2])
    assert complete
    frames = [json.loads(line) for line in payload.splitlines()]
    assert frames[0]["type"] == "step" and frames[0]["index"] == 0
    assert frames[-1]["type"] == "halted"
    _wait_for_no_sessions(harness.manager)


def _metric(harness, name):
    _, _, body = wire.request(harness.host, harness.port, "GET", "/metrics")
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} not exported")


def test_repeated_session_is_a_memory_hit_in_metrics(make_server, tmp_path):
    harness = make_server(max_sessions=4, cache_dir=tmp_path)
    request = {"program": PROGRAM}
    counters = (
        "repro_cache_lift_memo_hits_total",
        "repro_server_frames_sent_total",
        "repro_server_writes_total",
        "repro_server_replays_total",
    )

    def deltas(before):
        return [_metric(harness, n) - b for n, b in zip(counters, before)]

    before = [_metric(harness, name) for name in counters]
    first = wire.lift_session_raw(harness.host, harness.port, request)
    memo_hits, sent, written, replays = deltas(before)
    # The miss runs on the executor: the first step goes out alone, the
    # rest may share writes.
    assert (memo_hits, replays) == (0, 0)
    assert sent == len(first.splitlines())
    assert 2 <= written <= sent

    before = [_metric(harness, name) for name in counters]
    assert wire.lift_session_raw(harness.host, harness.port, request) == first
    # The repeat is answered on the loop, all its frames in one write.
    assert deltas(before) == [1, len(first.splitlines()), 1, 1]
    stats = harness.server._lift_cache.stats()
    assert (stats["memo_hits"], stats["disk_hits"]) == (1, 0)
    assert stats["memo_recordings"] == 1
    _wait_for_no_sessions(harness.manager)
