"""Repeated sessions answered on the event loop.

A ``--cache`` server keeps the encoded frames of every session that ran
to ``halted`` and writes them again, with one write, for a request with
the same wire identity.  These tests pin which repeats the loop answers
and which go back to the executor: a budget that would cut the
recording, a recording the cache evicted, and one that
``clear_intern_caches()`` dropped all run on the executor, stream the
bytes of a cold run, and refill the map.  A client that vanishes during
the replay write is reaped like any other disconnect.
"""

import json
import socket
import time

from repro.cache import lift as cache_lift
from repro.core.intern import clear_intern_caches
from repro.obs import Observability, SpanCollector
from repro.obs.metrics import (
    CACHE_LIFT_MEMO_HITS,
    SERVER_REPLAYS,
    SERVER_SESSIONS_CANCELLED,
)
from repro.server import ServerLimits
from repro.server import client as wire

from tests.server.test_app import _doubling_chain, _wait_for_no_sessions

PROGRAM = "(or #f #f (not #t) (and #t #f) #t)"
OTHER = "(and #t #t #f)"


def _lift(harness, request):
    """The session's bytes, and whether the loop answered it."""
    replays = SERVER_REPLAYS.value
    body = wire.lift_session_raw(harness.host, harness.port, request)
    return body, SERVER_REPLAYS.value - replays == 1


def test_budget_below_the_recording_runs_on_the_executor(make_server, tmp_path):
    cached = make_server(max_sessions=4, cache_dir=tmp_path)
    plain = make_server(max_sessions=4)
    full, replayed = _lift(cached, {"program": PROGRAM})
    assert not replayed
    core_steps = json.loads(full.splitlines()[-1])["core_steps"]
    # max_steps = n - 1 still runs core index n - 1, the recording's
    # last: the whole session is answered on the loop.
    whole = {"program": PROGRAM, "max_steps": core_steps - 1}
    assert _lift(cached, whole) == (full, True)
    for on_budget in ("truncate", "raise"):
        cut = dict(whole, max_steps=core_steps - 2, on_budget=on_budget)
        memo_hits = CACHE_LIFT_MEMO_HITS.value
        assert _lift(cached, cut) == (_lift(plain, cut)[0], False)
        # Cut from the recording in memory, as before.
        assert CACHE_LIFT_MEMO_HITS.value == memo_hits + 1
    expired = {"program": PROGRAM, "max_seconds": 1e-9}
    assert _lift(cached, expired)[1] is False
    _wait_for_no_sessions(cached.manager)
    _wait_for_no_sessions(plain.manager)


def test_evicted_recording_runs_on_the_executor(
    make_server, tmp_path, monkeypatch
):
    # Room for PROGRAM's recording (23 events) or OTHER's (7), not both.
    monkeypatch.setattr(cache_lift, "MAX_MEMO_EVENTS", 25)
    cached = make_server(max_sessions=4, cache_dir=tmp_path)
    plain = make_server(max_sessions=4)
    request = {"program": PROGRAM}
    cold, _ = _lift(plain, request)
    assert _lift(cached, request) == (cold, False)
    assert _lift(cached, {"program": OTHER})[1] is False  # evicts PROGRAM
    stats = cached.server._lift_cache.stats()
    assert _lift(cached, request) == (cold, False)  # a disk hit
    assert cached.server._lift_cache.stats()["disk_hits"] == (
        stats["disk_hits"] + 1
    )
    assert _lift(cached, request) == (cold, True)
    _wait_for_no_sessions(cached.manager)


def test_dropped_recording_runs_on_the_executor(make_server, tmp_path):
    cached = make_server(max_sessions=4, cache_dir=tmp_path)
    plain = make_server(max_sessions=4)
    request = {"program": PROGRAM}
    cold, _ = _lift(plain, request)
    assert _lift(cached, request) == (cold, False)
    assert _lift(cached, request) == (cold, True)
    clear_intern_caches()
    assert _lift(cached, request) == (cold, False)
    assert _lift(cached, request) == (cold, True)
    _wait_for_no_sessions(cached.manager)


def test_websocket_replay_matches_http(make_server, tmp_path):
    cached = make_server(max_sessions=4, cache_dir=tmp_path)
    request = {"program": PROGRAM, "events": "all"}
    body, _ = _lift(cached, request)
    replays = SERVER_REPLAYS.value
    frames = wire.lift_session_ws_raw(cached.host, cached.port, request)
    assert frames == body.splitlines(keepends=True)
    assert SERVER_REPLAYS.value == replays + 1
    _wait_for_no_sessions(cached.manager)


def test_replay_emits_one_lift_span_marked_hit(make_server, tmp_path):
    cached = make_server(max_sessions=4, cache_dir=tmp_path)
    request = {"program": PROGRAM}
    _lift(cached, request)
    collector = SpanCollector()
    with Observability(sinks=[collector], reset_metrics=False):
        assert _lift(cached, request)[1]
    lifts = [r for r in collector.records if r["name"].startswith("lift")]
    assert [(r["name"], r["attrs"].get("cache")) for r in lifts] == [
        ("lift", "hit")
    ]
    _wait_for_no_sessions(cached.manager)


def test_disconnect_during_the_replay_write_is_reaped(make_server, tmp_path):
    # Small socket buffers park the single replay write on a client
    # that does not read, so the client vanishes mid-write.
    cached = make_server(
        max_sessions=4,
        cache_dir=tmp_path,
        stream_buffer_bytes=4096,
        limits=ServerLimits(max_seconds_cap=None),
    )
    request = {"program": _doubling_chain(7), "events": "all"}
    full, _ = _lift(cached, request)
    assert len(full) > 1 << 19  # far past every buffer on the way
    body = json.dumps(request).encode()
    replays = SERVER_REPLAYS.value
    cancelled = SERVER_SESSIONS_CANCELLED.value
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10)
    sock.connect((cached.host, cached.port))
    sock.sendall(
        (
            f"POST /lift HTTP/1.1\r\nHost: h\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    deadline = time.monotonic() + 10
    while SERVER_REPLAYS.value == replays:
        assert time.monotonic() < deadline, "the loop never answered"
        time.sleep(0.01)
    sock.recv(512)
    assert cached.manager.active_count == 1  # parked in the write
    sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_LINGER,
        b"\x01\x00\x00\x00\x00\x00\x00\x00",  # RST on close
    )
    sock.close()
    _wait_for_no_sessions(cached.manager)
    assert SERVER_SESSIONS_CANCELLED.value == cancelled + 1
