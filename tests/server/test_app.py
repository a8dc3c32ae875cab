"""End-to-end server tests over the real wire.

Every scenario ends with the session manager's registry empty — the
no-leak guarantee for normal completion, budget exhaustion under both
policies, admission rejection, and mid-stream client disconnect.
"""

import json
import socket
import time

from repro.server import ServerLimits
from repro.server import client as wire


def _doubling_chain(k: int) -> str:
    """A small program with a long evaluation (777 core steps at k=8):
    the bench workload, reused here as the 'runaway session' program."""
    expr = "(lambda (y) (+ y 1))"
    for _ in range(k):
        expr = f"(double {expr})"
    return f"((lambda (double) ({expr} 0)) (lambda (f) (lambda (x) (f (f x)))))"


def _wait_for_no_sessions(manager, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if manager.active_count == 0:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"leaked sessions: {sorted(manager.active_sessions())}"
    )


def _counter(harness, name: str) -> float:
    """One counter's value in the server's ``/metrics`` exposition."""
    _, _, body = wire.request(harness.host, harness.port, "GET", "/metrics")
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class TestPlainEndpoints:
    def test_healthz(self, server):
        status, _, body = wire.request(
            server.host, server.port, "GET", "/healthz"
        )
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_backends_lists_registered_languages(self, server):
        status, _, body = wire.request(
            server.host, server.port, "GET", "/backends"
        )
        info = json.loads(body)
        assert status == 200
        assert "scheme" in info["lambda"]["sugars"]
        assert "pyret" in info

    def test_unknown_route_is_404(self, server):
        status, _, body = wire.request(
            server.host, server.port, "GET", "/nope"
        )
        assert status == 404
        assert json.loads(body)["error_type"] == "NotFound"

    def test_wrong_method_is_405(self, server):
        status, _, _ = wire.request(
            server.host, server.port, "DELETE", "/lift"
        )
        assert status == 405

    def test_metrics_exposition(self, server):
        wire.lift_session(
            server.host, server.port, {"program": "(not #t)"}
        )
        status, headers, body = wire.request(
            server.host, server.port, "GET", "/metrics"
        )
        text = body.decode()
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "# TYPE repro_server_sessions_started_total counter" in text
        assert "repro_server_ttfs_seconds_bucket" in text


class TestLiftSessions:
    def test_stream_ends_with_halted(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {"program": "(or (not #t) (not #f))", "lang": "lambda"},
        )
        assert [f["text"] for f in frames if f["type"] == "step"] == [
            "(or (not #t) (not #f))",
            "(or #f (not #f))",
            "(not #f)",
            "#t",
        ]
        assert frames[-1]["type"] == "halted"
        assert frames[-1]["core_steps"] == 5
        _wait_for_no_sessions(server.manager)

    def test_websocket_and_http_streams_agree(self, server):
        request = {"program": "(or #f #t)", "lang": "lambda"}
        http_frames = wire.lift_session(server.host, server.port, request)
        ws_frames = wire.lift_session_ws(server.host, server.port, request)
        assert ws_frames == http_frames
        _wait_for_no_sessions(server.manager)

    def test_pyret_backend_and_sugar_selection(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {"program": "1 + (2 + 3)", "lang": "pyret", "op": "object"},
        )
        steps = [f["text"] for f in frames if f["type"] == "step"]
        assert "1 + 5" in steps
        assert frames[-1]["type"] == "halted"

    def test_tree_lift_carries_node_ids(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {"program": "(amb 1 2)", "lang": "lambda", "tree": True},
        )
        steps = [f for f in frames if f["type"] == "step"]
        assert {s["text"] for s in steps} >= {"1", "2"}
        assert all("node_id" in s for s in steps)
        roots = [s for s in steps if s["parent_id"] is None]
        assert roots

    def test_stepper_modes_produce_identical_streams(self, make_server,
                                                     tmp_path):
        """``stepper`` is no request field: on a ``--cache`` server, a
        request that still names the naive stepper streams the bytes of
        the same request without it, and the loop answers it from the
        frames that request left."""
        cached = make_server(max_sessions=4, cache_dir=tmp_path)
        request = {"program": "(or (not #t) #f #t)", "lang": "lambda"}
        first = wire.lift_session_raw(cached.host, cached.port, request)
        replays = _counter(cached, "repro_server_replays_total")
        naive = wire.lift_session_raw(
            cached.host, cached.port, {**request, "stepper": "naive"}
        )
        assert naive == first
        assert _counter(cached, "repro_server_replays_total") == replays + 1

    def test_events_all_mode_includes_skips(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {"program": "(or (not #t) (not #f))", "events": "all"},
        )
        assert any(f["type"] == "skipped" for f in frames)

    def test_malformed_request_is_400_error_frame(self, server):
        status, _, body = wire.request(
            server.host, server.port, "POST", "/lift", b"{}"
        )
        assert status == 400
        assert json.loads(body)["error_type"] == "ProtocolError"

    def test_unknown_sugar_is_400(self, server):
        status, _, body = wire.request(
            server.host,
            server.port,
            "POST",
            "/lift",
            json.dumps({"program": "x", "sugar": "mystery"}).encode(),
        )
        assert status == 400
        assert "mystery" in json.loads(body)["error_message"]

    def test_parse_error_streams_error_frame(self, server):
        # The engine fails *after* headers are sent; the stream must end
        # in a structured error frame, not a dropped connection.
        frames = wire.lift_session(
            server.host, server.port, {"program": "(((("}
        )
        assert frames[-1]["type"] == "error"
        assert frames[-1]["error_type"]
        _wait_for_no_sessions(server.manager)


class TestBudgetIsolation:
    RUNAWAY = _doubling_chain(8)  # 777 core steps

    def test_truncate_policy_ends_with_budget_frame(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {
                "program": self.RUNAWAY,
                "max_steps": 24,
                "on_budget": "truncate",
            },
        )
        assert frames[-1]["type"] == "budget"
        assert frames[-1]["budget"] == "steps"
        assert frames[-1]["limit"] == 24
        # Everything before the terminal frame is a valid prefix.
        assert all(f["type"] == "step" for f in frames[:-1])
        _wait_for_no_sessions(server.manager)

    def test_raise_policy_ends_with_error_frame(self, server):
        frames = wire.lift_session(
            server.host,
            server.port,
            {
                "program": self.RUNAWAY,
                "max_steps": 24,
                "on_budget": "raise",
            },
        )
        assert frames[-1]["type"] == "error"
        assert "did not finish within 24 steps" in frames[-1]["error_message"]
        _wait_for_no_sessions(server.manager)

    def test_server_caps_clamp_runaway_requests(self, make_server):
        harness = make_server(
            max_sessions=4,
            limits=ServerLimits(max_steps_cap=16, max_seconds_cap=None),
        )
        frames = wire.lift_session(
            harness.host,
            harness.port,
            {"program": self.RUNAWAY, "max_steps": 10**9},
        )
        assert frames[-1]["type"] == "budget"
        assert frames[-1]["budget"] == "steps"
        assert frames[-1]["limit"] == 16  # the *server's* cap, not 10^9
        _wait_for_no_sessions(harness.manager)


class TestWarmCacheServing:
    """Under the *default* caps every session carries a wall-clock
    budget; budget-free cache keys must still put repeated sessions on
    the whole-lift tier, byte-identical to a cold session."""

    PROGRAM = "(or #f #f (not #t) (and #t #f) #t)"

    @staticmethod
    def _lift_hits(harness) -> float:
        return _counter(harness, "repro_cache_lift_hits_total")

    def test_repeated_session_is_a_whole_lift_hit(self, make_server, tmp_path):
        cached = make_server(max_sessions=4, cache_dir=tmp_path)
        assert cached.server.limits.max_seconds_cap is not None
        plain = make_server(max_sessions=4)
        request = {"program": self.PROGRAM}

        first = wire.lift_session_raw(cached.host, cached.port, request)
        hits = self._lift_hits(cached)
        again = wire.lift_session_raw(cached.host, cached.port, request)
        assert self._lift_hits(cached) == hits + 1
        assert again == first
        assert wire.lift_session_raw(plain.host, plain.port, request) == first

        # A later, shorter budget is cut from the same recording and
        # answers exactly what a cacheless server does.
        for on_budget in ("truncate", "raise"):
            budgeted = dict(request, max_steps=2, on_budget=on_budget)
            hits = self._lift_hits(cached)
            warm = wire.lift_session_raw(cached.host, cached.port, budgeted)
            assert self._lift_hits(cached) == hits + 1
            cold = wire.lift_session_raw(plain.host, plain.port, budgeted)
            assert warm == cold
            terminal = json.loads(warm.splitlines()[-1])
            assert terminal["type"] == (
                "budget" if on_budget == "truncate" else "error"
            )
        _wait_for_no_sessions(cached.manager)
        _wait_for_no_sessions(plain.manager)


class TestAdmissionAndDisconnect:
    def test_session_cap_rejects_with_503(self, make_server):
        harness = make_server(max_sessions=0)
        status, _, body = wire.request(
            harness.host,
            harness.port,
            "POST",
            "/lift",
            json.dumps({"program": "(not #t)"}).encode(),
        )
        assert status == 503
        assert json.loads(body)["error_type"] == "SessionLimitError"

    def test_mid_stream_disconnect_reaps_session(self, make_server):
        # A tiny queue guarantees the producer is parked on backpressure
        # when the client vanishes — the hardest disconnect to notice.
        harness = make_server(
            max_sessions=4,
            queue_size=1,
            limits=ServerLimits(max_seconds_cap=None),
        )
        body = json.dumps(
            {"program": TestBudgetIsolation.RUNAWAY, "events": "all"}
        ).encode()
        sock = socket.create_connection(
            (harness.host, harness.port), timeout=10
        )
        sock.sendall(
            (
                f"POST /lift HTTP/1.1\r\nHost: h\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        # Read a little of the stream, then vanish without warning.
        sock.recv(512)
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",  # RST on close
        )
        sock.close()
        _wait_for_no_sessions(harness.manager)

    def test_websocket_disconnect_reaps_session(self, make_server):
        harness = make_server(
            max_sessions=4,
            queue_size=1,
            limits=ServerLimits(max_seconds_cap=None),
        )
        from repro.server.ws import encode_text

        sock = socket.create_connection(
            (harness.host, harness.port), timeout=10
        )
        sock.sendall(
            b"GET /lift HTTP/1.1\r\nHost: h\r\n"
            b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: cmVwcm8td3Mta2V5LTEyMzQ=\r\n"
            b"Sec-WebSocket-Version: 13\r\n\r\n"
        )
        sock.recv(512)  # 101 head
        sock.sendall(
            encode_text(
                json.dumps(
                    {
                        "program": TestBudgetIsolation.RUNAWAY,
                        "events": "all",
                    }
                ).encode(),
                mask=True,
            )
        )
        sock.recv(256)
        sock.close()
        _wait_for_no_sessions(harness.manager)


def _ws_handshake(host, port, extra_headers=""):
    """Open a socket and complete the upgrade; returns the socket."""
    sock = socket.create_connection((host, port), timeout=10)
    sock.sendall(
        (
            f"GET /lift HTTP/1.1\r\nHost: h\r\n"
            f"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: cmVwcm8td3Mta2V5LTEyMzQ=\r\n"
            f"Sec-WebSocket-Version: 13\r\n{extra_headers}\r\n"
        ).encode()
    )
    head = bytearray()
    while not head.endswith(b"\r\n\r\n"):
        part = sock.recv(1)
        if not part:
            raise ConnectionError("handshake failed: socket closed")
        head += part
    assert b" 101 " in bytes(head)
    return sock


def _read_ws_frames(sock):
    """Read ``(opcode, payload)`` pairs until the peer's close frame
    (inclusive) or EOF."""
    frames = []
    buffered = b""

    def read_exact(count):
        nonlocal buffered
        while len(buffered) < count:
            part = sock.recv(65536)
            if not part:
                raise ConnectionError("socket closed mid-frame")
            buffered += part
        taken, buffered = buffered[:count], buffered[count:]
        return taken

    while True:
        first = read_exact(2)
        opcode = first[0] & 0x0F
        length = first[1] & 0x7F
        if length == 126:
            length = int.from_bytes(read_exact(2), "big")
        elif length == 127:
            length = int.from_bytes(read_exact(8), "big")
        payload = read_exact(length) if length else b""
        frames.append((opcode, payload))
        if opcode == 0x8:  # OP_CLOSE
            return frames


class TestWebSocketRobustness:
    def test_ping_is_answered_mid_stream(self, server):
        from repro.server.ws import OP_PONG, encode_ping, encode_text

        sock = _ws_handshake(server.host, server.port)
        request = json.dumps(
            {
                "program": TestBudgetIsolation.RUNAWAY,
                "max_steps": 200,
                "on_budget": "truncate",
            }
        ).encode()
        # Request and ping in one burst: the ping arrives while the
        # session is streaming, and must be answered before the close.
        sock.sendall(
            encode_text(request, mask=True) + encode_ping(b"hb", mask=True)
        )
        frames = _read_ws_frames(sock)
        sock.close()
        assert (OP_PONG, b"hb") in frames
        _wait_for_no_sessions(server.manager)

    def test_client_close_cancels_session(self, make_server):
        # The client politely sends CLOSE mid-stream and then stops
        # reading entirely: only a server that keeps reading while it
        # streams can notice and reap the session.
        harness = make_server(
            max_sessions=4,
            queue_size=1,
            stream_buffer_bytes=4096,
            limits=ServerLimits(max_seconds_cap=None),
        )
        from repro.server.ws import encode_close, encode_text

        sock = _ws_handshake(harness.host, harness.port)
        sock.sendall(
            encode_text(
                json.dumps(
                    {
                        "program": TestBudgetIsolation.RUNAWAY,
                        "events": "all",
                    }
                ).encode(),
                mask=True,
            )
        )
        sock.recv(256)  # the stream is flowing
        sock.sendall(encode_close(mask=True))
        _wait_for_no_sessions(harness.manager)
        sock.close()

    def test_unmasked_client_frame_fails_with_1002(self, server):
        from repro.server.ws import encode_text

        sock = _ws_handshake(server.host, server.port)
        sock.sendall(
            encode_text(json.dumps({"program": "(not #t)"}).encode())
        )  # mask=False: an RFC 6455 violation from a client
        frames = _read_ws_frames(sock)
        sock.close()
        opcode, payload = frames[-1]
        assert opcode == 0x8
        assert int.from_bytes(payload[:2], "big") == 1002
        _wait_for_no_sessions(server.manager)

    def test_fragmented_frame_fails_with_1002(self, server):
        sock = _ws_handshake(server.host, server.port)
        payload = b'{"program": "(not #t)"}'
        # FIN=0 text frame, masked with a zero key.
        sock.sendall(
            bytes([0x01, 0x80 | len(payload)]) + b"\x00" * 4 + payload
        )
        frames = _read_ws_frames(sock)
        sock.close()
        opcode, close_payload = frames[-1]
        assert opcode == 0x8
        assert int.from_bytes(close_payload[:2], "big") == 1002
        _wait_for_no_sessions(server.manager)

    def test_handshake_requires_version_13(self, server):
        sock = socket.create_connection((server.host, server.port), timeout=10)
        sock.sendall(
            b"GET /lift HTTP/1.1\r\nHost: h\r\n"
            b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: cmVwcm8td3Mta2V5LTEyMzQ=\r\n"
            b"Sec-WebSocket-Version: 8\r\n\r\n"
        )
        response = sock.recv(4096)
        sock.close()
        assert b" 400 " in response


class TestBatch:
    def test_batch_streams_jobs_in_submission_order(self, server):
        frames = wire.batch_session(
            server.host,
            server.port,
            {"programs": ["(or #f #t)", "(not #t)", "(not #f)"]},
        )
        jobs = [f for f in frames if f["type"] == "job"]
        assert [j["index"] for j in jobs] == [0, 1, 2]
        assert jobs[1]["steps"] == ["(not #t)", "#f"]
        assert frames[-1] == {"type": "batch_done", "jobs": 3, "failed": 0}
        _wait_for_no_sessions(server.manager)

    def test_failing_job_is_contained(self, server):
        # Job 1 blows its step budget under the "raise" policy — a
        # contained JobError frame; its siblings stream normally.
        frames = wire.batch_session(
            server.host,
            server.port,
            {
                "programs": [
                    "(or #f #t)",
                    _doubling_chain(8),
                    "(not #f)",
                ],
                "max_steps": 24,
                "on_budget": "raise",
            },
        )
        by_index = {
            f["index"]: f for f in frames if f["type"] != "batch_done"
        }
        assert by_index[0]["type"] == "job"
        assert by_index[1]["type"] == "job_error"
        assert by_index[1]["error_type"]
        assert by_index[2]["type"] == "job"
        assert frames[-1]["failed"] == 1
        _wait_for_no_sessions(server.manager)

    def test_concurrent_batches_share_pool_safely(self, server):
        # All requests share one engine key, hence one cached WarmPool
        # (jobs=1: the serialized in-process path) — concurrent batch
        # producers must not interleave on its mutable stepper.
        request = {
            "programs": [
                "(or #f #t)",
                "(not #t)",
                "(or (not #t) (not #f))",
                "(not #f)",
            ]
        }
        expected = wire.batch_session(server.host, server.port, request)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda _: wire.batch_session(
                        server.host, server.port, request
                    ),
                    range(6),
                )
            )
        assert results == [expected] * 6
        _wait_for_no_sessions(server.manager)
