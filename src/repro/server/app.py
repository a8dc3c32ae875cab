"""The server: resugaring sessions over asyncio HTTP + WebSocket.

:class:`ReproServer` is the long-lived face of the engine — the
``repro serve`` CLI wraps it, the load test drives it, and the paper's
interactive stepper would sit on top of it.  The design splits each
session across the two worlds that must not block each other:

* **Event loop** — accepts connections, parses requests, writes frames.
  Never steps a program and never renders a term.
* **Executor threads** — iterate ``lift_events`` (or a
  :class:`~repro.parallel.WarmPool` batch) and render frames, pushing
  them through the session's bounded queue
  (:mod:`repro.server.sessions`).  One thread per live session; a
  thread blocked on backpressure costs nothing.

Isolation between sessions is the engine's own budget machinery:
request budgets are clamped to :class:`~repro.server.protocol.
ServerLimits` caps, so a runaway program ends in a ``budget`` or
``error`` frame while its neighbours keep streaming (the load test
asserts the p99 time-to-first-step of well-behaved sessions survives
runaway neighbours).  Abandoned sessions stop promptly through the
``should_stop`` cancellation hook — a disconnect is noticed at the next
socket write, the cancel flag is set, and the producer thread exits
within one core step.

Endpoints::

    GET  /healthz     liveness (also reports active session count)
    GET  /metrics     Prometheus text exposition of the metrics registry
    GET  /backends    registered language backends and their sugar sets
    POST /lift        one lift session, NDJSON over chunked HTTP
    GET  /lift        same protocol over WebSocket (request = first text
                      frame; one NDJSON frame per message, then close)
    POST /lift-batch  corpus batch via the warm pool, one frame per job
                      in deterministic submission order

Engine state is cached across requests: rule tables per
``(lang, sugar, options)`` key, and one warm worker pool per key for
batches — a request pays rule construction and worker warm-up only the
first time its configuration is seen.
"""

from __future__ import annotations

import asyncio
import json
import socket as socket_module
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.confection import Confection
from repro.core.errors import ReproError
from repro.engine import events
from repro.engine.registry import available_backends, get_backend
from repro.obs.metrics import (
    SERVER_FRAMES_SENT,
    SERVER_REQUESTS,
    SERVER_SESSIONS_CANCELLED,
    SERVER_SESSIONS_ERRORED,
    SERVER_TTFS_SECONDS,
    render_prometheus,
)
from repro.parallel import LiftJob, WarmPool
from repro.server import http, ws
from repro.server.http import ChunkedWriter, HttpError, HttpRequest
from repro.server.protocol import (
    BatchRequest,
    FrameBuilder,
    LiftRequest,
    ProtocolError,
    ServerLimits,
    encode_frame,
    error_frame,
    job_frames,
    parse_batch_request,
    parse_lift_request,
)
from repro.server.sessions import (
    DONE,
    SessionLimitError,
    SessionManager,
)

__all__ = ["ReproServer"]

SendFrame = Callable[[bytes], Awaitable[None]]


class ReproServer:
    """One serving process: a socket, a session manager, warm engines.

    ``jobs`` sizes the batch worker pool (1 = in-process batches, the
    default — lift sessions always run on threads and are unaffected).
    ``max_sessions`` caps concurrently live sessions; requests beyond it
    get a structured 503, and it also sizes the session thread pool.
    ``limits`` are the server-side budget caps clamped onto every
    request.

    ``shutdown_grace`` bounds how long :meth:`aclose` waits for live
    connection handlers after cancelling their producers; handlers
    still running past it (e.g. parked on a write to a stalled client)
    are cancelled, so shutdown terminates even with misbehaving peers.

    ``stream_buffer_bytes`` bounds per-connection write buffering (the
    transport's high-water mark and the socket's ``SO_SNDBUF``).  With
    OS defaults a slow client can park a couple of hundred kilobytes of
    frames in kernel buffers before backpressure ever reaches the
    session queue; a small bound makes a stalled client block the
    producer within a few frames instead — which is what lets the load
    test hold hundreds of sessions open concurrently while their
    producers sit idle.  ``None`` keeps OS defaults.

    ``cache_dir`` attaches a persistent :class:`~repro.cache.LiftCache`
    (shared across sessions, and with batch workers via their
    :class:`~repro.parallel.WarmPool`): a repeated lift request replays
    its recorded frames instead of re-stepping.  See ``docs/caching.md``.

    Use as an async context manager (binds on enter, drains on exit) or
    via :meth:`start` / :meth:`aclose`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 1,
        max_sessions: int = 64,
        queue_size: int = 64,
        limits: Optional[ServerLimits] = None,
        stream_buffer_bytes: Optional[int] = None,
        shutdown_grace: float = 5.0,
        cache_dir=None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            from repro.cache import LiftCache

            # One handle per server: in-process sessions share it (and
            # its hit/miss counters); batch workers re-open their
            # own against the same directory (only the path crosses the
            # process boundary).
            self._lift_cache = LiftCache(self.cache_dir)
        else:
            self._lift_cache = None
        self.limits = limits or ServerLimits()
        self.stream_buffer_bytes = stream_buffer_bytes
        self.shutdown_grace = shutdown_grace
        self.manager = SessionManager(max_sessions, queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=max_sessions + 2, thread_name_prefix="repro-lift"
        )
        self._rules_cache: Dict[tuple, object] = {}
        self._pools: Dict[tuple, WarmPool] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: set = set()

    # --- lifecycle ---------------------------------------------------

    async def start(self) -> "ReproServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, cancel live producers,
        wake and drain their handlers, drain the thread pool, reap
        batch workers.

        Cancelling a session delivers its terminal ``DONE`` from the
        loop side (:meth:`~repro.server.sessions.Session.cancel`), so
        handlers parked on a frame queue finish on their own; handlers
        that still have not returned after ``shutdown_grace`` seconds —
        e.g. blocked writing to a stalled client — are cancelled, so
        ``aclose`` terminates even with sessions active."""
        if self._server is not None:
            self._server.close()
        self.manager.cancel_all()
        handlers = {task for task in self._handlers if not task.done()}
        if handlers:
            _done, pending = await asyncio.wait(
                handlers, timeout=self.shutdown_grace
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=self.shutdown_grace)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(
            None, self._shutdown_workers
        )

    def _shutdown_workers(self) -> None:
        self._executor.shutdown(wait=True)
        for pool in self._pools.values():
            pool.shutdown(wait=True, cancel_pending=True)
        self._pools.clear()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # --- engine cache ------------------------------------------------

    def _make_engine(self, request) -> Tuple[Confection, object]:
        """A Confection for this request's configuration: cached rules,
        fresh stepper (steppers are per-session; rule tables are the
        expensive shared part)."""
        backend = get_backend(request.lang)
        key = request.engine_key
        rules = self._rules_cache.get(key)
        if rules is None:
            rules = backend.make_rules(
                request.sugar, **request.backend_options()
            )
            self._rules_cache[key] = rules
        return (
            Confection(rules, backend.make_stepper(), cache=self._lift_cache),
            backend,
        )

    def _make_pool(self, request: BatchRequest) -> Tuple[WarmPool, object]:
        backend = get_backend(request.lang)
        key = request.engine_key
        pool = self._pools.get(key)
        if pool is None:
            rules = self._rules_cache.get(key)
            if rules is None:
                rules = backend.make_rules(
                    request.sugar, **request.backend_options()
                )
                self._rules_cache[key] = rules
            pool = WarmPool(
                (rules, backend.make_stepper()),
                jobs=self.jobs,
                payload="rendered",
                pretty=backend.pretty,
                cache_dir=self.cache_dir,
            )
            self._pools[key] = pool
        return pool, backend

    # --- connection handling -----------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Registered so aclose() can bound-wait (then cancel) live
        # handlers; Server.wait_closed alone either ignores them (3.11)
        # or waits forever on them (3.12+).
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._handlers.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.stream_buffer_bytes is not None:
            writer.transport.set_write_buffer_limits(
                high=self.stream_buffer_bytes
            )
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket_module.SOL_SOCKET,
                    socket_module.SO_SNDBUF,
                    self.stream_buffer_bytes,
                )
        try:
            try:
                request = await http.read_request(reader)
            except HttpError as exc:
                await http.write_response(
                    writer,
                    exc.status,
                    encode_frame(error_frame("HttpError", str(exc))),
                )
                return
            if request is None:
                return
            SERVER_REQUESTS.inc()
            await self._route(request, reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            # Dead peer or forced teardown (shutdown grace expired):
            # drop buffered writes — a stalled client's full receive
            # window must not block the graceful close below.
            transport = writer.transport
            if transport is not None:
                transport.abort()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            await http.write_response(
                writer,
                200,
                encode_frame(
                    {
                        "status": "ok",
                        "active_sessions": self.manager.active_count,
                    }
                ),
            )
        elif route == ("GET", "/metrics"):
            await http.write_response(
                writer,
                200,
                render_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif route == ("GET", "/backends"):
            await http.write_response(writer, 200, self._backends_body())
        elif route == ("POST", "/lift"):
            await self._handle_lift_http(request, writer)
        elif route == ("GET", "/lift") and request.wants_websocket:
            await self._handle_lift_ws(request, reader, writer)
        elif route == ("POST", "/lift-batch"):
            await self._handle_batch_http(request, writer)
        elif request.path in ("/lift", "/lift-batch"):
            await http.write_response(
                writer,
                405,
                encode_frame(
                    error_frame(
                        "MethodNotAllowed",
                        f"{request.method} not supported on {request.path}",
                    )
                ),
            )
        else:
            await http.write_response(
                writer,
                404,
                encode_frame(
                    error_frame("NotFound", f"no route {request.path!r}")
                ),
            )

    def _backends_body(self) -> bytes:
        info = {}
        for name in available_backends():
            backend = get_backend(name)
            info[name] = {
                "sugars": list(backend.sugar_names),
                "default_sugar": backend.default_sugar,
                "description": backend.description,
            }
        return json.dumps(info, indent=2, sort_keys=True).encode("utf-8")

    # --- /lift over chunked HTTP -------------------------------------

    async def _handle_lift_http(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            lift_request = parse_lift_request(
                request.body, self.limits, available_backends()
            )
            confection, backend = self._make_engine(lift_request)
        except (ProtocolError, ReproError) as exc:
            await http.write_response(
                writer,
                400,
                encode_frame(error_frame(type(exc).__name__, str(exc))),
            )
            return

        chunked = ChunkedWriter(writer)

        async def send(frame: bytes) -> None:
            await chunked.send(frame)

        try:
            session = self.manager.open("lift")
        except SessionLimitError as exc:
            await http.write_response(
                writer,
                503,
                encode_frame(error_frame("SessionLimitError", str(exc))),
            )
            return
        try:
            await chunked.start()
            await self._stream_session(
                session, lift_request, confection, backend, send
            )
            await chunked.finish()
        except (ConnectionError, OSError):
            SERVER_SESSIONS_CANCELLED.inc()
        finally:
            self.manager.close(session)

    # --- /lift over WebSocket ----------------------------------------

    async def _handle_lift_ws(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            writer.write(ws.handshake_response(request))
            await writer.drain()
        except ValueError as exc:
            await http.write_response(
                writer,
                400,
                encode_frame(error_frame("HandshakeError", str(exc))),
            )
            return

        try:
            frame = await ws.read_frame(reader, require_mask=True)
            while frame is not None and frame[0] == ws.OP_PING:
                writer.write(ws.encode_pong(frame[1]))
                await writer.drain()
                frame = await ws.read_frame(reader, require_mask=True)
        except ws.FrameError:
            frame = None
        if frame is None or frame[0] != ws.OP_TEXT:
            writer.write(ws.encode_close(1002))
            await writer.drain()
            return

        async def send(payload: bytes) -> None:
            writer.write(ws.encode_text(payload))
            await writer.drain()

        try:
            lift_request = parse_lift_request(
                frame[1], self.limits, available_backends()
            )
            confection, backend = self._make_engine(lift_request)
        except (ProtocolError, ReproError) as exc:
            await send(
                encode_frame(error_frame(type(exc).__name__, str(exc)))
            )
            writer.write(ws.encode_close(1008))
            await writer.drain()
            return

        try:
            session = self.manager.open("lift")
        except SessionLimitError as exc:
            await send(
                encode_frame(error_frame("SessionLimitError", str(exc)))
            )
            writer.write(ws.encode_close(1013))
            await writer.drain()
            return
        # Keep reading the client while streaming: answer pings, and
        # treat CLOSE / EOF / protocol violations as a disconnect so a
        # polite close cancels the session promptly instead of waiting
        # for backpressure plus a failed write to surface it.
        reader_task = asyncio.ensure_future(
            self._ws_reader(reader, writer, session)
        )
        try:
            await self._stream_session(
                session, lift_request, confection, backend, send
            )
            writer.write(ws.encode_close(1000))
            # A finished reader means the client already closed or broke
            # the protocol — it may have stopped reading too, so the
            # close echo is best-effort (draining could park forever on
            # its full receive window).
            if not reader_task.done():
                await writer.drain()
        except (ConnectionError, OSError):
            SERVER_SESSIONS_CANCELLED.inc()
        finally:
            self.manager.close(session)
            reader_task.cancel()
            await asyncio.gather(reader_task, return_exceptions=True)

    async def _ws_reader(self, reader, writer, session) -> None:
        """The client-to-server half of a streaming WebSocket.  Pong
        writes skip ``drain()`` — the send loop owns the transport's
        single drain waiter, and a pong is a handful of bytes."""
        while True:
            try:
                frame = await ws.read_frame(reader, require_mask=True)
            except ws.FrameError:
                break
            if frame is None or frame[0] == ws.OP_CLOSE:
                break
            if frame[0] == ws.OP_PING:
                writer.write(ws.encode_pong(frame[1]))
            # Mid-stream text/pong/binary frames are ignored.
        if not session.cancelled():
            session.cancel()
            # The peer is done with the stream (CLOSE, EOF, or a
            # protocol violation): buffered frames are undeliverable,
            # so abort rather than drain them — which also unparks a
            # send loop blocked on the peer's full receive window (the
            # resulting ConnectionError is counted there).
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # --- the session core --------------------------------------------

    async def _stream_session(
        self,
        session,
        lift_request: LiftRequest,
        confection: Confection,
        backend,
        send: SendFrame,
    ) -> None:
        """Produce on a thread, consume on the loop, record TTFS.

        Raises ``ConnectionError``/``OSError`` out to the caller when
        the client vanishes (after cancelling the producer)."""
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        builder = FrameBuilder(
            backend.pretty, include_all=lift_request.events == "all"
        )

        def produce() -> None:
            try:
                program = backend.parse(lift_request.program)
                stream = confection.lift_events(
                    program, lift_request.config, should_stop=session.cancelled
                )
                for event in stream:
                    for frame in builder.frames_for(event):
                        if not session.put_from_thread(frame):
                            return
            except Exception as exc:  # noqa: BLE001 — becomes a frame
                SERVER_SESSIONS_ERRORED.inc()
                session.put_from_thread(
                    error_frame(type(exc).__name__, str(exc))
                )
            finally:
                session.finish_from_thread()

        producer = loop.run_in_executor(self._executor, produce)
        first_step_seen = False
        try:
            while True:
                frame = await session.next_frame()
                if frame is DONE:
                    break
                if not first_step_seen and frame.get("type") == "step":
                    first_step_seen = True
                    SERVER_TTFS_SECONDS.observe(time.monotonic() - started)
                await send(encode_frame(frame))
                SERVER_FRAMES_SENT.inc()
        finally:
            # Either the stream finished or the client vanished; in both
            # cases stop the producer and wait for it to land (bounded:
            # the cancel flag is polled every core step and every 0.1 s
            # of backpressure).
            session.cancel()
            await producer

    # --- /lift-batch --------------------------------------------------

    async def _handle_batch_http(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            batch_request = parse_batch_request(
                request.body, self.limits, available_backends()
            )
            pool, backend = self._make_pool(batch_request)
        except (ProtocolError, ReproError) as exc:
            await http.write_response(
                writer,
                400,
                encode_frame(error_frame(type(exc).__name__, str(exc))),
            )
            return

        try:
            session = self.manager.open("batch")
        except SessionLimitError as exc:
            await http.write_response(
                writer,
                503,
                encode_frame(error_frame("SessionLimitError", str(exc))),
            )
            return

        def produce() -> None:
            try:
                jobs_list = [
                    LiftJob(
                        backend.parse(program),
                        name=f"programs[{index}]",
                        config=batch_request.config,
                    )
                    for index, program in enumerate(batch_request.programs)
                ]
                failed = 0
                stream = pool.run(jobs_list)
                try:
                    for outcome in stream:
                        if isinstance(outcome, events.JobError):
                            failed += 1
                        if not session.put_from_thread(job_frames(outcome)):
                            return
                finally:
                    stream.close()
                session.put_from_thread(
                    {
                        "type": "batch_done",
                        "jobs": len(jobs_list),
                        "failed": failed,
                    }
                )
            except Exception as exc:  # noqa: BLE001 — becomes a frame
                SERVER_SESSIONS_ERRORED.inc()
                session.put_from_thread(
                    error_frame(type(exc).__name__, str(exc))
                )
            finally:
                session.finish_from_thread()

        loop = asyncio.get_running_loop()
        chunked = ChunkedWriter(writer)
        producer = loop.run_in_executor(self._executor, produce)
        try:
            await chunked.start()
            while True:
                frame = await session.next_frame()
                if frame is DONE:
                    break
                await chunked.send(encode_frame(frame))
                SERVER_FRAMES_SENT.inc()
            await chunked.finish()
        except (ConnectionError, OSError):
            SERVER_SESSIONS_CANCELLED.inc()
        finally:
            session.cancel()
            await producer
            self.manager.close(session)
