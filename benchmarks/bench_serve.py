"""Serving load test: hundreds of concurrent lift sessions.

Methodology (documented in ``docs/serving.md``):

* **Open-loop ramped arrival.**  Sessions arrive spread over a ramp
  window rather than all at once — a thundering herd measures queueing
  at an arrival spike no service admits, not steady-state latency.  The
  arrival rate is chosen to keep stepping-CPU utilization below 1 on a
  single-core box (the bench box pins nothing).
* **Client-paced drain with bounded buffers.**  Every client reads its
  first frame, then parks on a barrier until the whole fleet is
  connected.  OS defaults would defeat this — a couple hundred KB of
  kernel buffering absorbs an entire budgeted session, letting the
  server finish and close while the client thinks it is "holding" the
  stream.  So the server runs with ``stream_buffer_bytes`` bounding its
  per-connection send buffering and the clients shrink ``SO_RCVBUF``:
  each stalled session can park only a few KB in flight, the producer
  thread blocks on the session queue after a handful of frames, and
  ``>= TARGET_SESSIONS`` sessions are provably live *simultaneously*
  (checked against the server's own peak gauge).
* **Warm cache under the default caps.**  A server with a persistent
  cache and the default ``ServerLimits`` (every session carries the
  30 s wall-clock cap) answers a fleet of repeated sessions, with mixed
  step budgets, from one recorded lift: budgets are not cache-key
  material, so every session is a whole-lift hit cut at its own budget.
  The same fleet against a cacheless server is the stepped reference.
* **Budgets as isolation.**  Each session carries a small step budget
  (``on_budget=truncate``): the workload measures time-to-first-step
  and concurrency, so what matters is that every session *starts*
  fast, not that it runs the full 777 steps.  The runaway workload
  then mixes unbudgeted sessions (clamped only by the server cap) among
  well-behaved ones and asserts the neighbours' p99 TTFS survives.

Records p50/p99 time-to-first-step, throughput, and peak concurrency
into ``BENCH_serve.json`` (schema ``repro-bench-serve/1``, with the git
revision in the envelope) via :data:`benchmarks.reporter.SERVE_REPORTER`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import statistics
import sys
import time

from repro.server import ServerLimits
from repro.server.http import parse_chunked

from benchmarks.conftest import report
from benchmarks.reporter import SERVE_REPORTER

from tests.server.conftest import ServerHarness

TARGET_SESSIONS = 200
# Frame volume for the doubling chain is back-loaded: ~12 KB through
# step 8, then ~10 KB *per step* after the sugar has fully expanded.
# With ~6 KB of bounded buffering a stalled client blocks its producer
# around step 9-10, so a 14-step budget leaves a margin against early
# completion while the pre-block stepping stays ~25 ms of CPU — under
# one core across the ramp even on a single-core box.
SESSION_BUDGET_STEPS = 14
RAMP_SECONDS = 10.0
P50_TTFS_BUDGET_SECONDS = 0.100  # the acceptance bar
DOUBLINGS = 8  # the stream_lift_777 program: 777 core steps unbudgeted

# Bounded-buffer sizes (the kernel rounds both up to its floor, ~4.6 KB
# send / ~2.3 KB receive on Linux — still an order of magnitude below
# one session's frame volume).
STREAM_BUFFER_BYTES = 1024
CLIENT_RCVBUF_BYTES = 1024

# One client in DRAIN_EVERY reads its stream to the end and checks the
# budget terminal; the rest hang up after the barrier, so the tail of
# the load phase exercises mass mid-stream cancellation instead of
# pushing ~12 MB through deliberately tiny buffers on one core.
DRAIN_EVERY = 13

WELL_BEHAVED = 40
RUNAWAYS = 8
RUNAWAY_CAP_STEPS = 32  # the *server's* clamp on unbudgeted sessions
# Generous isolation bound: runaway neighbours may not push well-behaved
# p99 TTFS past 5x the baseline (or half a second, whichever is larger —
# sub-millisecond baselines would otherwise flake on scheduler jitter).
ISOLATION_FACTOR = 5.0
ISOLATION_FLOOR_SECONDS = 0.5


# The warm-cache fleet: a shorter doubling chain (53 core steps) drained
# to the end, with per-session step budgets cycling through these (None:
# only the server's default caps apply).
WARM_DOUBLINGS = 4
WARM_BUDGETS = (None, 8, 24)


def _doubling_chain(k: int) -> str:
    expr = "(lambda (y) (+ y 1))"
    for _ in range(k):
        expr = f"(double {expr})"
    return f"((lambda (double) ({expr} 0)) (lambda (f) (lambda (x) (f (f x)))))"


PROGRAM = _doubling_chain(DOUBLINGS)


@contextlib.contextmanager
def _fast_gil_handoff(interval: float = 0.0005):
    """Shrink the GIL switch interval for the duration of a load test.

    Client loop, server loop, and up to 200 stepping producer threads
    all share this process's GIL; at the default 5 ms quantum the
    I/O threads convoy behind CPU-bound steppers and every latency
    measurement inflates by scheduling noise, not serving cost.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _lift_body(max_steps, program: str = PROGRAM) -> bytes:
    body = {"program": program, "lang": "lambda", "on_budget": "truncate"}
    if max_steps is not None:
        body["max_steps"] = max_steps
    return json.dumps(body).encode()


async def _connect(host: str, port: int, rcvbuf: int | None):
    if rcvbuf is None:
        return await asyncio.open_connection(host, port)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    # ``limit`` bounds the StreamReader's internal buffer: without it,
    # asyncio eagerly drains the socket into a 64 KB buffer even while
    # the client task is parked, silently absorbing a whole session.
    return await asyncio.open_connection(sock=sock, limit=rcvbuf)


def _terminal_type(buffer: bytes) -> str:
    """The ``type`` of the last NDJSON frame in a raw chunked response."""
    _, _, rest = buffer.partition(b"\r\n\r\n")
    payload, complete = parse_chunked(rest)
    assert complete, "response ended mid-chunk"
    return json.loads(payload.strip().rsplit(b"\n", 1)[-1])["type"]


async def _session(
    host: str,
    port: int,
    body: bytes,
    start_delay: float,
    barrier: asyncio.Barrier | None,
    rcvbuf: int | None = None,
    drain: bool = True,
):
    """One client session.  Returns ``(ttfs, terminal_type)``; TTFS is
    measured from the instant the request is written to the first
    ``step`` frame crossing back.

    With ``drain=False`` the client is a pure load-holder: it parks on
    the barrier, then disconnects without reading the rest — the server
    must cancel its producer mid-stream (the terminal comes back as
    ``None``).  The full-drain clients verify the ``budget`` terminal.
    """
    await asyncio.sleep(start_delay)
    started = time.perf_counter()
    reader, writer = await _connect(host, port, rcvbuf)
    writer.write(
        (
            f"POST /lift HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    ttfs = None
    buffer = b""
    try:
        while ttfs is None:
            # Small reads: stop pulling bytes the moment the first step
            # lands, leaving the rest of the stream parked server-side.
            data = await reader.read(1024)
            if not data:
                raise AssertionError("stream closed before first step")
            buffer += data
            if b'"type":"step"' in buffer:
                ttfs = time.perf_counter() - started
        if barrier is not None:
            # Hold the session open until the whole fleet is connected:
            # this is what makes the concurrency claim constructive.
            await barrier.wait()
        if not drain:
            return ttfs, None
        while True:
            data = await reader.read(65536)
            if not data:
                break
            buffer += data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return ttfs, _terminal_type(buffer)


def _percentiles(samples):
    ordered = sorted(samples)
    return (
        statistics.median(ordered),
        ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
    )


def test_headline_concurrent_sessions_ttfs():
    harness = ServerHarness(
        max_sessions=TARGET_SESSIONS + 16,
        queue_size=1,
        stream_buffer_bytes=STREAM_BUFFER_BYTES,
        limits=ServerLimits(max_steps_cap=1000, max_seconds_cap=None),
    )
    try:
        body = _lift_body(SESSION_BUDGET_STEPS)

        async def drive():
            barrier = asyncio.Barrier(TARGET_SESSIONS)
            wall_start = time.perf_counter()
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        _session(
                            harness.host,
                            harness.port,
                            body,
                            i * (RAMP_SECONDS / TARGET_SESSIONS),
                            barrier,
                            rcvbuf=CLIENT_RCVBUF_BYTES,
                            # Most clients are load-holders that hang up
                            # after the barrier (the server must cancel
                            # their producers); a sample drains fully
                            # and verifies the budget terminal.
                            drain=(i % DRAIN_EVERY == 0),
                        )
                        for i in range(TARGET_SESSIONS)
                    )
                ),
                timeout=120,
            )
            return results, time.perf_counter() - wall_start

        with _fast_gil_handoff():
            results, wall = asyncio.run(drive())
        ttfs = [t for t, _ in results]
        terminals = [kind for _, kind in results]
        p50, p99 = _percentiles(ttfs)
        peak = harness.manager.peak

        report(
            f"serving: {TARGET_SESSIONS} concurrent stream_lift_777 sessions",
            [
                f"sessions        {TARGET_SESSIONS} over {RAMP_SECONDS:.1f}s ramp",
                f"peak concurrent {peak}",
                f"TTFS p50        {p50 * 1000:.2f} ms",
                f"TTFS p99        {p99 * 1000:.2f} ms",
                f"wall clock      {wall:.2f} s",
                f"throughput      {TARGET_SESSIONS / wall:.1f} sessions/s",
            ],
        )
        SERVE_REPORTER.record(
            "stream_lift_777",
            sessions=TARGET_SESSIONS,
            peak_concurrent=peak,
            ramp_seconds=RAMP_SECONDS,
            session_budget_steps=SESSION_BUDGET_STEPS,
            stream_buffer_bytes=STREAM_BUFFER_BYTES,
            p50_ttfs_seconds=round(p50, 6),
            p99_ttfs_seconds=round(p99, 6),
            wall_seconds=round(wall, 3),
            sessions_per_second=round(TARGET_SESSIONS / wall, 2),
        )

        # The acceptance bar: >= 200 sessions genuinely concurrent,
        # first step under 100 ms at the median.
        assert len(ttfs) == TARGET_SESSIONS
        assert peak >= TARGET_SESSIONS
        drained = [kind for kind in terminals if kind is not None]
        assert len(drained) >= TARGET_SESSIONS // DRAIN_EVERY
        assert all(kind == "budget" for kind in drained)
        assert p50 < P50_TTFS_BUDGET_SECONDS, (
            f"p50 TTFS {p50 * 1000:.1f} ms over the "
            f"{P50_TTFS_BUDGET_SECONDS * 1000:.0f} ms budget"
        )
        # No leaked sessions once the fleet has drained.
        deadline = time.monotonic() + 10
        while harness.manager.active_count and time.monotonic() < deadline:
            time.sleep(0.05)
        assert harness.manager.active_count == 0
    finally:
        harness.close()


def test_runaway_sessions_do_not_degrade_neighbours():
    harness = ServerHarness(
        max_sessions=WELL_BEHAVED + RUNAWAYS + 8,
        limits=ServerLimits(
            max_steps_cap=RUNAWAY_CAP_STEPS, max_seconds_cap=None
        ),
    )
    try:
        good_body = _lift_body(SESSION_BUDGET_STEPS)
        # A runaway asks for *no* budget; only the server's cap stops it.
        runaway_body = json.dumps(
            {"program": PROGRAM, "lang": "lambda", "on_budget": "truncate"}
        ).encode()
        ramp = RAMP_SECONDS / 2

        async def fleet(with_runaways: bool):
            tasks = [
                _session(
                    harness.host,
                    harness.port,
                    good_body,
                    i * (ramp / WELL_BEHAVED),
                    None,
                )
                for i in range(WELL_BEHAVED)
            ]
            if with_runaways:
                # Runaways land *early* in the ramp so their stepping
                # overlaps every later well-behaved arrival.
                tasks += [
                    _session(
                        harness.host,
                        harness.port,
                        runaway_body,
                        i * (ramp / (RUNAWAYS * 4)),
                        None,
                    )
                    for i in range(RUNAWAYS)
                ]
            results = await asyncio.wait_for(
                asyncio.gather(*tasks), timeout=120
            )
            return results[:WELL_BEHAVED], results[WELL_BEHAVED:]

        with _fast_gil_handoff():
            baseline, _ = asyncio.run(fleet(with_runaways=False))
            mixed, runaway_results = asyncio.run(fleet(with_runaways=True))

        _, baseline_p99 = _percentiles([t for t, _ in baseline])
        _, mixed_p99 = _percentiles([t for t, _ in mixed])
        bound = max(baseline_p99 * ISOLATION_FACTOR, ISOLATION_FLOOR_SECONDS)

        report(
            "serving: runaway isolation (budgets as the boundary)",
            [
                f"well-behaved          {WELL_BEHAVED} sessions, "
                f"{SESSION_BUDGET_STEPS}-step budget",
                f"runaways              {RUNAWAYS} sessions, no requested "
                f"budget (server cap {RUNAWAY_CAP_STEPS} steps)",
                f"p99 TTFS baseline     {baseline_p99 * 1000:.2f} ms",
                f"p99 TTFS w/ runaways  {mixed_p99 * 1000:.2f} ms",
                f"isolation bound       {bound * 1000:.0f} ms",
            ],
        )
        SERVE_REPORTER.record(
            "runaway_isolation",
            well_behaved=WELL_BEHAVED,
            runaways=RUNAWAYS,
            runaway_cap_steps=RUNAWAY_CAP_STEPS,
            baseline_p99_ttfs_seconds=round(baseline_p99, 6),
            mixed_p99_ttfs_seconds=round(mixed_p99, 6),
        )

        # Every runaway was stopped by the *server's* budget clamp...
        assert all(kind == "budget" for _, kind in runaway_results)
        # ...and the well-behaved neighbours' tail latency survived.
        assert mixed_p99 < bound, (
            f"p99 TTFS degraded to {mixed_p99 * 1000:.1f} ms beside "
            f"runaways (bound {bound * 1000:.0f} ms)"
        )
    finally:
        harness.close()


def test_warm_cache_default_caps_ttfs(tmp_path):
    from repro.obs.metrics import (
        CACHE_LIFT_HITS,
        CACHE_LIFT_MEMO_HITS,
        SERVER_REPLAYS,
    )

    program = _doubling_chain(WARM_DOUBLINGS)
    bodies = [
        _lift_body(WARM_BUDGETS[i % len(WARM_BUDGETS)], program)
        for i in range(TARGET_SESSIONS)
    ]

    def fleet(harness):
        async def drive():
            return await asyncio.wait_for(
                asyncio.gather(
                    *(
                        _session(
                            harness.host,
                            harness.port,
                            body,
                            i * (RAMP_SECONDS / TARGET_SESSIONS),
                            None,
                        )
                        for i, body in enumerate(bodies)
                    )
                ),
                timeout=120,
            )

        with _fast_gil_handoff():
            return asyncio.run(drive())

    # Default ServerLimits throughout: the wall-clock cap is on.
    warm = ServerHarness(max_sessions=TARGET_SESSIONS + 16, cache_dir=tmp_path)
    cold = ServerHarness(max_sessions=TARGET_SESSIONS + 16)
    try:
        assert warm.server.limits.max_seconds_cap is not None
        # One complete lift records the program for every later budget.
        _, primed = asyncio.run(
            _session(warm.host, warm.port, _lift_body(None, program), 0, None)
        )
        assert primed == "halted"
        hits_before = CACHE_LIFT_HITS.value
        memo_hits_before = CACHE_LIFT_MEMO_HITS.value
        replays_before = SERVER_REPLAYS.value
        warm_results = fleet(warm)
        hits = CACHE_LIFT_HITS.value - hits_before
        memo_hits = CACHE_LIFT_MEMO_HITS.value - memo_hits_before
        replays = SERVER_REPLAYS.value - replays_before
        cold_results = fleet(cold)
    finally:
        warm.close()
        cold.close()

    p50, p99 = _percentiles([t for t, _ in warm_results])
    cold_p50, cold_p99 = _percentiles([t for t, _ in cold_results])
    report(
        "serving: warm cache under the default caps",
        [
            f"sessions          {TARGET_SESSIONS} over {RAMP_SECONDS:.1f}s "
            f"ramp, budgets {WARM_BUDGETS}",
            f"whole-lift hits   {hits} ({memo_hits} from memory, "
            f"{replays} answered on the loop)",
            f"TTFS p50 / p99    {p50 * 1000:.2f} / {p99 * 1000:.2f} ms (warm)",
            f"TTFS p50 / p99    {cold_p50 * 1000:.2f} / "
            f"{cold_p99 * 1000:.2f} ms (cacheless, stepped)",
        ],
    )
    SERVE_REPORTER.record(
        "warm_cache_default_caps",
        sessions=TARGET_SESSIONS,
        ramp_seconds=RAMP_SECONDS,
        core_steps=3 * 2**WARM_DOUBLINGS + WARM_DOUBLINGS + 1,
        lift_hits=hits,
        memo_hits=memo_hits,
        replays=replays,
        p50_ttfs_seconds=round(p50, 6),
        p99_ttfs_seconds=round(p99, 6),
        cold_p50_ttfs_seconds=round(cold_p50, 6),
        cold_p99_ttfs_seconds=round(cold_p99, 6),
    )

    # Every session replayed the one recording and ended exactly as its
    # stepped twin did.
    assert hits == TARGET_SESSIONS
    # The priming session stored the recording in the server's map.
    assert memo_hits == TARGET_SESSIONS
    # The budget-free sessions repeat the primed one whole: the loop
    # answers them from its frames.  The budgets below the recording's
    # length are cut on the executor.
    assert replays == sum(1 for body in bodies if b"max_steps" not in body)
    assert [kind for _, kind in warm_results] == [
        kind for _, kind in cold_results
    ]
    assert {kind for _, kind in warm_results} == {"halted", "budget"}
    assert p50 < P50_TTFS_BUDGET_SECONDS
