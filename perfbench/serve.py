"""A ``repro serve`` subprocess and an honest open-loop load generator.

The generator is one process with at most ``nproc`` sender threads, each
holding at most one connection, so no more than ``nproc`` sessions are in
flight.  Every request carries a *due* time from a fixed schedule; its
latency is measured from that due time, so a stall that delays later
sends is charged to them (``gen.late_ms``), and the time a due request
waited for a free sender is reported as ``gen.conn_wait_ms``.

``/healthz`` and ``/metrics`` go through ``repro.server.client.request``;
``/lift`` sessions are read here frame by frame, because the latency
metrics need the arrival time of each frame, not the finished body.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.common import SetupError, child_env, proc_peak_rss_mib

READY_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 60.0
# Share of ``--seconds`` spent at the nominal rate (the latency and
# throughput metrics); the rest is split between the ladder's rungs.
NOMINAL_SHARE = 0.85
# Every nominal-phase request is sent, however late, so its latency from
# the due time includes the backlog.  Only past this lateness does the
# phase stop sending, to keep a badly regressed run inside its time limit.
NOMINAL_GIVE_UP_S = 60.0
# serve_hot deals its Zipf shares in cycles of this many draws: enough
# that the least popular of the hot programs gets at least one per cycle.
DRAWS_PER_CYCLE = 100


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Chunked:
    """Incremental decoder for a chunked HTTP body."""

    def __init__(self) -> None:
        self.buffer = b""
        self.done = False

    def feed(self, data: bytes) -> bytes:
        self.buffer += data
        out = bytearray()
        while not self.done:
            line_end = self.buffer.find(b"\r\n")
            if line_end < 0:
                break
            size = int(self.buffer[:line_end].split(b";")[0], 16)
            if size == 0:
                self.done = True
                break
            if len(self.buffer) < line_end + 2 + size + 2:
                break
            start = line_end + 2
            out += self.buffer[start : start + size]
            self.buffer = self.buffer[start + size + 2 :]
        return bytes(out)


@dataclass
class SessionRecord:
    """Client-side timeline of one ``/lift`` session (absolute
    ``perf_counter`` seconds) and what came back."""

    due: float
    sent: float = 0.0
    picked: float = 0.0
    connected: float = 0.0
    head: float = 0.0
    first_step: Optional[float] = None
    end: Optional[float] = None
    status: int = 0
    frames: int = 0
    bytes: int = 0
    texts: List[str] = field(default_factory=list)
    terminal: Optional[dict] = None
    error: Optional[str] = None


def run_session(port: int, body: bytes, record: SessionRecord) -> None:
    """POST ``/lift`` and read the NDJSON stream frame by frame."""
    record.sent = time.perf_counter()
    try:
        with socket.create_connection(
            ("127.0.0.1", port), timeout=SESSION_TIMEOUT_S
        ) as sock:
            record.connected = time.perf_counter()
            sock.sendall(
                (
                    "POST /lift HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            raw = b""
            while b"\r\n\r\n" not in raw:
                data = sock.recv(65536)
                if not data:
                    raise ConnectionError("closed before response head")
                raw += data
            record.head = time.perf_counter()
            head, _, rest = raw.partition(b"\r\n\r\n")
            record.status = int(head.split(b" ", 2)[1])
            if record.status != 200:
                record.error = f"HTTP {record.status}"
                return
            decoder = _Chunked()
            pending = b""
            data = rest
            while True:
                pending += decoder.feed(data)
                *lines, pending = pending.split(b"\n")
                now = time.perf_counter()
                for line in lines:
                    record.bytes += len(line) + 1
                    record.frames += 1
                    frame = json.loads(line)
                    kind = frame.get("type")
                    if kind == "step":
                        if record.first_step is None:
                            record.first_step = now
                        record.texts.append(frame["text"])
                    elif kind in ("halted", "budget", "error"):
                        record.terminal = frame
                        record.end = now
                if decoder.done:
                    break
                data = sock.recv(65536)
                if not data:
                    break
    except (OSError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"


@dataclass
class Request:
    due: float  # seconds after the phase start
    body: bytes
    tag: object = None  # whatever the caller needs to check the result


def open_loop(
    port: int, requests: Sequence[Request], senders: int, give_up_s: float
) -> List[SessionRecord]:
    """Send ``requests`` at their due times from ``senders`` threads (one
    connection each).  Returns one record per request, in order.  Once a
    request could only be sent ``give_up_s`` after it was due the backlog
    is growing: the rest stay unsent (``sent == 0``)."""
    origin = time.perf_counter() + 0.05
    records = [SessionRecord(due=origin + r.due) for r in requests]
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                record = records[index]
                record.picked = time.perf_counter()
                if record.picked - record.due > give_up_s:
                    cursor[0] = len(requests)
                    return
                cursor[0] += 1
            wait = record.due - record.picked
            if wait > 0:
                time.sleep(wait)
            run_session(port, requests[index].body, record)

    threads = [threading.Thread(target=sender) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


class Server:
    """One ``python -m repro serve`` subprocess on a free loopback port,
    with default caps and a persistent cache in ``cache_dir``."""

    def __init__(self, cache_dir: Path, log_path: Path) -> None:
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.port = _free_port()
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        """Spawn and wait for ``/healthz`` to answer 200."""
        from repro.server.client import request

        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(self.port),
                    "--cache", str(self.cache_dir),
                ],
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise SetupError(
                    f"server exited with {self.proc.returncode}; "
                    f"see {self.log_path}"
                )
            try:
                status, _, _ = request(
                    "127.0.0.1", self.port, "GET", "/healthz", timeout=1
                )
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise SetupError("server did not become healthy")

    def lift(self, request: dict) -> SessionRecord:
        record = SessionRecord(due=time.perf_counter())
        run_session(self.port, json.dumps(request).encode(), record)
        return record

    def metrics(self) -> Dict[str, float]:
        """The ``/metrics`` exposition as ``{series: value}``."""
        from repro.server.client import request

        status, _, body = request("127.0.0.1", self.port, "GET", "/metrics")
        if status != 200:
            raise SetupError(f"/metrics returned {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)


# --- the serving workloads ------------------------------------------------

WARMUP = {"lambda": "(or #f #t)", "pyret": "1 + 2"}


def _session_ok(record: SessionRecord, program) -> bool:
    return (
        record.error is None
        and record.terminal is not None
        and record.terminal["type"] == "halted"
        and record.terminal["core_steps"] == program.core_steps
        and bool(record.texts)
        and record.texts[-1] == program.expected
    )


def _ready_server(base, index: int) -> Tuple[Server, float]:
    """Spawn a server on a fresh cache directory and bring it to the
    state the timed phase starts from: healthy, one warm-up session per
    backend (rule tables are built on first use), and the base programs
    lifted once.  Returns the server and the seconds this took."""
    from perfbench.common import fresh_dir

    run_dir = fresh_dir(f"serve-{index}")
    started = time.perf_counter()
    server = Server(run_dir / "cache", run_dir / "server.log")
    try:
        server.start()
        for lang, text in WARMUP.items():
            record = server.lift({"program": text, "lang": lang})
            if record.error is not None or record.terminal is None:
                raise SetupError(f"warm-up session failed: {record.error}")
        for program in base:
            record = server.lift({"program": program.text, "lang": program.lang})
            if not _session_ok(record, program):
                raise SetupError(f"preparation lift failed: {program.text}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _phase(
    server: Server, make_request, rate: float, seconds: float, give_up_s: float
):
    """One open-loop phase at ``rate`` sessions/s for ``seconds``."""
    count = max(1, round(rate * seconds))
    requests = [make_request(i / rate) for i in range(count)]
    return requests, open_loop(server.port, requests, senders(), give_up_s)


def busy_seconds(records: Sequence[SessionRecord]) -> float:
    """Seconds during which at least one session was in progress: the
    union of the sessions' send-to-terminal intervals."""
    total, start, end = 0.0, None, None
    for sent, done in sorted((r.sent, r.end) for r in records):
        if end is None or sent > end:
            if end is not None:
                total += end - start
            start, end = sent, done
        else:
            end = max(end, done)
    if end is not None:
        total += end - start
    return total


def zipf_draws(rng, ranked, exponent: float, count: int) -> list:
    """``count`` draws from ``ranked`` with Zipf shares (rank r weighs
    1/r^exponent), apportioned by largest remainder and shuffled."""
    weights = [1 / (rank + 1) ** exponent for rank in range(len(ranked))]
    quotas = [count * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(
        range(len(ranked)), key=lambda i: quotas[i] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    draws = [p for p, n in zip(ranked, counts) for _ in range(n)]
    rng.shuffle(draws)
    return draws


def senders() -> int:
    """The generator's thread and connection ceiling: one per core."""
    import os

    return os.cpu_count() or 1


def serve_workload(name: str, cfg, seed: int, seconds: float, trace: bool):
    import itertools
    import random

    from perfbench import gate, programs
    from perfbench.common import (
        SAMPLE_PROGRAMS,
        TRACE_PROGRAMS,
        Result,
        latency_metrics,
        median,
        metric,
        p90_supported,
        percentile,
    )
    from perfbench.inproc import make_engines

    wl = cfg["workloads"][name]
    limit_s = cfg["latency_limit_ms"] / 1000
    result = Result()
    rng = random.Random(seed)
    base = programs.Decks(rng, wl["deck"]).next()

    setups = []
    server = None
    for index in range(cfg["setup_repeats"]):
        if server is not None:
            server.stop()
        server, elapsed = _ready_server(base, index)
        setups.append(elapsed)
    try:
        if name == "serve_hot":
            # Zipf shares over the hot set, dealt exactly rather than
            # sampled so that every run has the same mix; the seed orders
            # the draws and pairs them with step budgets (all above any
            # program's length).  Popularity follows program length,
            # shortest first: a neutral rule that every seed shares.
            hot = sorted(base, key=lambda p: (len(p.text), p.text))
            exponent = wl["zipf_exponent"]
            draws = []
            budgets = itertools.cycle(wl["max_steps"])

            def make_request(due):
                if not draws:
                    draws.extend(
                        zipf_draws(rng, hot, exponent, DRAWS_PER_CYCLE)
                    )
                program = draws.pop()
                body = {"program": program.text, "lang": program.lang,
                        "max_steps": next(budgets)}
                return Request(due, json.dumps(body).encode(), (program, body))
        else:
            salts = itertools.count(1)
            order = []

            def make_request(due):
                if not order:
                    order.extend(rng.sample(base, len(base)))
                program = programs.salted(order.pop(), next(salts))
                body = {"program": program.text, "lang": program.lang}
                return Request(due, json.dumps(body).encode(), (program, body))

        before = server.metrics() if trace else None
        rungs = []
        ladder_s = (1 - NOMINAL_SHARE) * seconds / len(wl["ladder_rps"])
        phases = [(wl["nominal_rps"], NOMINAL_SHARE * seconds, NOMINAL_GIVE_UP_S)]
        phases += [(rate, ladder_s, 2 * limit_s) for rate in wl["ladder_rps"]]
        nominal = None
        for rate, phase_s, give_up_s in phases:
            requests, records = _phase(
                server, make_request, rate, phase_s, give_up_s
            )
            sent = [(q, r) for q, r in zip(requests, records) if r.sent]
            ok = []
            for request, record in sent:
                program, _body = request.tag
                if result.outcomes.check(
                    _session_ok(record, program),
                    f"{name}: session failed for {program.text[:60]} "
                    f"({record.error or record.terminal})",
                ):
                    ok.append((request, record))
            first = [r.first_step - r.due for _, r in ok]
            tail = records[-max(1, len(records) // 10):]
            passed = (
                len(sent) == len(requests)
                and len(ok) == len(sent) > 0
                and percentile(first, 90) <= limit_s
                and median(r.sent - r.due for r in tail) <= limit_s
            )
            # The rate actually offered: sessions over the span of their
            # send times (the schedule's rate unless the generator lagged).
            sends = [r.sent for _, r in ok]
            achieved = (
                (len(sends) - 1) / (max(sends) - min(sends))
                if len(sends) > 1 else 0.0
            )
            rungs.append((rate, achieved, passed,
                          percentile(first, 90) if first else None))
            if nominal is None:
                nominal = (requests, sent, ok)
                after = server.metrics() if trace else None
            if not passed:
                break
        requests, sent, ok = nominal
        if len(sent) < len(requests):
            result.lines.append(
                f"WARNING: nominal phase stopped {len(requests) - len(sent)} "
                f"sends early, {NOMINAL_GIVE_UP_S:.0f}s behind schedule"
            )
        first_s = [r.first_step - r.due for _, r in ok]
        lift_s = [r.end - r.due for _, r in ok]
        if not p90_supported(first_s):
            result.lines.append(
                f"WARNING: only {len(first_s)} sessions: p90 unsupported"
            )
        passing = [achieved for _, achieved, passed, _ in rungs if passed]
        if passing:
            rate_max = passing[-1]
        elif rungs[0][3]:
            # Below the ladder: scale the nominal rate by how far its
            # p90 overshoots the limit, so a regression still shows.
            rate_max = rungs[0][1] * limit_s / rungs[0][3]
        else:
            rate_max = 0.0
        # Throughput over the time the server was busy, not over the
        # phase: the schedule fixes the phase's length, so sessions over
        # it would read the offered rate however fast the server is.
        busy = busy_seconds([r for _, r in ok])
        steps = sum(request.tag[0].core_steps for request, _ in ok)
        result.metrics = {
            "setup_s": metric(median(setups), "s"),
            "steps_per_s": metric(steps / busy, "steps/s"),
            "programs_per_s": metric(len(ok) / busy, "programs/s"),
            "rate_max_rps": metric(rate_max, "sessions/s"),
            **latency_metrics("lift_ms", lift_s),
            **latency_metrics("first_step_ms", first_s),
            **latency_metrics("batch_ms", lift_s),
            "peak_rss_mb": metric(server.peak_rss_mib(), "MiB"),
        }
        gate.golden_wire(server, result.outcomes)
        samples = [
            (request.tag[0], record.texts)
            for request, record in ok[:SAMPLE_PROGRAMS]
        ]
        result.replay = [
            (request.tag[0], _server_kwargs(request.tag[1]))
            for request, _ in ok[:TRACE_PROGRAMS]
        ]
        result.lines.append(
            f"{name}: {len(ok)} sessions at {wl['nominal_rps']}/s nominal; "
            "ladder "
            + ", ".join(
                f"{rate}/s {'pass' if passed else 'FAIL'} "
                f"(p90 first step {(p90 or 0) * 1000:.0f}ms)"
                for rate, _, passed, p90 in rungs
            )
        )
        if trace:
            result.lines.extend(_transport_lines(sent, before, after))
    finally:
        server.stop()
    gate.same_as_in_process(make_engines(), samples, result.outcomes, "server")
    return result


def _server_kwargs(body: dict) -> dict:
    """The ``lift_stream`` arguments the server derives from a request
    under its default caps (see ``repro.server.protocol``)."""
    return {
        "max_steps": min(body.get("max_steps", 100_000), 100_000),
        "max_seconds": 30.0,
        "on_budget": "truncate",
    }


def _transport_lines(sent, before, after) -> List[str]:
    from perfbench.common import percentile

    records = [r for _, r in sent]
    ms = lambda values, q: percentile(values, q) * 1000  # noqa: E731
    late = [r.sent - r.due for r in records]
    wait = [max(0.0, r.picked - r.due) for r in records]
    connect = [r.connected - r.sent for r in records if r.connected]
    head = [r.head - r.sent for r in records if r.head]
    refused = sum(1 for r in records if r.status != 200)
    deltas = {
        key: after.get(key, 0.0) - before.get(key, 0.0)
        for key in sorted(after)
        if key.startswith(("repro_server_", "repro_cache_"))
        and "_bucket" not in key
        and after.get(key, 0.0) != before.get(key, 0.0)
    }
    return [
        f"  server: server.connect_ms p50={ms(connect, 50):.2f} "
        f"server.head_ms p50={ms(head, 50):.2f} "
        f"server.frames={sum(r.frames for r in records)} "
        f"server.bytes={sum(r.bytes for r in records)} "
        f"server.refused={refused}",
        f"  generator: gen.late_ms p50={ms(late, 50):.2f} p90={ms(late, 90):.2f} "
        f"gen.conn_wait_ms p50={ms(wait, 50):.2f} p90={ms(wait, 90):.2f}",
        "  /metrics deltas over the nominal phase: "
        + ", ".join(f"{k}={v:g}" for k, v in deltas.items()),
    ]
