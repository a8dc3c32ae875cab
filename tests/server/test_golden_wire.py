"""The golden-equivalence guard: the server is a transport, never a
semantics fork.

For every golden-corpus program whose configuration the CLI can
express, the ``step`` texts streamed over the wire — reassembled into
lines — must be *byte-identical* to what ``python -m repro lift``
prints for the same program and options.  Both backends, one live
server for the whole module.  Each case runs twice: as today's clients
send it (``refocus``), and with the ``stepper: "naive"`` field older
clients still send (``naive``), which the server ignores.

A second, cache-backed server pins the framing: on a cache miss and on
the memory hit that repeats it, the raw HTTP response is one chunk per
NDJSON frame (whatever the server batched into one socket write), and
the WebSocket session sends one message per frame.  A repeat of a
complete session is answered on the event loop from the frames the
server kept, in sequence and tree mode, with every event or only the
surface ones; its bytes are the miss's.  A ``naive`` case has the wire
identity of its ``refocus`` case, so its first request is already
answered from the frames that case left.
"""

import json
import socket

import pytest

from repro.cli import main as cli_main
from repro.obs.metrics import SERVER_REPLAYS

from tests.server.conftest import ServerHarness
from tests.test_golden_traces import GOLDEN_FILES, parse_golden
from repro.server import ServerLimits
from repro.server.client import lift_session_raw, lift_session_ws_raw

# Golden ``# sugar:`` configs the CLI (and hence the server protocol)
# can express; pyret-datatype needs the with_datatype factory option,
# which has no CLI flag — the server must not grow semantics the CLI
# lacks, so it is exactly the CLI-expressible set we compare.
CLI_CONFIGS = {
    "scheme": dict(lang="lambda", sugar="scheme"),
    "scheme-transparent": dict(
        lang="lambda", sugar="scheme", transparent=True
    ),
    "return": dict(lang="lambda", sugar="return"),
    "automaton": dict(lang="lambda", sugar="automaton"),
    "pyret": dict(lang="pyret", sugar="pyret"),
    "pyret-object": dict(lang="pyret", sugar="pyret", op="object"),
}

# Request fields per case: none, or the ``stepper`` field that older
# clients send and the server ignores.
STEPPER_FIELDS = {"refocus": {}, "naive": {"stepper": "naive"}}

CASES = [
    (path, mode)
    for path in GOLDEN_FILES
    if parse_golden(path)[0] in CLI_CONFIGS
    for mode in STEPPER_FIELDS
]


@pytest.fixture(scope="module")
def harness():
    server = ServerHarness(
        max_sessions=4,
        limits=ServerLimits(max_steps_cap=100_000, max_seconds_cap=None),
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    server = ServerHarness(
        max_sessions=4,
        limits=ServerLimits(max_steps_cap=100_000, max_seconds_cap=None),
        cache_dir=tmp_path_factory.mktemp("wire-cache"),
    )
    yield server
    server.close()


def _cli_argv(config, options, program):
    argv = ["lift", "--lang", config["lang"], "--sugar", config["sugar"]]
    if config.get("transparent"):
        argv.append("--transparent")
    if config.get("op"):
        argv += ["--op", config["op"]]
    if "max_steps" in options:
        argv += ["--max-steps", options["max_steps"]]
    if "max_seconds" in options:
        argv += ["--max-seconds", options["max_seconds"]]
    if "on_budget" in options:
        argv += ["--on-budget", options["on_budget"]]
    argv.append(program)
    return argv


def _server_request(config, options, mode, program):
    request = {
        "program": program,
        "lang": config["lang"],
        "sugar": config["sugar"],
        "transparent": bool(config.get("transparent")),
        "op": config.get("op", "naive"),
        "on_budget": options.get("on_budget", "raise"),
        **STEPPER_FIELDS[mode],
    }
    if "max_steps" in options:
        request["max_steps"] = int(options["max_steps"])
    if "max_seconds" in options:
        request["max_seconds"] = float(options["max_seconds"])
    return request


def test_corpus_coverage_spans_both_backends():
    sugars = {parse_golden(path)[0] for path, _ in CASES}
    assert {"scheme", "automaton", "return", "pyret"} <= sugars


@pytest.mark.parametrize(
    "path,mode",
    CASES,
    ids=[f"{p.stem}-{m}" for p, m in CASES],
)
def test_wire_bytes_match_cli_bytes(path, mode, harness, capsys):
    sugar, program, _trace, _stats, options = parse_golden(path)
    config = CLI_CONFIGS[sugar]

    code = cli_main(_cli_argv(config, options, program))
    assert code == 0
    cli_bytes = capsys.readouterr().out.encode("utf-8")

    body = lift_session_raw(
        harness.host,
        harness.port,
        _server_request(config, options, mode, program),
    )
    frames = [json.loads(line) for line in body.decode().splitlines()]
    assert frames[-1]["type"] in ("halted", "budget")
    wire_bytes = b"".join(
        (frame["text"] + "\n").encode("utf-8")
        for frame in frames
        if frame["type"] == "step"
    )
    assert wire_bytes == cli_bytes


def _raw_lift(host, port, request):
    """The raw bytes of one ``/lift`` response: head, chunks, trailer."""
    body = json.dumps(request).encode("utf-8")
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(
            (
                f"POST /lift HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def _one_chunk_per_frame(lines):
    return b"".join(b"%x\r\n%b\r\n" % (len(line), line) for line in lines)


# Request fields that change the frames a session streams: the default
# surface sequence, every event (skipped and deduped frames), and a tree.
VARIANTS = ({}, {"events": "all"}, {"tree": True})


@pytest.mark.parametrize(
    "path,mode",
    CASES,
    ids=[f"{p.stem}-{m}" for p, m in CASES],
)
def test_framing_on_miss_and_memory_hit(path, mode, cached):
    sugar, program, _trace, _stats, options = parse_golden(path)
    for variant in VARIANTS:
        request = _server_request(CLI_CONFIGS[sugar], options, mode, program)
        request.update(variant)
        _check_framing(cached, request)


def _check_framing(cached, request):
    cache = cached.server._lift_cache
    miss = _raw_lift(cached.host, cached.port, request)
    head, _, chunked = miss.partition(b"\r\n\r\n")
    assert b"Transfer-Encoding: chunked" in head
    lines = lift_session_raw(
        cached.host, cached.port, request
    ).splitlines(keepends=True)
    assert chunked == _one_chunk_per_frame(lines) + b"0\r\n\r\n"
    halted = json.loads(lines[-1])["type"] == "halted"
    if not halted:
        # Only complete lifts are recorded: prime one, then the budgeted
        # request is a cut replay of it, made on the executor.
        lift_session_raw(
            cached.host, cached.port,
            {k: v for k, v in request.items() if k != "max_steps"},
        )

    memo_hits, replays = cache.memo_hits, SERVER_REPLAYS.value
    assert _raw_lift(cached.host, cached.port, request) == miss
    assert lift_session_ws_raw(cached.host, cached.port, request) == lines
    assert cache.memo_hits == memo_hits + 2
    # A repeat of a complete session is answered on the loop.
    assert SERVER_REPLAYS.value == replays + (2 if halted else 0)
