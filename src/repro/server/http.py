"""A deliberately small HTTP/1.1 layer over asyncio streams.

The server speaks just enough HTTP for its own protocol — request line,
headers, ``Content-Length`` bodies, fixed and ``chunked`` responses —
on the standard library alone (the no-new-dependencies constraint rules
out aiohttp et al.).  Streaming responses use chunked transfer encoding,
one chunk per frame, with one socket write and one flush per batch of
ready frames: whatever the session queue holds when the writer comes
round goes out together, so a replayed lift costs a write or two rather
than one per frame, while a frame produced on its own (a session's first
step, or a step of a cold lift) reaches the client the moment the engine
produces it.  A session the server answers from frames it kept goes out
whole, head to closing chunk, in one write.  Batching changes neither
the chunk framing nor the response bytes.

Connections are single-request (``Connection: close``): session
streams are long-lived anyway, and one-shot connections keep the
handler lifecycle identical to the session lifecycle.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import urlsplit

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "write_response",
    "ChunkedWriter",
]

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    503: "Service Unavailable",
    500: "Internal Server Error",
    101: "Switching Protocols",
}


class HttpError(Exception):
    """A malformed request; carries the status the server answers with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_websocket(self) -> bool:
        return (
            "upgrade" in self.header("connection").lower()
            and self.header("upgrade").lower() == "websocket"
        )


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request from the stream; ``None`` on a clean EOF before
    any bytes, :class:`HttpError` on garbage."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    return HttpRequest(method, split.path, split.query, headers, body)


def _head(status: int, headers: Dict[str, str]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """One fixed-length response (always ``Connection: close``)."""
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close",
    }
    if extra_headers:
        headers.update(extra_headers)
    writer.write(_head(status, headers) + body)
    await writer.drain()


def _chunks(payloads: Iterable[bytes]) -> bytes:
    return b"".join(b"%x\r\n%b\r\n" % (len(p), p) for p in payloads)


class ChunkedWriter:
    """A chunked streaming response: one chunk per frame, one write and
    one ``drain`` per batch of frames, so backpressure from the socket
    propagates straight into the session queue."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        content_type: str = "application/x-ndjson",
    ) -> None:
        self._writer = writer
        self._content_type = content_type
        self._started = False

    def _head(self, status: int) -> bytes:
        return _head(
            status,
            {
                "Content-Type": self._content_type,
                "Transfer-Encoding": "chunked",
                "Connection": "close",
                "Cache-Control": "no-store",
            },
        )

    async def start(self, status: int = 200) -> None:
        self._writer.write(self._head(status))
        await self._writer.drain()
        self._started = True

    async def send(self, payloads: Iterable[bytes]) -> None:
        """One chunk per payload, written and flushed together.  Raises
        ``ConnectionError`` when the client is gone — the handler's cue
        to cancel the session."""
        self._writer.write(_chunks(payloads))
        await self._writer.drain()

    async def send_whole(self, payloads: Iterable[bytes]) -> None:
        """The whole response at once: head, one chunk per payload and
        the closing chunk, in one write and one flush — the same bytes
        as :meth:`start`, :meth:`send` and :meth:`finish` would write."""
        self._writer.write(
            self._head(200) + _chunks(payloads) + b"0\r\n\r\n"
        )
        await self._writer.drain()

    async def finish(self) -> None:
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()


def parse_chunked(data: bytes) -> Tuple[bytes, bool]:
    """Decode a chunked body from ``data`` (client-side helper).
    Returns ``(payload, complete)``."""
    out = bytearray()
    pos = 0
    while True:
        end = data.find(b"\r\n", pos)
        if end < 0:
            return bytes(out), False
        try:
            size = int(data[pos:end], 16)
        except ValueError:
            return bytes(out), False
        if size == 0:
            return bytes(out), True
        start = end + 2
        if len(data) < start + size + 2:
            return bytes(out), False
        out += data[start : start + size]
        pos = start + size + 2
