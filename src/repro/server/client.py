"""Blocking clients for the serving protocol (tests, CI smoke, tools).

These talk raw sockets so the tests exercise the real wire format —
chunked NDJSON and RFC 6455 frames — rather than a shortcut through the
server's internals.  :func:`lift_session` and :func:`lift_session_ws`
both return the decoded frame list for one session; byte-level access
(for the golden-equivalence guard) is :func:`lift_session_raw` and
:func:`lift_session_ws_raw`.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.server.http import parse_chunked
from repro.server.ws import (
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    encode_close,
    encode_text,
)

__all__ = [
    "request",
    "lift_session",
    "lift_session_raw",
    "lift_session_ws",
    "lift_session_ws_raw",
    "batch_session",
]


def _recv_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _split_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body, _complete = parse_chunked(rest)
    else:
        body = rest
    return status, headers, body


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange; returns ``(status, headers, body)`` with any
    chunked body already decoded."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        sock.sendall(head + payload)
        return _split_response(_recv_all(sock))


def _frames(body: bytes) -> List[Dict[str, Any]]:
    return [
        json.loads(line)
        for line in body.decode("utf-8").splitlines()
        if line
    ]


def lift_session_raw(
    host: str, port: int, lift_request: Dict[str, Any], timeout: float = 30.0
) -> bytes:
    """One ``/lift`` session; the decoded NDJSON byte stream exactly as
    it crossed the wire."""
    status, _headers, body = request(
        host,
        port,
        "POST",
        "/lift",
        json.dumps(lift_request).encode("utf-8"),
        timeout=timeout,
    )
    if status != 200:
        raise RuntimeError(f"/lift returned {status}: {body[:200]!r}")
    return body


def lift_session(
    host: str, port: int, lift_request: Dict[str, Any], timeout: float = 30.0
) -> List[Dict[str, Any]]:
    """One ``/lift`` session over chunked HTTP, as decoded frames."""
    return _frames(lift_session_raw(host, port, lift_request, timeout))


def batch_session(
    host: str, port: int, batch_request: Dict[str, Any], timeout: float = 60.0
) -> List[Dict[str, Any]]:
    """One ``/lift-batch`` session, as decoded frames."""
    status, _headers, body = request(
        host,
        port,
        "POST",
        "/lift-batch",
        json.dumps(batch_request).encode("utf-8"),
        timeout=timeout,
    )
    if status != 200:
        raise RuntimeError(f"/lift-batch returned {status}: {body[:200]!r}")
    return _frames(body)


def _read_exact(sock: socket.socket, count: int) -> bytes:
    data = bytearray()
    while len(data) < count:
        part = sock.recv(count - len(data))
        if not part:
            raise ConnectionError("socket closed mid-frame")
        data += part
    return bytes(data)


def _read_ws_frame(sock: socket.socket) -> Tuple[int, bytes]:
    first = _read_exact(sock, 2)
    opcode = first[0] & 0x0F
    length = first[1] & 0x7F
    if length == 126:
        length = int.from_bytes(_read_exact(sock, 2), "big")
    elif length == 127:
        length = int.from_bytes(_read_exact(sock, 8), "big")
    payload = _read_exact(sock, length) if length else b""
    return opcode, payload


def lift_session_ws(
    host: str, port: int, lift_request: Dict[str, Any], timeout: float = 30.0
) -> List[Dict[str, Any]]:
    """One ``/lift`` session over WebSocket, as decoded frames (one per
    message)."""
    return [
        json.loads(payload.decode("utf-8"))
        for payload in lift_session_ws_raw(host, port, lift_request, timeout)
    ]


def lift_session_ws_raw(
    host: str, port: int, lift_request: Dict[str, Any], timeout: float = 30.0
) -> List[bytes]:
    """One ``/lift`` session over WebSocket: handshake, send the request
    as the first text frame, collect every text message's payload until
    the server's close frame."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        key = "cmVwcm8td3Mta2V5LTEyMzQ="  # any base64 nonce
        sock.sendall(
            (
                f"GET /lift HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Upgrade: websocket\r\n"
                f"Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                f"Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        # Read the 101 response head.
        head = bytearray()
        while not head.endswith(b"\r\n\r\n"):
            part = sock.recv(1)
            if not part:
                raise ConnectionError("handshake failed: socket closed")
            head += part
        status = int(head.decode("latin-1").split(" ")[1])
        if status != 101:
            raise RuntimeError(f"handshake failed: {status}")
        sock.sendall(
            encode_text(json.dumps(lift_request).encode("utf-8"), mask=True)
        )
        messages: List[bytes] = []
        while True:
            opcode, payload = _read_ws_frame(sock)
            if opcode == OP_CLOSE:
                sock.sendall(encode_close(mask=True))
                return messages
            if opcode == OP_PING:
                continue
            if opcode == OP_TEXT:
                messages.append(payload)
