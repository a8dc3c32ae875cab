"""The wire protocol: lift requests in, NDJSON event frames out.

The server is a *transport*, never a semantics fork: every frame is a
direct image of a :mod:`repro.engine.events` event, and the ``text`` of
the ``step`` frames, joined with newlines, is byte-identical to what
``python -m repro lift`` prints for the same program and options (pinned
by the golden-equivalence tests).

A **lift request** is one JSON object::

    {"program": "(or (not #t) (not #f))",
     "lang": "lambda",            # backend name (default "lambda")
     "sugar": null,               # bundled sugar set (default: backend's)
     "transparent": false,        # lambda: transparent recursion marks
     "op": "naive",               # pyret: binary-operator desugaring
     "tree": false,               # lift a nondeterministic tree instead
     "max_steps": 1000,           # step budget (nodes with tree=true)
     "max_seconds": 5.0,          # wall-clock budget
     "on_budget": "truncate",     # "truncate" (default) or "raise"
     "events": "surface"}         # "surface" (default) or "all"

Fields not listed here are ignored.  That includes ``stepper``, which
once chose the core decomposition engine: both engines stream the same
bytes, and every session now runs the refocusing one.

Budgets are the isolation boundary: the server clamps each request's
budgets to its own caps (:class:`ServerLimits`), so one runaway program
cannot hold a session thread forever.  ``on_budget`` defaults to
``"truncate"`` server-side — a service should end a too-long session
with a well-formed partial trace, not an error.

**Frames** are one JSON object per line (NDJSON over HTTP chunked
responses; one frame per WebSocket text message):

``{"type": "step", "index": i, "text": "..."}``
    One surface evaluation step (a ``SurfaceEmitted`` event).  Tree
    lifts add ``node_id``/``parent_id`` so the client can rebuild the
    surface tree from the frames alone.
``{"type": "skipped", "index": i}`` / ``{"type": "deduped", "index": i}``
    Only with ``events: "all"`` — core steps with no (new) surface
    representation.
``{"type": "halted", "core_steps": n, "skipped": s, "emitted": e}``
    Terminal: evaluation finished.
``{"type": "budget", "budget": "steps", "limit": l, "core_steps": n,
"message": "..."}``
    Terminal: a budget ran out under ``"truncate"`` — everything
    streamed before it is a valid prefix of the full lift.
``{"type": "error", "error_type": "...", "error_message": "..."}``
    Terminal: the lift failed (including budget exhaustion under
    ``"raise"``).  Structured like a batch ``JobError`` — the
    connection is closed cleanly after the frame, never dropped.

Batch requests (``/lift-batch``) carry ``{"programs": [...], ...}``
with the same engine/budget fields, and stream one frame per job in
deterministic submission order: ``{"type": "job", "index": i, "steps":
[...]}`` or ``{"type": "job_error", "index": i, "error_type": ...,
"error_message": ...}``, closed by ``{"type": "batch_done", "jobs": n,
"failed": f}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.engine import events
from repro.engine.config import ON_BUDGET_POLICIES, LiftConfig

__all__ = [
    "ProtocolError",
    "ServerLimits",
    "LiftRequest",
    "BatchRequest",
    "parse_lift_request",
    "parse_batch_request",
    "encode_frame",
    "error_frame",
    "FrameBuilder",
    "job_frames",
]

EVENT_MODES = ("surface", "all")


class ProtocolError(ValueError):
    """A malformed or out-of-contract request (an HTTP 400, never a
    server fault)."""


@dataclass(frozen=True)
class ServerLimits:
    """Server-side budget caps: the isolation boundary between sessions.

    Every request's ``max_steps``/``max_seconds`` is clamped to these
    caps (and the wall-clock cap applies even when the request asks for
    no budget at all), so a runaway program is truncated or errored by
    the engine's own budget machinery instead of monopolising a session
    thread.
    """

    max_steps_cap: int = 100_000
    max_seconds_cap: Optional[float] = 30.0

    def clamp_steps(self, requested: Optional[int]) -> int:
        if requested is None:
            return self.max_steps_cap
        return min(int(requested), self.max_steps_cap)

    def clamp_seconds(self, requested: Optional[float]) -> Optional[float]:
        if requested is None:
            return self.max_seconds_cap
        if self.max_seconds_cap is None:
            return float(requested)
        return min(float(requested), self.max_seconds_cap)


@dataclass(frozen=True, kw_only=True)
class _Request:
    """The engine fields every request shares, plus its validated,
    budget-clamped :class:`~repro.engine.config.LiftConfig` (the wire's
    ``tree`` and budget fields)."""

    lang: str = "lambda"
    sugar: Optional[str] = None
    transparent: bool = False
    op: str = "naive"
    config: LiftConfig

    @property
    def engine_key(self) -> tuple:
        """The engine-cache key: requests with equal keys share rules."""
        return (self.lang, self.sugar, self.transparent, self.op)

    def backend_options(self) -> Dict[str, Any]:
        return {
            "transparent_recursion": self.transparent,
            "op_desugaring": self.op,
        }


@dataclass(frozen=True, kw_only=True)
class LiftRequest(_Request):
    """One validated ``/lift`` session request."""

    program: str
    events: str = "surface"


@dataclass(frozen=True, kw_only=True)
class BatchRequest(_Request):
    """One validated ``/lift-batch`` request: N programs, one engine,
    one sequence config."""

    programs: tuple


def _require(payload: Mapping, key: str, kind, what: str):
    value = payload.get(key)
    if not isinstance(value, kind) or (kind is str and not value):
        raise ProtocolError(f"{key!r} must be {what}")
    return value


def _choice(payload: Mapping, key: str, choices, default):
    value = payload.get(key, default)
    if value not in choices:
        raise ProtocolError(
            f"{key!r} must be one of {', '.join(map(repr, choices))}"
        )
    return value


def _flag(payload: Mapping, key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise ProtocolError(f"{key!r} must be a boolean")
    return value


def _number(payload: Mapping, key: str, kind, what: str):
    """An optional positive budget: JSON booleans and non-finite
    numbers (``NaN``/``Infinity``, which ``json.loads`` accepts) are
    malformed, not budgets."""
    value = payload.get(key)
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, kind)
        or not 0 < value < math.inf
    ):
        raise ProtocolError(f"{key!r} must be {what}")
    return value


def _config(
    payload: Mapping, limits: ServerLimits, **fields
) -> LiftConfig:
    """The request's budget-clamped config (``fields`` are the
    endpoint's own config fields)."""
    max_steps = _number(payload, "max_steps", int, "a positive integer")
    max_seconds = _number(
        payload, "max_seconds", (int, float), "a positive finite number"
    )
    return LiftConfig(
        max_steps=limits.clamp_steps(max_steps),
        max_seconds=limits.clamp_seconds(max_seconds),
        on_budget=_choice(
            payload, "on_budget", ON_BUDGET_POLICIES, "truncate"
        ),
        **fields,
    )


def _decode_json(raw: bytes) -> Mapping:
    try:
        payload = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}")
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")
    return payload


def _sugar(payload: Mapping) -> Optional[str]:
    sugar = payload.get("sugar")
    if sugar is not None and not isinstance(sugar, str):
        raise ProtocolError("'sugar' must be a string or null")
    return sugar


def parse_lift_request(
    raw: bytes, limits: ServerLimits, backends
) -> LiftRequest:
    """Decode, validate, and budget-clamp one ``/lift`` request body.

    ``backends`` is the set of resolvable backend names (from
    :func:`repro.engine.registry.available_backends`).  Raises
    :class:`ProtocolError` on any malformed field — the caller turns
    that into a 400 with an ``error`` frame.
    """
    payload = _decode_json(raw)
    return LiftRequest(
        program=_require(payload, "program", str, "a non-empty string"),
        lang=_choice(payload, "lang", tuple(backends), "lambda"),
        sugar=_sugar(payload),
        transparent=_flag(payload, "transparent"),
        op=_choice(payload, "op", ("naive", "object"), "naive"),
        events=_choice(payload, "events", EVENT_MODES, "surface"),
        config=_config(
            payload,
            limits,
            mode="tree" if _flag(payload, "tree") else "sequence",
        ),
    )


def parse_batch_request(
    raw: bytes, limits: ServerLimits, backends
) -> BatchRequest:
    """Decode, validate, and budget-clamp one ``/lift-batch`` body."""
    payload = _decode_json(raw)
    programs = payload.get("programs")
    if (
        not isinstance(programs, list)
        or not programs
        or not all(isinstance(p, str) and p for p in programs)
    ):
        raise ProtocolError(
            "'programs' must be a non-empty list of program strings"
        )
    return BatchRequest(
        programs=tuple(programs),
        lang=_choice(payload, "lang", tuple(backends), "lambda"),
        sugar=_sugar(payload),
        transparent=_flag(payload, "transparent"),
        op=_choice(payload, "op", ("naive", "object"), "naive"),
        config=_config(payload, limits),
    )


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One NDJSON line: compact JSON, stable key order, ``\\n``-closed."""
    return (
        json.dumps(frame, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def error_frame(error_type: str, message: str) -> Dict[str, Any]:
    """The terminal frame of a failed session (a wire-level
    :class:`~repro.engine.events.JobError`)."""
    return {
        "type": "error",
        "error_type": error_type,
        "error_message": message,
    }


@dataclass
class FrameBuilder:
    """Fold a lift-event stream into wire frames, with the same
    bookkeeping the CLI keeps (core/skipped/emitted counts feed the
    terminal ``halted`` frame).

    ``pretty`` is the backend's renderer — called in the producer
    thread, so rendering cost never lands on the event loop.  With
    ``include_all`` the builder also emits ``skipped``/``deduped``
    frames; by default only displayable steps cross the wire.
    """

    pretty: Any
    include_all: bool = False
    core: int = 0
    skipped: int = 0
    emitted: int = 0
    terminal: Optional[Dict[str, Any]] = field(default=None)

    def frames_for(self, event: events.LiftEvent) -> Iterator[Dict[str, Any]]:
        if isinstance(event, events.CoreStepped):
            self.core += 1
        elif isinstance(event, events.SurfaceEmitted):
            self.emitted += 1
            frame: Dict[str, Any] = {
                "type": "step",
                "index": event.core_index,
                "text": self.pretty(event.surface_term),
            }
            if event.node_id is not None:
                frame["node_id"] = event.node_id
                frame["parent_id"] = event.parent_id
            yield frame
        elif isinstance(event, events.StepSkipped):
            self.skipped += 1
            if self.include_all:
                yield {"type": "skipped", "index": event.core_index}
        elif isinstance(event, events.Deduped):
            if self.include_all:
                yield {"type": "deduped", "index": event.core_index}
        elif isinstance(event, events.Halted):
            self.terminal = {
                "type": "halted",
                "core_steps": event.core_step_count,
                "skipped": self.skipped,
                "emitted": self.emitted,
            }
            yield self.terminal
        elif isinstance(event, events.BudgetExhausted):
            self.terminal = {
                "type": "budget",
                "budget": event.budget,
                "limit": event.limit,
                "core_steps": event.core_step_count,
                "message": event.describe(),
            }
            yield self.terminal


def job_frames(outcome, names: Optional[List[str]] = None) -> Dict[str, Any]:
    """One ``/lift-batch`` frame per batch outcome (submission order is
    the pool's guarantee, not re-sorted here)."""
    if isinstance(outcome, events.JobError):
        frame: Dict[str, Any] = {
            "type": "job_error",
            "index": outcome.job_index,
            "error_type": outcome.error_type,
            "error_message": outcome.error_message,
        }
    else:
        frame = {
            "type": "job",
            "index": outcome.job_index,
            "steps": list(outcome.rendered or ()),
        }
    if names is not None:
        frame["name"] = names[outcome.job_index]
    return frame
