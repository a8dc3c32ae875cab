"""Unit tests for the wire protocol: request validation, budget
clamping, frame encoding, and the low-level HTTP/WS codecs."""

import json

import pytest

from repro.engine import events
from repro.engine.config import LiftConfig
from repro.engine.registry import available_backends
from repro.server.http import parse_chunked
from repro.server.protocol import (
    FrameBuilder,
    ProtocolError,
    ServerLimits,
    encode_frame,
    error_frame,
    parse_batch_request,
    parse_lift_request,
)
from repro.server.ws import accept_value

LIMITS = ServerLimits(max_steps_cap=1000, max_seconds_cap=10.0)


def parse(payload, limits=LIMITS):
    return parse_lift_request(
        json.dumps(payload).encode(), limits, available_backends()
    )


class TestLiftRequest:
    def test_defaults(self):
        req = parse({"program": "(or #t #f)"})
        assert req.lang == "lambda"
        assert req.sugar is None
        assert req.config == LiftConfig(
            max_steps=1000, max_seconds=10.0, on_budget="truncate"
        )
        assert req.config.mode == "sequence"
        assert req.config.on_budget == "truncate"
        assert req.events == "surface"

    def test_budgets_clamped_to_server_caps(self):
        req = parse({"program": "x", "max_steps": 10**9, "max_seconds": 600})
        assert req.config.max_steps == 1000
        assert req.config.max_seconds == 10.0

    def test_wall_clock_cap_applies_when_unrequested(self):
        # The isolation boundary: no request can opt out of the
        # server's wall-clock cap by simply not asking for a budget.
        req = parse({"program": "x"})
        assert req.config.max_seconds == 10.0
        req = parse(
            {"program": "x"}, ServerLimits(max_seconds_cap=None)
        )
        assert req.config.max_seconds is None

    def test_under_cap_budgets_pass_through(self):
        req = parse({"program": "x", "max_steps": 7, "max_seconds": 0.5})
        assert req.config.max_steps == 7
        assert req.config.max_seconds == 0.5

    def test_tree_request_builds_a_tree_config_with_the_clamped_budget(self):
        # ``stepper`` is not a request field: like every unknown field,
        # it is ignored, whatever its value.
        for stepper in ("naive", "mystery"):
            config = parse(
                {"program": "x", "tree": True, "max_steps": 10**9,
                 "stepper": stepper}
            ).config
            assert config == LiftConfig(
                mode="tree", max_steps=1000, max_seconds=10.0,
                on_budget="truncate",
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"program": ""},
            {"program": 7},
            {"program": "x", "lang": "cobol"},
            {"program": "x", "on_budget": "explode"},
            {"program": "x", "op": "mystery"},
            {"program": "x", "events": "everything"},
            {"program": "x", "max_steps": 0},
            {"program": "x", "max_steps": "many"},
            {"program": "x", "max_seconds": -1},
            {"program": "x", "max_seconds": float("nan")},
            {"program": "x", "max_seconds": float("inf")},
            {"program": "x", "max_steps": True},
            {"program": "x", "max_seconds": True},
            {"program": "x", "tree": "yes"},
            {"program": "x", "sugar": 3},
        ],
    )
    def test_malformed_fields_rejected(self, payload):
        with pytest.raises(ProtocolError):
            parse(payload)

    def test_non_json_and_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_lift_request(b"not json", LIMITS, available_backends())
        with pytest.raises(ProtocolError):
            parse_lift_request(b"[1,2]", LIMITS, available_backends())


class TestBatchRequest:
    def test_accepts_program_list(self):
        req = parse_batch_request(
            json.dumps({"programs": ["(not #t)", "(or #f #t)"]}).encode(),
            LIMITS,
            available_backends(),
        )
        assert req.programs == ("(not #t)", "(or #f #t)")
        assert req.config == LiftConfig(
            max_steps=1000, max_seconds=10.0, on_budget="truncate"
        )

    @pytest.mark.parametrize(
        "budget",
        [
            {"max_seconds": float("nan")},
            {"max_seconds": float("inf")},
            {"max_steps": True},
            {"max_seconds": True},
            {"max_steps": 0},
        ],
    )
    def test_malformed_budgets_rejected(self, budget):
        with pytest.raises(ProtocolError):
            parse_batch_request(
                json.dumps({"programs": ["(not #t)"], **budget}).encode(),
                LIMITS,
                available_backends(),
            )

    @pytest.mark.parametrize(
        "programs", [None, [], ["ok", 7], "just one", [""]]
    )
    def test_rejects_bad_program_lists(self, programs):
        with pytest.raises(ProtocolError):
            parse_batch_request(
                json.dumps({"programs": programs}).encode(),
                LIMITS,
                available_backends(),
            )


class TestFrames:
    def test_encode_frame_is_one_sorted_compact_line(self):
        line = encode_frame({"type": "step", "index": 0, "text": "x"})
        assert line == b'{"index":0,"text":"x","type":"step"}\n'

    def test_error_frame_shape(self):
        frame = error_frame("ReproError", "boom")
        assert frame == {
            "type": "error",
            "error_type": "ReproError",
            "error_message": "boom",
        }


def _term(value=0):
    from repro.core.terms import Const

    return Const(value)


class TestFrameBuilder:
    def _events(self):
        t = _term()
        return [
            events.CoreStepped(0, t),
            events.SurfaceEmitted(0, t, t),
            events.CoreStepped(1, t),
            events.StepSkipped(1, t),
            events.CoreStepped(2, t),
            events.Deduped(2, t, t),
            events.Halted(3),
        ]

    def test_surface_mode_emits_steps_and_terminal_only(self):
        builder = FrameBuilder(lambda term: "<t>")
        frames = [f for e in self._events() for f in builder.frames_for(e)]
        assert [f["type"] for f in frames] == ["step", "halted"]
        assert frames[0] == {"type": "step", "index": 0, "text": "<t>"}
        assert frames[-1] == {
            "type": "halted",
            "core_steps": 3,
            "skipped": 1,
            "emitted": 1,
        }

    def test_all_mode_also_emits_skipped_and_deduped(self):
        builder = FrameBuilder(lambda term: "<t>", include_all=True)
        frames = [f for e in self._events() for f in builder.frames_for(e)]
        assert [f["type"] for f in frames] == [
            "step",
            "skipped",
            "deduped",
            "halted",
        ]

    def test_budget_terminal_frame(self):
        builder = FrameBuilder(lambda term: "<t>")
        event = events.BudgetExhausted(
            core_step_count=5, budget="steps", limit=5
        )
        (frame,) = builder.frames_for(event)
        assert frame["type"] == "budget"
        assert frame["budget"] == "steps"
        assert frame["limit"] == 5
        assert frame["core_steps"] == 5
        assert "exhausted" in frame["message"]

    def test_tree_steps_carry_node_ids(self):
        t = _term()
        builder = FrameBuilder(lambda term: "<t>")
        (frame,) = builder.frames_for(
            events.SurfaceEmitted(0, t, t, node_id=4, parent_id=2)
        )
        assert frame["node_id"] == 4
        assert frame["parent_id"] == 2


class TestCodecs:
    def test_websocket_accept_rfc6455_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            accept_value("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_parse_chunked_roundtrip(self):
        wire = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
        body, complete = parse_chunked(wire)
        assert body == b"hello world"
        assert complete

    def test_parse_chunked_partial(self):
        body, complete = parse_chunked(b"5\r\nhel")
        assert not complete
