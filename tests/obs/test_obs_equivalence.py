"""Metamorphic tests: observability never changes what a lift computes.

Over the whole golden corpus, through the refocusing stepper (``inc``)
and through the naive one (``naive``, its ``with_mode("naive")``), a
lift run with observability enabled must be byte-identical to one run
with it disabled
— same surface sequence, same per-step bookkeeping, same truncation.
And the numbers it reports must *agree with the events*:
``lift.steps_total`` equals the :class:`CoreStepped` event count (which
equals the committed ``core=`` stat), skip/dedup/emit counters partition
it, and a JSONL trace of the run carries exactly one ``lift.step`` span
per core step.
"""

import io

import pytest

from repro import obs
from repro.confection import Confection
from repro.engine.events import CoreStepped
from repro.obs.export import JsonlExporter, build_tree, read_trace
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)

MODES = pytest.mark.parametrize(
    "naive_stepper", [False, True], ids=["inc", "naive"]
)
CORPUS = pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)


def _stepper_factory(make_stepper, naive):
    """``make_stepper``, or a factory of its naive-mode steppers."""
    if naive:
        return lambda: make_stepper().with_mode("naive")
    return make_stepper


@MODES
@CORPUS
def test_observed_lift_is_byte_identical(path, naive_stepper):
    sugar, program, expected_trace, stats, options = parse_golden(path)
    make_rules, make_stepper, parse, pretty = _configs()[sugar]
    make_stepper = _stepper_factory(make_stepper, naive_stepper)
    term = parse(program)
    kwargs = lift_kwargs(options)

    plain = Confection(make_rules(), make_stepper())
    baseline = plain.lift(term, **kwargs)

    observability = obs.Observability()
    observed_conf = Confection(
        make_rules(), make_stepper(), obs=observability
    )
    observed = observed_conf.lift(term, **kwargs)
    snapshot = observability.snapshot()
    assert not obs.enabled()

    # Byte-identical output (and both match the committed golden trace).
    rendered = [pretty(t) for t in observed.surface_sequence]
    assert rendered == [pretty(t) for t in baseline.surface_sequence]
    assert rendered == expected_trace
    assert observed.steps == baseline.steps
    assert observed.truncated == baseline.truncated

    # The counters agree with the result's own bookkeeping and the
    # committed stats line.
    assert snapshot["lift.steps_total"] == stats["core"]
    assert snapshot["lift.steps_total"] == observed.core_step_count
    assert snapshot["lift.steps_skipped"] == observed.skipped_count
    assert snapshot["lift.steps_emitted"] == observed.shown_count
    assert snapshot["lift.steps_emitted"] + snapshot[
        "lift.steps_deduped"
    ] + snapshot["lift.steps_skipped"] == snapshot["lift.steps_total"]
    assert snapshot["lift.runs"] == 1


@MODES
@CORPUS
def test_steps_total_equals_core_stepped_event_count(path, naive_stepper):
    sugar, program, _expected, stats, options = parse_golden(path)
    make_rules, make_stepper, parse, _pretty = _configs()[sugar]
    make_stepper = _stepper_factory(make_stepper, naive_stepper)
    term = parse(program)

    observability = obs.Observability()
    confection = Confection(make_rules(), make_stepper(), obs=observability)
    events = list(
        confection.lift_stream(term, **lift_kwargs(options))
    )
    core_events = sum(isinstance(e, CoreStepped) for e in events)
    snapshot = observability.snapshot()

    assert snapshot["lift.steps_total"] == core_events == stats["core"]


@MODES
def test_trace_carries_one_step_span_per_core_step(naive_stepper):
    """The exported JSONL agrees with the metrics: one ``lift.step``
    child span under the ``lift`` span per counted core step."""
    from repro.lambdacore import make_stepper, parse_program
    from repro.sugars.scheme_sugars import make_scheme_rules

    buffer = io.StringIO()
    observability = obs.Observability(sinks=[JsonlExporter(buffer)])
    confection = Confection(
        make_scheme_rules(),
        _stepper_factory(make_stepper, naive_stepper)(),
        obs=observability,
    )
    result = confection.lift(parse_program("(or (not #t) (not #f))"))
    snapshot = observability.snapshot()

    records = read_trace(io.StringIO(buffer.getvalue()))
    build_tree(records)  # validates acyclicity
    by_name = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    steps = by_name["lift.step"]
    assert len(steps) == snapshot["lift.steps_total"] == result.core_step_count
    (lift_span,) = by_name["lift"]
    assert all(s["parent_id"] == lift_span["span_id"] for s in steps)
    assert [s["attrs"]["index"] for s in steps] == list(range(len(steps)))
    outcomes = [s["attrs"]["outcome"] for s in steps]
    assert outcomes.count("emitted") == snapshot["lift.steps_emitted"]
    assert outcomes.count("skipped") == snapshot["lift.steps_skipped"]
    assert outcomes.count("deduped") == snapshot["lift.steps_deduped"]
    assert lift_span["attrs"]["core_steps"] == result.core_step_count
