"""Streaming/batch equivalence over the whole golden corpus.

The batch entry points are folds over the streams, but these tests do
not trust that plumbing: they *replay* the event stream with an
independent reconstruction written here and require it to rebuild the
batch ``LiftResult`` exactly — for every golden program and both
bundled languages — and the batch result of the paper's loop over the
naive operations (:mod:`tests.oracle`, the ``naive`` cases) too, plus
the event-grammar invariants every stream must satisfy.
"""

import pytest

from repro.confection import Confection
from repro.core.lift import LiftedStep, LiftResult
from repro.engine.events import (
    BudgetExhausted,
    CoreStepped,
    Deduped,
    Halted,
    StepSkipped,
    SurfaceEmitted,
)
from repro.engine.stream import fold_tree
from tests import oracle
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)


def _replay(events):
    """An independent (test-local) reconstruction of a LiftResult from a
    lift event stream — deliberately not engine.stream.fold_lift."""
    result = LiftResult()
    for event in events:
        if isinstance(event, SurfaceEmitted):
            result.surface_sequence.append(event.surface_term)
            result.steps.append(
                LiftedStep(
                    event.core_index, event.core_term, event.surface_term, True
                )
            )
        elif isinstance(event, Deduped):
            result.steps.append(
                LiftedStep(
                    event.core_index,
                    event.core_term,
                    event.surface_term,
                    False,
                )
            )
        elif isinstance(event, StepSkipped):
            result.steps.append(
                LiftedStep(event.core_index, event.core_term, None, False)
            )
        elif isinstance(event, Halted):
            result.cache_stats = event.cache_stats
        elif isinstance(event, BudgetExhausted):
            result.cache_stats = event.cache_stats
            result.truncated = True
    return result


@pytest.mark.parametrize("incremental", [True, False], ids=["inc", "naive"])
@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_stream_replay_reconstructs_batch(path, incremental):
    sugar, program, expected_trace, stats, options = parse_golden(path)
    make_rules, make_stepper, parse, pretty = _configs()[sugar]
    confection = Confection(make_rules(), make_stepper())
    term = parse(program)
    kwargs = lift_kwargs(options)

    if incremental:
        batch = confection.lift(term, **kwargs)
    else:
        batch = oracle.lift(confection.rules, confection.stepper, term, **kwargs)
    events = list(confection.lift_stream(term, **kwargs))
    replayed = _replay(iter(events))

    # Exact reconstruction of the batch result...
    assert replayed.surface_sequence == batch.surface_sequence
    assert replayed.steps == batch.steps
    truncated = bool(stats.get("truncated", 0))
    assert replayed.truncated == batch.truncated == truncated
    assert replayed.core_step_count == batch.core_step_count == stats["core"]
    assert replayed.skipped_count == batch.skipped_count == stats["skipped"]
    # ...and of the committed golden trace, byte for byte.
    assert [pretty(t) for t in replayed.surface_sequence] == expected_trace

    _check_event_grammar(events, stats["core"], truncated)


def _check_event_grammar(events, core_steps, truncated=False):
    """Every CoreStepped is followed by exactly one classification event
    for the same index; the stream ends with one terminal event
    (:class:`Halted`, or :class:`BudgetExhausted` on a truncated lift)."""
    if truncated:
        assert isinstance(events[-1], BudgetExhausted)
    else:
        assert isinstance(events[-1], Halted)
    assert events[-1].core_step_count == core_steps
    body = events[:-1]
    assert len(body) == 2 * core_steps
    for i in range(0, len(body), 2):
        stepped, classified = body[i], body[i + 1]
        assert isinstance(stepped, CoreStepped)
        assert isinstance(
            classified, (SurfaceEmitted, Deduped, StepSkipped)
        )
        assert classified.core_index == stepped.core_index == i // 2
        assert classified.core_term == stepped.core_term


@pytest.mark.parametrize("incremental", [True, False], ids=["inc", "naive"])
def test_tree_stream_replay_reconstructs_batch(incremental):
    from repro.lambdacore import make_stepper, parse_program
    from repro.sugars.scheme_sugars import make_scheme_rules

    confection = Confection(make_scheme_rules(), make_stepper())
    term = parse_program("(+ (amb 1 2) (amb 10 20))")

    if incremental:
        batch = confection.lift_tree(term)
    else:
        batch = oracle.lift_tree(confection.rules, confection.stepper, term)
    folded = fold_tree(confection.lift_tree_stream(term))

    assert folded.nodes == batch.nodes
    assert folded.edges == batch.edges
    assert folded.root == batch.root
    assert folded.core_node_count == batch.core_node_count
    assert folded.skipped_count == batch.skipped_count
    assert folded.truncated == batch.truncated is False
    assert folded == batch


def test_viz_renders_event_streams_directly():
    """The visualizers accept a live event stream and agree with the
    batch rendering."""
    from repro.lambdacore import make_stepper, parse_program, pretty
    from repro.sugars.scheme_sugars import make_scheme_rules
    from repro.viz import render_html, render_text, render_tree_text

    confection = Confection(make_scheme_rules(), make_stepper())
    term = parse_program("(or (not #t) (not #f))")
    assert render_text(confection.lift_stream(term), pretty) == render_text(
        confection.lift(term), pretty
    )
    assert render_html(confection.lift_stream(term), pretty) == render_html(
        confection.lift(term), pretty
    )
    amb = parse_program("(amb 1 2)")
    assert render_tree_text(
        confection.lift_tree_stream(amb), pretty
    ) == render_tree_text(confection.lift_tree(amb), pretty)


@pytest.mark.parametrize("incremental", [True, False], ids=["inc", "naive"])
def test_emulation_violation_propagates_through_stream(incremental):
    """The dynamic emulation backstop (the paper's Max example, section
    5.1.5) fires on the streaming path as in the paper's loop."""
    from repro.core.lift import EmulationViolation, FunctionStepper
    from repro.core.rules import RuleList
    from repro.core.wellformed import DisjointnessMode
    from repro.engine.stream import lift_stream
    from repro.lang.rule_parser import parse_rules, parse_term
    from tests.core.test_lift import step_maxacc

    rules = RuleList(
        parse_rules(
            """
            Max([]) -> Raise("empty list");
            Max(xs) -> MaxAcc(xs, -infinity);
            """
        ),
        DisjointnessMode.OFF,
    )
    stepper, term = FunctionStepper(step_maxacc), parse_term("Max([-infinity])")
    with pytest.raises(EmulationViolation) as raised:
        if incremental:
            list(lift_stream(rules, stepper, term))
        else:
            oracle.lift(rules, stepper, term)
    assert "does not desugar into the core term" in str(raised.value)
