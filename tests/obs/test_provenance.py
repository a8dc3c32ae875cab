"""Resugar-decision provenance: every skip has a recorded *why*.

The provenance layer (:mod:`repro.obs.provenance`) attaches, per core
step, structured events explaining each resugar decision to the step's
``lift.step`` span, and per-rule totals to the run's ``lift`` span.
These tests pin the event vocabulary, the cache-replay path (a
memoized failure re-reports the original diagnosis, ``cached: true``),
the per-rule counters, and the end-to-end guarantee the ``repro obs
skips`` CLI builds on: every skipped step in a traced lift carries a
diagnosis naming either the failing rule (and where/why unification
failed) or the tag check that blocked the term.
"""

from __future__ import annotations

import pytest

from repro.confection import Confection
from repro.lambdacore import make_stepper, parse_program
from repro.obs import Observability, SpanCollector, metrics_snapshot
from repro.obs import provenance as prov
from repro.obs.metrics import per_rule_counters
from repro.sugars.automaton import make_automaton_rules
from repro.sugars.scheme_sugars import make_scheme_rules

AUTOMATON_PROGRAM = (
    '(let ((M (automaton s0 (s0 : ("a" -> s1)) (s1 : accept)))) (M "a"))'
)


def _traced_lift(rules, source):
    confection = Confection(rules, make_stepper())
    collector = SpanCollector()
    with Observability(sinks=[collector]):
        result = confection.lift(parse_program(source))
    return result, collector.records


def _step_spans(records):
    return [r for r in records if r["name"] == "lift.step"]


def _skip_events(records):
    for record in _step_spans(records):
        if record["attrs"].get("outcome") == "skipped":
            yield record, record["attrs"].get("provenance") or []


# --- the scope API -----------------------------------------------------


class TestScopes:
    def test_note_outside_a_step_scope_is_dropped(self):
        prov.note({"event": "deduped"})
        assert prov.current_events() is None

    def test_step_scope_attaches_events_to_the_span(self):
        class FakeSpan:
            attrs = {}

        span = FakeSpan()
        with prov.step_scope(span) as events:
            prov.on_tag_blocked("opaque_body_tag")
            assert prov.current_events() is events
        assert span.attrs["provenance"] == [
            {"event": "tag_blocked", "kind": "opaque_body_tag"}
        ]

    def test_empty_step_scope_attaches_nothing(self):
        class FakeSpan:
            attrs = {}

        span = FakeSpan()
        with prov.step_scope(span):
            pass
        assert "provenance" not in span.attrs

    def test_cached_fail_replays_the_original_diagnosis(self):
        original = {
            "event": "unexpand_failed",
            "rule": "Or",
            "rule_index": 3,
            "path": "If.0",
            "reason": "expected node 'Id', term is constant Const(1)",
        }
        with prov.step_scope(None):
            prov.on_cached_fail(original)
            prov.on_cached_fail(None)
            events = list(prov.current_events())
        assert events[0] == {**original, "cached": True}
        assert "cached" not in original  # the stored event is not mutated
        assert events[1] == {"event": "unexpand_failed", "cached": True}

    def test_run_scope_accumulates_rule_stats(self):
        rules = make_scheme_rules()
        run = prov.begin_run(rules)
        try:
            prov.on_expand(rules, 0)
            prov.on_expand(rules, 0)
        finally:
            prov.end_run(run)
        name = rules.rules[0].name
        assert run.rule_stats() == {
            f"0:{name}": {
                "expansions": 2,
                "unexpansions": 0,
                "unexpand_failures": 0,
            }
        }


# --- per-rule counters -------------------------------------------------


class TestPerRuleCounters:
    def test_counters_are_interned_per_rulelist(self):
        rules = make_scheme_rules()
        assert per_rule_counters(rules) is per_rule_counters(rules)

    def test_counter_names_carry_index_and_rule_name(self):
        rules = make_scheme_rules()
        counters = per_rule_counters(rules)
        name = rules.rules[2].name
        assert counters.expansions[2].name == f"rule.expansions.2:{name}"
        assert (
            counters.unexpand_failures[2].name
            == f"rule.unexpand_failures.2:{name}"
        )

    def test_expansions_move_the_named_counter(self):
        rules = make_scheme_rules()
        _result, _records = _traced_lift(rules, "(or (not #t) (not #f))")
        snapshot = metrics_snapshot()
        expanded = {
            name: value
            for name, value in snapshot.items()
            if name.startswith("rule.expansions.") and value
        }
        assert expanded, "a lift that expands sugar moves rule counters"
        assert all(
            name.split(".", 2)[2].split(":", 1)[1] for name in expanded
        )


# --- end-to-end: every skip is explained -------------------------------


class TestSkipProvenance:
    def test_tag_blocked_skips_name_the_kind(self):
        _result, records = _traced_lift(
            make_scheme_rules(), "(or (not #t) (not #f))"
        )
        skips = list(_skip_events(records))
        assert skips
        for _record, events in skips:
            kinds = {e["event"] for e in events}
            assert "tag_blocked" in kinds or "unexpand_failed" in kinds

    def test_unexpand_failures_carry_rule_path_and_reason(self):
        _result, records = _traced_lift(
            make_automaton_rules(), AUTOMATON_PROGRAM
        )
        failures = [
            event
            for _record, events in _skip_events(records)
            for event in events
            if event["event"] == "unexpand_failed" and not event.get("cached")
        ]
        assert failures
        for event in failures:
            assert event["rule"]
            assert isinstance(event["rule_index"], int)
            assert event["path"] is not None
            assert event["reason"]

    def test_cached_skips_replay_their_diagnosis(self):
        _result, records = _traced_lift(
            make_automaton_rules(), AUTOMATON_PROGRAM
        )
        cached = [
            event
            for _record, events in _skip_events(records)
            for event in events
            if event.get("cached")
        ]
        assert cached, "the automaton lift re-skips memoized failures"
        for event in cached:
            assert event["event"] == "unexpand_failed"

    def test_every_skipped_step_has_provenance(self):
        for rules, source in (
            (make_scheme_rules(), "(or (not #t) (not #f))"),
            (make_automaton_rules(), AUTOMATON_PROGRAM),
        ):
            result, records = _traced_lift(rules, source)
            skips = list(_skip_events(records))
            assert len(skips) == result.skipped_count
            for _record, events in skips:
                assert events, "a skipped step without a recorded cause"

    def test_lift_span_carries_merged_rule_stats(self):
        _result, records = _traced_lift(
            make_scheme_rules(), "(or (not #t) (not #f))"
        )
        (lift_span,) = [r for r in records if r["name"] == "lift"]
        stats = lift_span["attrs"]["rule_stats"]
        assert stats
        for key, row in stats.items():
            index, _, name = key.partition(":")
            assert index.isdigit() and name
            assert set(row) == {
                "expansions",
                "unexpansions",
                "unexpand_failures",
            }
        assert any(row["expansions"] for row in stats.values())

    def test_disabled_lift_records_nothing(self):
        confection = Confection(make_scheme_rules(), make_stepper())
        collector = SpanCollector()
        result = confection.lift(parse_program("(or (not #t) (not #f))"))
        assert collector.records == []
        assert result.skipped_count  # the program does skip; we just
        # did not pay to find out why


# --- naive mode agrees -------------------------------------------------


@pytest.mark.parametrize("incremental", [True, False], ids=["inc", "naive"])
def test_skip_provenance_is_mode_independent(incremental):
    """The naive (reference) resugarer diagnoses every skip the same
    way the lifting loop does: same failing rule, same mismatch path
    and reason (or the same blocking tag check) at every skipped step.
    Only bookkeeping events differ — the incremental cache elides
    re-recording successful unexpansions and flags replays ``cached``.

    The naive resugarer runs on each core step inside its own step
    scope, as the loop of :mod:`tests.oracle` calls it; the core steps
    come from the traced lift itself (``inc``) or from the oracle's own
    run through the naive stepper (``naive``).
    """
    from repro.core.desugar import resugar
    from tests import oracle

    def diagnoses(skipped):
        return [
            sorted(
                (
                    e["event"],
                    e.get("rule"),
                    e.get("path"),
                    e.get("reason"),
                    e.get("kind"),
                )
                for e in events
                if e["event"] in ("unexpand_failed", "tag_blocked")
            )
            for events in skipped
        ]

    rules = make_automaton_rules()
    program = parse_program(AUTOMATON_PROGRAM)
    collector = SpanCollector()
    with Observability(sinks=[collector]):
        lifted = Confection(rules, make_stepper()).lift(program)
    traced = [events for _record, events in _skip_events(collector.records)]

    if incremental:
        steps = lifted.steps
    else:
        steps = oracle.lift(
            rules, make_stepper().with_mode("naive"), program
        ).steps
    naive = []
    with Observability():
        for step in steps:
            with prov.step_scope(None) as events:
                surface = resugar(rules, step.core_term)
            if surface is None:
                naive.append(events)
    assert len(naive) == lifted.skipped_count > 0
    assert diagnoses(naive) == diagnoses(traced)


# --- the exact events, pinned -------------------------------------------


def test_step_provenance_is_pinned():
    """Every step's outcome and provenance events, in order, for one
    program per sugar family and backend, as
    ``tests/golden/provenance_events.json`` records them: the memoized
    resugaring walk must report each unexpansion, cached failure and tag
    block exactly as it always has."""
    import json
    from pathlib import Path

    from repro.engine.registry import get_backend

    golden = json.loads(
        (Path(__file__).parents[1] / "golden" / "provenance_events.json")
        .read_text()
    )
    pyret = get_backend("pyret")
    engines = {
        "automaton": (make_automaton_rules(), make_stepper, parse_program),
        "scheme": (make_scheme_rules(), make_stepper, parse_program),
        "pyret": (pyret.make_rules(), pyret.make_stepper, pyret.parse),
    }
    for name, (rules, stepper, parse) in engines.items():
        collector = SpanCollector()
        with Observability(sinks=[collector]):
            Confection(rules, stepper()).lift(parse(golden[name]["program"]))
        steps = [
            [r["attrs"]["index"], r["attrs"]["outcome"],
             r["attrs"].get("provenance") or []]
            for r in _step_spans(collector.records)
        ]
        assert steps == golden[name]["steps"], name
