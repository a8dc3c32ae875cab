"""The incremental lift desugars once, through its own ResugarCache.

The lifting loop's initial desugar fills the cache's ``_desugar`` memo,
so the step-0 Emulation check (and every later check whose surface term
is a subterm of the program) is an identity hit that expands nothing.
"""

from __future__ import annotations

import pytest

from repro.cache import LiftCache
from repro.confection import Confection
from repro.core import incremental
from repro.core.desugar import desugar
from repro.core.errors import ExpansionError
from repro.core.incremental import ResugarCache
from repro.core.terms import HeadTag, Tagged, subterms
from repro.lambdacore import make_stepper, parse_program
from repro.obs import Observability, SpanCollector
from repro.sugars.scheme_sugars import make_scheme_rules

RULES = make_scheme_rules()
OR_CHAIN_40 = "(or " + "#f " * 40 + "#t)"


def _head_tags(t) -> int:
    return sum(
        isinstance(s, Tagged) and isinstance(s.tag, HeadTag)
        for s in subterms(t)
    )


def test_or_chain_lift_expands_each_head_tag_once():
    program = parse_program(OR_CHAIN_40)
    confection = Confection(RULES, make_stepper())
    heads = _head_tags(desugar(RULES, program))
    checked = confection.lift(program).cache_stats
    unchecked = confection.lift(program, check_emulation=False).cache_stats
    assert heads == 80
    assert checked.expansions == heads
    assert checked.desugar_calls == 1
    # Emulation checking (step 0 included) performs zero expansions.
    assert unchecked.expansions == checked.expansions


def test_incremental_lift_emits_one_desugar_span():
    confection = Confection(RULES, make_stepper())
    collector = SpanCollector()
    with Observability(sinks=[collector]):
        confection.lift(parse_program("(or (not #t) (not #f))"))
    (lift_span,) = [r for r in collector.records if r["name"] == "lift"]
    (desugar_span,) = [r for r in collector.records if r["name"] == "desugar"]
    assert desugar_span["parent_id"] == lift_span["span_id"]
    # Provenance counts the run's expansions once: the program's two
    # Or nodes, with no second pass for the step-0 Emulation check.
    stats = lift_span["attrs"]["rule_stats"]
    (or_row,) = [row for key, row in stats.items() if key.endswith(":Or")]
    assert or_row["expansions"] == 2


def _rule_stats(confection, program, **options):
    collector = SpanCollector()
    with Observability(sinks=[collector]):
        confection.lift(program, **options)
    (lift_span,) = [r for r in collector.records if r["name"] == "lift"]
    return lift_span["attrs"]["rule_stats"]


def test_a_warm_memo_tier_leaves_the_program_expansions_alone(tmp_path):
    """The memo tier is hydrated after the program's desugar, so that
    desugar reports the same per-rule expansions whether or not the tier
    already holds the program.  (Emulation checking is off: its
    expansions, like unexpansions, may be answered from the tier.)"""
    program = parse_program("(or (not #t) (and #f #t))")
    options = dict(check_emulation=False)

    def expansions(confection):
        stats = _rule_stats(confection, program, **options)
        return {key: row["expansions"] for key, row in stats.items()}

    expected = expansions(Confection(RULES, make_stepper()))
    # Fill the memo tier through another engine config (a lift-tier miss
    # for the config measured below) and check it now holds entries.
    Confection(RULES, make_stepper(), cache=LiftCache(tmp_path)).lift(
        program, stepper_mode="naive"
    )
    assert LiftCache(tmp_path).hydrate(ResugarCache(RULES)) > 0
    cached = Confection(RULES, make_stepper(), cache=LiftCache(tmp_path))
    assert expansions(cached) == expected
    assert sum(expected.values()) == 3


def test_fuel_counts_distinct_expansions_not_occurrences():
    """A documented divergence from the ``incremental=False`` oracle:
    the memoized desugar expands a repeated subterm once, so a program
    made of many copies of one sugar term stays under the expansion
    limit that the naive desugar, expanding every copy, exceeds."""
    arm = "(or " + "#f " * 100 + "#t)"
    program = parse_program("(and " + (arm + " ") * 60 + "#t)")
    confection = Confection(RULES, make_stepper())
    options = dict(max_steps=0, on_budget="truncate")
    with pytest.raises(ExpansionError, match="exceeded 10000 expansions"):
        confection.lift(program, incremental=False, **options)
    result = confection.lift(program, **options)
    assert result.truncated
    assert result.cache_stats.expansions < 1000


def test_each_emulation_check_gets_the_full_fuel(monkeypatch):
    """Fuel is per check, not per run: many small checks may together
    expand more than one check is allowed to."""
    monkeypatch.setattr(incremental, "DEFAULT_MAX_EXPANSIONS", 3)
    cache = ResugarCache(RULES)
    for n in range(1, 6):
        source = "(or " + "#f " * n + "#t)"
        assert cache.emulates(parse_program(source), desugar(RULES, parse_program(source)))
    assert cache.stats.expansions > 3
    with pytest.raises(ExpansionError, match="exceeded 3 expansions"):
        cache.emulates(parse_program("(or #f #f #f #f #f #f #f #f #t)"), parse_program("#t"))
