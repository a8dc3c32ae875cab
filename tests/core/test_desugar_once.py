"""The incremental lift desugars once, through its own ResugarCache.

The lifting loop desugars the program once, through the cache.  Its
Emulation checks desugar nothing: the resugaring walk decides them node
by node, so the run's expansions are the program's alone.
"""

from __future__ import annotations

import pytest

from repro.confection import Confection
from repro.core import lenses
from repro.core.desugar import desugar
from repro.core.errors import ExpansionError
from repro.core.incremental import ResugarCache
from repro.core.terms import HeadTag, Tagged, subterms
from repro.lambdacore import make_stepper, parse_program
from repro.obs import Observability, SpanCollector
from repro.sugars.scheme_sugars import make_scheme_rules
from tests import oracle

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
    # Provenance counts the run's expansions once: the program's one Or
    # node.  No Emulation check desugars a shown surface term again.
    stats = lift_span["attrs"]["rule_stats"]
    (or_row,) = [row for key, row in stats.items() if key.endswith(":Or")]
    assert or_row["expansions"] == 1


def test_fuel_counts_distinct_expansions_not_occurrences():
    """A documented divergence from the naive oracle
    (:mod:`tests.oracle`): the memoized desugar expands a repeated
    subterm once, so a program made of many copies of one sugar term
    stays under the expansion limit that the naive desugar, expanding
    every copy, exceeds."""
    arm = "(or " + "#f " * 100 + "#t)"
    program = parse_program("(and " + (arm + " ") * 60 + "#t)")
    confection = Confection(RULES, make_stepper())
    options = dict(max_steps=0, on_budget="truncate")
    with pytest.raises(ExpansionError, match="exceeded 10000 expansions"):
        oracle.lift(RULES, confection.stepper, program, **options)
    result = confection.lift(program, **options)
    assert result.truncated
    assert result.cache_stats.expansions < 1000


def test_each_emulation_check_gets_the_full_fuel():
    """The fuel and depth guards belong to desugaring, so the lift's
    Emulation check never spends fuel: it decides each shown step
    inside the resugaring walk.  Only the whole-term check (a surface
    term that is not the cache's own resugaring, or a local test that
    does not prove Emulation) desugars, and each such check gets the
    full fuel, as each :meth:`ResugarCache.desugar` call does."""
    arm = "(or " + "#f " * 100 + "#t)"
    half = parse_program("(and " + (arm + " ") * 30 + "#t)")
    # Whole-term checks: each one expands more than half the fuel.
    cache = ResugarCache(RULES)
    core = desugar(RULES, half)
    for _ in range(2):
        assert cache.emulates(half, core)
    assert cache.stats.expansions == 0
    # The local check: the whole-term desugar of this surface runs out
    # of fuel, the walk's verdict does not need it.
    program = parse_program("(and " + (arm + " ") * 60 + "#t)")
    cache = ResugarCache(RULES)
    core = cache.desugar(program)
    surface = cache.resugar(core)
    assert surface == program
    expansions = cache.stats.expansions
    assert cache.emulates(surface, core)
    assert cache.stats.expansions == expansions
    with pytest.raises(ExpansionError, match="exceeded 10000 expansions"):
        lenses.emulates(RULES, surface, core)
