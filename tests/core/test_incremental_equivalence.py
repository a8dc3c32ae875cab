"""The optimized lifter is *observably identical* to the naive one.

Every lift resugars and checks Emulation through a
:class:`~repro.core.incremental.ResugarCache`.  These tests pin it
against the paper's loop over the whole-term operations
(:mod:`tests.oracle`): byte-identical surface sequences and trees over
the whole golden corpus (Or, Automaton, return/callcc, and the Pyret
sugars), the nondeterministic ``amb`` tree, plus unit tests for the
cache's reuse and invalidation behaviour.
"""

from pathlib import Path

import pytest

from repro.confection import Confection
from repro.core.desugar import resugar
from repro.core.incremental import ResugarCache
from repro.core.intern import intern
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules
from tests import oracle
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_incremental_lift_matches_naive_on_golden_corpus(path: Path):
    sugar, program, _expected, _stats, options = parse_golden(path)
    make_rules, make_stepper_, parse, _pretty = _configs()[sugar]
    confection = Confection(make_rules(), make_stepper_())
    term = parse(program)
    kwargs = lift_kwargs(options)

    naive = oracle.lift(confection.rules, confection.stepper, term, **kwargs)
    inc = confection.lift(term, **kwargs)

    assert inc.surface_sequence == naive.surface_sequence
    # Every step's fate, core terms included.
    assert inc.steps == naive.steps
    assert inc.truncated == naive.truncated
    assert inc.cache_stats is not None


def test_incremental_tree_matches_naive_on_amb():
    confection = Confection(make_scheme_rules(), make_stepper())
    program = parse_program("(+ (amb 1 10) (amb 2 (or #f 20)))")

    naive = oracle.lift_tree(confection.rules, confection.stepper, program)
    inc = confection.lift_tree(program)

    assert inc.root == naive.root
    assert inc.edges == naive.edges
    assert set(inc.nodes) == set(naive.nodes)
    for node_id in naive.nodes:
        assert inc.nodes[node_id] == naive.nodes[node_id]
    assert inc.core_node_count == naive.core_node_count
    assert inc.skipped_count == naive.skipped_count
    assert inc.depth() == naive.depth()
    assert sorted(inc.leaves()) == sorted(naive.leaves())
    assert inc == naive


class TestResugarCacheReuse:
    """A reduction step rewrites one spine; the cache must recompute only
    that spine and still answer correctly."""

    def _setup(self):
        rules = make_scheme_rules()
        stepper = make_stepper()
        program = parse_program("(or " + " ".join(["#f"] * 8) + " #t)")
        confection = Confection(rules, stepper)
        core = confection.desugar(program)
        return rules, stepper, core

    def test_rewritten_subterm_invalidates_only_its_spine(self):
        rules, stepper, core = self._setup()
        cache = ResugarCache(rules)

        first = cache.resugar(core)
        assert first == resugar(rules, core)
        visits_after_first = cache.stats.resugar_visits

        # Step the core term: one spine rewritten, the rest shared.
        state = stepper.load(core)
        (state,) = stepper.step(state)
        stepped = stepper.term(state)

        second = cache.resugar(stepped)
        assert second == resugar(rules, stepped)
        new_visits = cache.stats.resugar_visits - visits_after_first
        # Recomputation is localized: far fewer fresh visits than the
        # first (whole-term) pass, and real sharing was exploited.
        assert 0 < new_visits < visits_after_first
        assert cache.stats.resugar_hits > 0

    def test_repeat_resugar_is_pure_cache_hit(self):
        rules, _stepper, core = self._setup()
        cache = ResugarCache(rules)
        first = cache.resugar(core)
        visits = cache.stats.resugar_visits
        again = cache.resugar(core)
        assert again == first
        assert cache.stats.resugar_visits == visits

    def test_emulates_agrees_with_reference(self):
        from repro.core.lenses import emulates

        rules, _stepper, core = self._setup()
        cache = ResugarCache(rules)
        surface = cache.resugar(core)
        assert surface is not None
        assert cache.emulates(surface, core)
        assert emulates(rules, surface, core)
        # A surface term that does not desugar to this core term.
        wrong = intern(parse_program("(or #t)"))
        assert not cache.emulates(wrong, core)
        assert not emulates(rules, wrong, core)

    def test_desugar_agrees_with_reference(self):
        from repro.core.desugar import desugar

        rules, _stepper, _core = self._setup()
        cache = ResugarCache(rules)
        program = parse_program("(or #f (and #t #f))")
        assert cache.desugar(program) == desugar(rules, program)
        # Second desugar of a shared subprogram reuses the memo.
        hits_before = cache.stats.desugar_hits
        cache.desugar(parse_program("(or #f (and #t #f))"))
        assert cache.stats.desugar_hits > hits_before
