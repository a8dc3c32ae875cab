"""``match`` against the general matcher ``match_explain`` as its oracle.

``match`` fills one environment and binds a bare ellipsis variable to
the rest of the list in one step; ``match_explain`` still matches every
repetition on its own and merges the environments (Figure 3 as
written).  On every subterm of the golden corpus, against every rule of
every bundled rule list, both must give the same bindings: for
expansion (the LHS, seeing through tags) and for unexpansion (the
tagged RHS, with lenient pattern tags).
"""

from functools import lru_cache

import pytest

from repro.core.matching import match, match_explain
from repro.core.recursion import deep_recursion
from repro.core.substitution import subst
from repro.core.terms import PList, PVar, subterms
from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden


@lru_cache(maxsize=None)
def _rules(sugar):
    return _configs()[sugar][0]().rules


def _corpus():
    by_sugar = {}
    for path in GOLDEN_FILES:
        sugar, program, *_ = parse_golden(path)
        by_sugar.setdefault(sugar, []).append(program)
    return sorted(by_sugar.items())


CORPUS = _corpus()


def _surface_and_core(sugar, programs):
    from repro.confection import Confection

    make_rules, make_stepper, parse, _ = _configs()[sugar]
    confection = Confection(make_rules(), make_stepper())
    surface, core = set(), set()
    with deep_recursion():
        for program in programs:
            term = parse(program)
            surface.update(subterms(term))
            core.update(subterms(confection.desugar(term)))
    return surface, core


def _has_ellipsis(pattern):
    return any(
        isinstance(p, PList) and p.ellipsis is not None for p in subterms(pattern)
    )


@pytest.mark.parametrize(
    "sugar,programs", CORPUS, ids=[sugar for sugar, _ in CORPUS]
)
def test_match_agrees_with_match_explain(sugar, programs):
    surface, core = _surface_and_core(sugar, programs)
    rules = _rules(sugar)
    successes = 0
    with deep_recursion():
        for rule in rules:
            ellipsis_rule = _has_ellipsis(rule.lhs)
            for t in surface:
                env = match(t, rule.lhs, see_through_tags=True)
                assert env == match_explain(t, rule.lhs, see_through_tags=True)[0]
                if env is not None:
                    successes += 1
                    if ellipsis_rule:
                        assert subst(env, rule.lhs) == t
            for t in core:
                env = match(t, rule.tagged_rhs, lenient_pattern_tags=True)
                assert env == match_explain(
                    t, rule.tagged_rhs, lenient_pattern_tags=True
                )[0]
                if env is not None:
                    successes += 1
    assert successes > 0


def test_corpus_exercises_bare_ellipsis_rules():
    """The fast path is on the tested path: some bundled rule repeats a
    bare variable, and some golden subterm matches it."""
    bare = [
        (sugar, rule)
        for sugar, _ in CORPUS
        for rule in _rules(sugar)
        if any(
            isinstance(p, PList)
            and isinstance(p.ellipsis, PVar)
            for p in subterms(rule.lhs)
        )
    ]
    assert bare
    hits = 0
    for sugar, programs in CORPUS:
        surface, _ = _surface_and_core(sugar, programs)
        for s, rule in bare:
            if s == sugar:
                hits += sum(match(t, rule.lhs) is not None for t in surface)
    assert hits > 0
