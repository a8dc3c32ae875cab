"""Compiled redex matchers against the interpretive semantics.

:func:`~repro.redex.patterns.compile_redex_match` turns a reduction
rule's LHS into a closure once; :func:`oracle_redex_match` below is the
pattern-walking matcher written out as the semantics reads it (tags on
the term transparent, variables capture the tagged term, a repeated
variable keeps its last binding).  On every subterm of every core state
of the golden corpus, against every reduction rule of its language,
both must give the same bindings.
"""

from functools import lru_cache

import pytest

from repro.confection import Confection
from repro.core.bindings import merge
from repro.core.errors import PatternError
from repro.core.recursion import deep_recursion
from repro.core.terms import Const, Node, PList, PVar, Tagged, subterms
from repro.redex.patterns import (
    AtomPred,
    NTRef,
    _ellipsis_variables,
    compile_redex_match,
    redex_match,
    strip_outer_tags,
)
from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden


def oracle_redex_match(term, pattern, grammar):
    if isinstance(pattern, PVar):
        return {pattern.name: term}
    if isinstance(pattern, NTRef):
        if not grammar.matches(term, pattern.nonterminal):
            return None
        return {pattern.name: term} if pattern.name else {}
    if isinstance(pattern, AtomPred):
        bare = strip_outer_tags(term)
        if not pattern.accepts(bare):
            return None
        return {pattern.name: bare} if pattern.name else {}
    bare = strip_outer_tags(term)
    if isinstance(pattern, Const):
        return {} if isinstance(bare, Const) and bare == pattern else None
    if isinstance(pattern, Node):
        if (
            not isinstance(bare, Node)
            or bare.label != pattern.label
            or len(bare.children) != len(pattern.children)
        ):
            return None
        out = {}
        for t, p in zip(bare.children, pattern.children):
            sub = oracle_redex_match(t, p, grammar)
            if sub is None:
                return None
            out.update(sub)
        return out
    if isinstance(pattern, PList):
        if not isinstance(bare, PList) or bare.ellipsis is not None:
            return None
        n = len(pattern.items)
        if len(bare.items) < n or (
            pattern.ellipsis is None and len(bare.items) != n
        ):
            return None
        out = {}
        for t, p in zip(bare.items, pattern.items):
            sub = oracle_redex_match(t, p, grammar)
            if sub is None:
                return None
            out.update(sub)
        if pattern.ellipsis is not None:
            reps = []
            for t in bare.items[n:]:
                sub = oracle_redex_match(t, pattern.ellipsis, grammar)
                if sub is None:
                    return None
                reps.append(sub)
            out.update(merge(reps, _ellipsis_variables(pattern.ellipsis)))
        return out
    if isinstance(pattern, Tagged):
        return oracle_redex_match(term, pattern.term, grammar)
    raise PatternError(f"not a redex pattern: {pattern!r}")


@lru_cache(maxsize=None)
def _states(sugar):
    """Every distinct subterm of every core state of the golden lifts of
    ``sugar``, and the semantics that stepped them."""
    make_rules, make_stepper, parse, _ = _configs()[sugar]
    stepper = make_stepper()
    conf = Confection(make_rules(), stepper)
    seen = set()
    with deep_recursion():
        for path in GOLDEN_FILES:
            s, program, *_ = parse_golden(path)
            if s != sugar:
                continue
            result = conf.lift(parse(program), max_steps=300, on_budget="truncate")
            for step in result.steps:
                seen.update(subterms(step.core_term))
    return stepper.semantics, tuple(seen)


SUGARS = sorted({parse_golden(p)[0] for p in GOLDEN_FILES})


@pytest.mark.parametrize("sugar", SUGARS)
def test_compiled_redex_match_agrees_with_oracle(sugar):
    semantics, states = _states(sugar)
    matched = 0
    with deep_recursion():
        for rule in semantics.rules:
            fill = compile_redex_match(rule.lhs, semantics.grammar)
            for t in states:
                env = {}
                ok = fill(t, env)
                expected = oracle_redex_match(t, rule.lhs, semantics.grammar)
                assert (env if ok else None) == expected
                assert redex_match(t, rule.lhs, semantics.grammar) == expected
                matched += ok
    assert matched > 0


def test_candidates_are_built_once_per_label():
    semantics, states = _states("scheme")
    redex = next(t for t in states if isinstance(t, Node) and t.label == "App")
    first = semantics._candidate_rules(redex)
    assert semantics._candidate_rules(redex) is first
    assert all(fill is compile_redex_match(rule.lhs, semantics.grammar)
               for rule, fill in first)


def test_repeated_redex_variable_keeps_its_last_binding():
    """No bundled reduction rule repeats a variable; the compiled
    matcher still follows the semantics there: the last binding wins."""
    semantics, _ = _states("scheme")
    pattern = Node("F", (PVar("x"), Node("G", (PVar("x"),))))
    term = Node("F", (Const(1), Node("G", (Const(2),))))
    expected = oracle_redex_match(term, pattern, semantics.grammar)
    assert expected == {"x": Const(2)}
    assert redex_match(term, pattern, semantics.grammar) == expected
