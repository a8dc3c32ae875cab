"""The resugaring walk's local Emulation verdict against the whole-term
check.

:class:`~repro.core.incremental.ResugarCache` decides Emulation node by
node inside its resugaring walk and answers with the whole-term check,
:func:`repro.core.lenses.emulates`, only when that local test does not
prove it.  These tests hold the two to each other on every core state
of every golden trace (both backends), on random rulelists and core
states, on synthesis fuzz mutants, and on a reproducer in which a rule
of higher priority matches the unexpanded term:

* a local ``True`` is sound — the whole-term check agrees, or runs out
  of expansion fuel where the walk needs none;
* :meth:`ResugarCache.emulates` returns exactly what the whole-term
  check does (or raises what it raises), the fuel case aside.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.confection import Confection
from repro.core import lenses
from repro.core.errors import ExpansionError, ReproError
from repro.core.incremental import ResugarCache
from repro.core.intern import intern
from repro.core.rules import Rule, RuleList
from repro.core.terms import Const, HeadTag, Node, PList, PVar, Tagged, subterms
from repro.core.wellformed import DisjointnessError, DisjointnessMode
from repro.engine.registry import get_backend
from repro.synth.fuzz import PERTURBATIONS, candidate_from_json
from repro.synth.filter import check_candidate
from tests.strategies import terms, wellformed_rules
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)

_RAISED = "ExpansionError"


def _whole(rules, surface, core):
    try:
        return lenses.emulates(rules, surface, core)
    except ExpansionError:
        return _RAISED


def _combined(cache, surface, core):
    try:
        return cache.emulates(surface, core)
    except ExpansionError:
        return _RAISED


def check_state(cache: ResugarCache, core):
    """Compare the verdicts at one core state; returns the local verdict
    (``None`` when the state does not resugar)."""
    core = intern(core)
    surface = cache.resugar(core)
    if surface is None:
        return None
    local = cache._memo[core][2]
    whole = _whole(cache.rules, surface, core)
    combined = _combined(cache, surface, core)
    if local:
        assert whole in (True, _RAISED)
        assert combined is True
    else:
        assert combined == whole
    return local


def check_lift(rules, stepper, program, **kwargs):
    """Every core state of one lift, through one cache as a lift uses it;
    returns the local verdicts of the states that resugared."""
    result = Confection(rules, stepper).lift(
        program, check_emulation=False, **kwargs
    )
    cache = ResugarCache(rules)
    cache.desugar(program)
    verdicts = [check_state(cache, step.core_term) for step in result.steps]
    return [v for v in verdicts if v is not None]


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES])
def test_every_golden_state(path):
    sugar, program, _trace, _stats, options = parse_golden(path)
    make_rules, make_stepper, parse, _pretty = _configs()[sugar]
    verdicts = check_lift(
        make_rules(), make_stepper(), parse(program), **lift_kwargs(options)
    )
    # Golden traces are faithful lifts: the walk proves every shown step.
    assert verdicts and all(verdicts)


def test_rewritten_golden_states():
    """Golden states with one subterm replaced by another subterm of the
    state or of the surface program (seeded): real rules, both backends,
    both verdicts."""
    rng = random.Random(0)
    verdicts = []
    for path in GOLDEN_FILES:
        sugar, program, _trace, _stats, options = parse_golden(path)
        make_rules, make_stepper, parse, _pretty = _configs()[sugar]
        rules = make_rules()
        surface = parse(program)
        result = Confection(rules, make_stepper()).lift(
            surface, **lift_kwargs(options)
        )
        cache = ResugarCache(rules)
        for step in result.steps[::3]:
            spots = list(subterms(step.core_term))
            news = spots + list(subterms(surface))
            for _ in range(6):
                rewritten = _replace_at(
                    step.core_term, rng.choice(spots), rng.choice(news)
                )
                verdicts.append(check_state(cache, rewritten))
    assert True in verdicts and False in verdicts


# --- a rule of higher priority matches the unexpanded term -------------


def _shadowed(rhs_of_first):
    """Rule 0 ``Foo(1) -> rhs_of_first`` shadows rule 1 ``Foo(a) ->
    Bar(a)``.  ``Foo(2)`` desugars by rule 1; a step turning its ``2``
    into ``1`` makes the unexpanded surface ``Foo(1)``, which rule 0
    matches first."""
    rules = RuleList(
        [
            Rule(Node("Foo", (Const(1),)), rhs_of_first, name="one"),
            Rule(Node("Foo", (PVar("a"),)), Node("Bar", (PVar("a"),))),
        ],
        DisjointnessMode.OFF,
    )
    cache = ResugarCache(rules)
    core = cache.desugar(Node("Foo", (Const(2),)))
    assert core.tag.index == 1
    stepped = intern(Tagged(core.tag, Tagged(core.term.tag, Node("Bar", (Const(1),)))))
    return rules, cache, stepped


def test_higher_priority_rule_with_another_skeleton_is_a_violation():
    rules, cache, stepped = _shadowed(Node("Baz", (Const(1),)))
    assert cache.resugar(stepped) == Node("Foo", (Const(1),))
    assert check_state(cache, stepped) is False
    assert cache.emulates(cache.resugar(stepped), stepped) is False


def test_higher_priority_rule_with_the_same_skeleton_emulates():
    """The local test cannot prove this site, so the whole-term check
    answers, and it holds: rule 0 rebuilds the same core skeleton."""
    rules, cache, stepped = _shadowed(Node("Bar", (Const(1),)))
    assert check_state(cache, stepped) is False
    assert cache.emulates(cache.resugar(stepped), stepped) is True


def test_an_untagged_node_a_rule_would_expand_is_a_violation():
    rules = RuleList([Rule(Node("Foo", (PVar("a"),)), Node("Bar", (PVar("a"),)))])
    cache = ResugarCache(rules)
    core = intern(Node("Pair", (Node("Foo", (Const(1),)), Const(2))))
    assert cache.resugar(core) == core
    assert check_state(cache, core) is False
    assert cache.emulates(core, core) is False


def test_a_foreign_surface_gets_the_whole_term_check():
    rules = RuleList([Rule(Node("Foo", (PVar("a"),)), Node("Bar", (PVar("a"),)))])
    cache = ResugarCache(rules)
    core = cache.desugar(Node("Foo", (Const(1),)))
    assert cache.resugar(core) == Node("Foo", (Const(1),))
    assert cache.emulates(Node("Foo", (Const(1),)), core)
    assert not cache.emulates(Node("Foo", (Const(2),)), core)
    # Emulation is modulo tags: the core term itself emulates too.
    assert cache.emulates(Node("Bar", (Const(1),)), core)


# --- random rulelists and core states ----------------------------------


def _replace_at(t, target, new):
    """``t`` with the subterm object ``target`` replaced by ``new``."""
    if t is target:
        return new
    if isinstance(t, Tagged):
        return Tagged(t.tag, _replace_at(t.term, target, new))
    if isinstance(t, Node):
        return Node(t.label, tuple(_replace_at(c, target, new) for c in t.children))
    if isinstance(t, PList):
        return PList(tuple(_replace_at(c, target, new) for c in t.items))
    return t


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    rule_list=st.lists(wellformed_rules(), min_size=1, max_size=4),
    program=terms(max_leaves=10),
    data=st.data(),
)
def test_random_rulelists_and_states(rule_list, program, data):
    """Desugar a random term under random (possibly overlapping) rules,
    then rewrite one random subterm, as a reduction step would."""
    rules = RuleList(rule_list, DisjointnessMode.OFF)
    cache = ResugarCache(rules)
    try:
        core = cache.desugar(program)
    except ExpansionError:
        assume(False)
    check_state(cache, core)
    spots = list(subterms(core))
    target = data.draw(st.sampled_from(spots))
    new = data.draw(st.one_of(st.sampled_from(spots), terms(max_leaves=4)))
    check_state(cache, _replace_at(core, target, new))


# --- synthesis fuzz mutants --------------------------------------------

REGRESSIONS = sorted(
    (Path(__file__).parents[1] / "synth" / "regressions").glob("*.json")
)


def _spliced(candidate):
    """The candidate's rule ahead of the lambda reference rules, as the
    fuzzer splices it; ``None`` when the rule cannot be built."""
    reference = get_backend("lambda").make_rules(None)
    try:
        checked = check_candidate(candidate)
    except ReproError:
        return None
    if checked.rule is None or checked.verdict == "wellformedness":
        return None
    rules = (checked.rule,) + tuple(reference.rules)
    try:
        return RuleList(rules, reference.disjointness)
    except DisjointnessError:
        return RuleList(rules, DisjointnessMode.OFF)


def _mutant_verdicts(candidate):
    rules = _spliced(candidate)
    if rules is None:
        return []
    stepper = get_backend("lambda").make_stepper()
    verdicts = []
    for surface, _core in candidate.examples[:2]:
        try:
            verdicts += check_lift(
                rules, stepper, surface, max_steps=40, on_budget="truncate"
            )
        except (ReproError, RecursionError):
            continue
    return verdicts


def test_fuzz_regression_corpus():
    import json

    verdicts = []
    for path in REGRESSIONS:
        record = json.loads(path.read_text())
        verdicts += _mutant_verdicts(candidate_from_json(record["candidate"]))
    assert True in verdicts


def test_seeded_fuzz_mutants():
    from repro.synth.filter import check_candidates
    from repro.synth.harvest import SEED_PROGRAMS, harvest_examples
    from repro.synth.pipeline import enumerate_candidates

    backend = get_backend("lambda")
    programs = [backend.parse(s) for s in SEED_PROGRAMS["lambda"]]
    buckets = harvest_examples(backend.make_rules(None), programs, max_list_len=3)
    bases = [
        c.candidate
        for c in check_candidates(enumerate_candidates(buckets))
        if c.ok
    ]
    rng = random.Random(0)
    verdicts = []
    trials = 0
    while trials < 60:
        name, op = rng.choice(PERTURBATIONS)
        mutated = op(rng.choice(bases), rng)
        if mutated is None:
            continue
        trials += 1
        verdicts += _mutant_verdicts(mutated)
    assert True in verdicts


def test_head_tags_are_what_the_walk_unexpands():
    """Sanity for the helpers above: a desugared program's head tags are
    the sites the walk checks."""
    rules = get_backend("lambda").make_rules(None)
    cache = ResugarCache(rules)
    core = cache.desugar(get_backend("lambda").parse("(or #f (and #t #f))"))
    heads = sum(
        isinstance(s, Tagged) and isinstance(s.tag, HeadTag) for s in subterms(core)
    )
    assert cache.resugar(core) is not None
    assert cache.stats.unexpansions == heads
