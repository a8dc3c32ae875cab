"""Compiled matchers and builders against Figure 3 as written.

``match`` runs a pattern compiled to a closure that fills one
environment and binds a bare ellipsis variable to the rest of the list
in one step; ``match_explain`` still matches every repetition on its
own and merges the environments (Figure 3 as written).  On every
subterm of the golden corpus, against every rule of every bundled rule
list, both must give the same bindings: for expansion (the LHS, seeing
through tags) and for unexpansion (the tagged RHS, with lenient pattern
tags).  The compiled builders (:func:`compile_subst`, plain and
canonical) must build what :func:`fig3_subst`, Figure 3's substitution
written out below, builds from those bindings.  Hypothesis patterns
cover what the bundled rules do not: nested ellipses, body and
transparent tags, both flags and atomic duplicates.
"""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bindings import ListBinding, split, to_term
from repro.core.errors import SubstitutionError
from repro.core.intern import CANONICAL, PLAIN, intern, is_interned
from repro.core.matching import compile_match, match, match_explain
from repro.core.recursion import deep_recursion
from repro.core.substitution import compile_subst, subst
from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    PList,
    PVar,
    Tagged,
    pattern_variables,
    subterms,
    variable_depths,
)
from tests.strategies import consts, terms
from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden


def fig3_subst(sigma, p):
    """Figure 3's ``sigma P``, as written: the oracle of the compiled
    builders."""
    if isinstance(p, PVar):
        if p.name not in sigma:
            raise SubstitutionError(f"unbound {p.name!r}")
        return to_term(sigma[p.name])
    if isinstance(p, Tagged):
        return Tagged(p.tag, fig3_subst(sigma, p.term))
    if isinstance(p, Node):
        return Node(p.label, tuple(fig3_subst(sigma, c) for c in p.children))
    if isinstance(p, PList):
        items = [fig3_subst(sigma, c) for c in p.items]
        if p.ellipsis is not None:
            names = tuple(dict.fromkeys(pattern_variables(p.ellipsis)))
            for env_i in split(sigma, names):
                items.append(fig3_subst({**sigma, **env_i}, p.ellipsis))
        return PList(tuple(items))
    return p


def _canonical(b):
    if isinstance(b, ListBinding):
        return ListBinding(tuple(_canonical(item) for item in b.items))
    return intern(b)


def assert_builders_agree(sigma, pattern):
    """Both compiled builders build Figure 3's term, or all three
    refuse; the canonical one builds it canonical."""
    try:
        expected = fig3_subst(sigma, pattern)
    except SubstitutionError:
        expected = SubstitutionError
    for make in (PLAIN, CANONICAL):
        env = sigma if make is PLAIN else {
            name: _canonical(b) for name, b in sigma.items()
        }
        try:
            built = compile_subst(pattern, make)(env)
        except SubstitutionError:
            built = SubstitutionError
        assert built == expected
        if make is CANONICAL and built is not SubstitutionError:
            assert is_interned(built)


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
                    assert_builders_agree(env, rule.tagged_rhs)
            for t in core:
                env = match(t, rule.tagged_rhs, lenient_pattern_tags=True)
                assert env == match_explain(
                    t, rule.tagged_rhs, lenient_pattern_tags=True
                )[0]
                if env is not None:
                    successes += 1
                    assert_builders_agree(env, rule.lhs)
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


# --- Hypothesis: the shapes the bundled rules leave out -------------------

TAGS = (BodyTag(False), BodyTag(True), HeadTag(0))
ATOMIC = "k"  # the one variable allowed to repeat, bound to an atom


def _patterns():
    """Patterns over a few variables, with nested ellipses, body tags of
    both kinds and repeats of the atomic variable ``k``."""
    leaf = st.one_of(
        consts, st.sampled_from(["a", "b", "c", ATOMIC]).map(PVar)
    )

    def extend(children):
        return st.one_of(
            st.builds(
                Node,
                st.sampled_from(["Foo", "Bar"]),
                st.lists(children, max_size=3).map(tuple),
            ),
            st.builds(
                PList,
                st.lists(children, max_size=2).map(tuple),
                st.one_of(st.none(), children),
            ),
            st.builds(Tagged, st.sampled_from(TAGS[:2]), children),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@st.composite
def instances(draw):
    """``(pattern, bindings, term)``: the term is Figure 3's instance of
    the pattern, so it matches; variables other than ``k`` occur once."""
    pattern = draw(_patterns())
    names = pattern_variables(pattern)
    assume(all(names.count(n) == 1 for n in names if n != ATOMIC))
    depths = variable_depths(pattern)

    def binding(depth):
        if depth == 0:
            return draw(terms(max_leaves=3))
        k = draw(st.integers(0, 2))
        return ListBinding(tuple(binding(depth - 1) for _ in range(k)))

    sigma = {}
    for name in dict.fromkeys(names):
        if name == ATOMIC and depths[name] == 0:
            sigma[name] = draw(consts)
        else:
            sigma[name] = binding(depths[name])
    try:
        term = fig3_subst(sigma, pattern)
    except SubstitutionError:
        assume(False)
    return pattern, sigma, term


@st.composite
def tagged_terms(draw, base):
    """``base`` with tags wrapped around some of its subterms."""
    def wrap(t):
        if isinstance(t, Node):
            t = Node(t.label, tuple(wrap(c) for c in t.children))
        elif isinstance(t, PList):
            t = PList(tuple(wrap(c) for c in t.items))
        if draw(st.integers(0, 3)) == 0:
            t = Tagged(draw(st.sampled_from(TAGS)), t)
        return t

    return wrap(base)


FLAGS = [(False, False), (True, False), (False, True), (True, True)]


@given(instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_compiled_match_agrees_with_match_explain(instance, data):
    pattern, _sigma, term = instance
    candidates = [
        term,
        data.draw(tagged_terms(term)),
        data.draw(terms(max_leaves=6)),
    ]
    for t in candidates:
        for see, lenient in FLAGS:
            env = {}
            ok = compile_match(pattern, see, lenient)(t, env)
            expected = match_explain(t, pattern, see, lenient)[0]
            assert (env if ok else None) == expected
            if ok:
                assert_builders_agree(env, pattern)


@given(instances())
@settings(max_examples=200, deadline=None)
def test_compiled_builders_agree_with_figure_3(instance):
    pattern, sigma, term = instance
    assert_builders_agree(sigma, pattern)
    assert compile_subst(pattern, PLAIN)(sigma) == term


def test_atomic_duplicates_must_agree():
    pattern = Node("Foo", (PVar(ATOMIC), Node("Bar", (PVar(ATOMIC),))))
    same = Node("Foo", (Const(1), Node("Bar", (Const(1),))))
    different = Node("Foo", (Const(1), Node("Bar", (Const(2),))))
    assert match(same, pattern) == {ATOMIC: Const(1)}
    assert match(different, pattern) is None
    assert match_explain(different, pattern)[0] is None


def test_bare_splice_converts_nested_list_bindings():
    """A bare ``x ...`` whose items are themselves list bindings builds
    list terms for them (Figure 3's ``toTerm``), not a raw splice."""
    pattern = PList((), PVar("x"))
    sigma = {"x": ListBinding((ListBinding((Const(1),)), ListBinding(())))}
    assert_builders_agree(sigma, pattern)
    assert compile_subst(pattern, PLAIN)(sigma) == PList(
        (PList((Const(1),)), PList(()))
    )
