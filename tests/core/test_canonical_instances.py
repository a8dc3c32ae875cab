"""Canonical rule instances and β that skips where its variable is not free.

``RuleList.expand``/``unexpand`` build their instances canonical
(:func:`repro.core.substitution.subst_canonical`) when the input is,
and fall back to the generic :func:`~repro.core.substitution.subst`
otherwise.  Both backends' ``substitute`` return a subterm where the
variable is not free (:func:`~repro.core.terms.free_names` under the
backend's binder table) untouched, by identity, and build the rebuilt
spine canonical when their inputs are.  Each is held here to the
generic, full-walk reference.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bindings import right_biased_union
from repro.core.intern import intern, intern_stats, is_interned
from repro.core.matching import match
from repro.core.rules import Rule, RuleList
from repro.core.substitution import subst
from repro.core.terms import (
    BodyTag,
    Const,
    Node,
    PList,
    PVar,
    Tagged,
    free_names,
    subterms,
    untagged,
)
from repro.engine.registry import get_backend
from repro.lambdacore.substitute import BINDERS as LAMBDA_BINDERS
from repro.lambdacore.substitute import Assigned
from repro.lambdacore.substitute import substitute as lambda_substitute
from repro.pyretcore.semantics import BINDERS as PYRET_BINDERS
from repro.pyretcore.semantics import substitute as pyret_substitute

PROGRAMS = {
    "lambda": (
        "(or (not #t) (and #t #f) (let ((x 1) (y 2)) (+ x y)))",
        "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) (f 3))",
        "(cond ((zero? 1) 2) (else (or #f #t)))",
    ),
    "pyret": (
        "(1 < 2) and (false or (2 < 3))",
        "fun apply2(f, v): f(v) end for apply2(x from 10): x + 5 end",
        "if 1 > 2: 1 else if 2 > 1: 2 else: 3 end",
        "fun len(x): cases(List) x: | empty() => 0 | link(f, tail) => "
        "len(tail) + 1 end end len([1, 2])",
    ),
}


def _sugar_nodes(rules, term):
    return [
        s for s in subterms(term)
        if isinstance(s, Node) and rules.rewrites_label(s.label)
    ]


def test_expand_and_unexpand_build_canonical_instances():
    checked = 0
    for name, sources in PROGRAMS.items():
        backend = get_backend(name)
        rules = backend.make_rules(None)
        for source in sources:
            for node in _sugar_nodes(rules, intern(backend.parse(source))):
                expansion = rules.expand(node)
                if expansion is None:
                    continue
                rule = rules.rules[expansion.index]
                sigma = match(node, rule.lhs, see_through_tags=True)
                assert is_interned(expansion.term)
                assert expansion.term == subst(sigma, rule.tagged_rhs)
                back = rules.unexpand(
                    expansion.index, expansion.term, expansion.stand_in
                )
                merged = right_biased_union(
                    dict(expansion.stand_in),
                    match(
                        expansion.term, rule.tagged_rhs,
                        lenient_pattern_tags=True,
                    ),
                )
                assert is_interned(back)
                assert back == subst(merged, rule.lhs) == node
                checked += 1
    assert checked >= 10


SWAP = RuleList([Rule(Node("Foo", (PVar("a"), PVar("b"))), Node("Bar", (PVar("b"), PVar("a"))))])


def test_a_non_ground_binding_falls_back_without_interning():
    term = Node("Foo", (PVar("p"), Node("Id", (Const("q"),))))
    before = intern_stats()["size"]
    expansion = SWAP.expand(term)
    assert intern_stats()["size"] == before
    assert not is_interned(expansion.term)
    sigma = match(term, SWAP.rules[0].lhs, see_through_tags=True)
    assert expansion.term == subst(sigma, SWAP.rules[0].tagged_rhs)
    back = SWAP.unexpand(0, expansion.term)
    assert intern_stats()["size"] == before
    assert back == term


def test_a_non_canonical_stand_in_falls_back():
    rules = RuleList([Rule(Node("Foo", (PVar("a"), PVar("b"))), Node("Bar", (PVar("a"),)))])
    inner = intern(Tagged(BodyTag(), Node("Bar", (Const(1),))))
    stand_in = (("b", Node("Id", (Const("b"),))),)  # never interned
    back = rules.unexpand(0, inner, stand_in)
    assert not is_interned(back)
    assert back == Node("Foo", (Const(1), Node("Id", (Const("b"),))))


# --- β: skipping equals the full walk ----------------------------------

NAMES = ("x", "y", "z")


def _reference_lambda(term, name, value):
    """The full walk ``substitute`` made before it could skip."""
    if isinstance(term, Tagged):
        if _is_ref(untagged(term), name):
            return value
        inner = _reference_lambda(term.term, name, value)
        return term if inner is term.term else Tagged(term.tag, inner)
    if isinstance(term, Node):
        if _is_ref(term, name):
            return value
        target = untagged(term.children[0]) if term.children else None
        if term.label == "Set" and target == Const(name):
            raise Assigned(name)
        if term.label == "Lam" and target == Const(name):
            return term
        children = tuple(_reference_lambda(c, name, value) for c in term.children)
        if all(a is b for a, b in zip(children, term.children)):
            return term
        return Node(term.label, children)
    if isinstance(term, PList):
        items = tuple(_reference_lambda(c, name, value) for c in term.items)
        if all(a is b for a, b in zip(items, term.items)):
            return term
        return PList(items)
    return term


def _reference_pyret(term, name, value):
    if isinstance(term, Tagged):
        if _is_ref(untagged(term), name):
            return value
        inner = _reference_pyret(term.term, name, value)
        return term if inner is term.term else Tagged(term.tag, inner)
    if isinstance(term, Node):
        if _is_ref(term, name):
            return value
        if term.label == "Lam" and Const(name) in map(
            untagged, untagged(term.children[0]).items
        ):
            return term
        if term.label in ("Let", "DefRec") and untagged(term.children[0]) == Const(name):
            rhs = _reference_pyret(term.children[1], name, value)
            if rhs is term.children[1]:
                return term
            return Node(term.label, (term.children[0], rhs, term.children[2]))
        children = tuple(_reference_pyret(c, name, value) for c in term.children)
        if all(a is b for a, b in zip(children, term.children)):
            return term
        return Node(term.label, children)
    if isinstance(term, PList):
        items = tuple(_reference_pyret(c, name, value) for c in term.items)
        if all(a is b for a, b in zip(items, term.items)):
            return term
        return PList(items)
    return term


def _is_ref(bare, name):
    return (
        isinstance(bare, Node)
        and bare.label == "Id"
        and len(bare.children) == 1
        and untagged(bare.children[0]) == Const(name)
    )


def _tagged(strategy):
    return st.one_of(strategy, strategy.map(lambda t: Tagged(BodyTag(), t)))


_name = st.sampled_from(NAMES).map(Const)
_ids = _tagged(_name.map(lambda c: Node("Id", (c,))))
_leaves = st.one_of(_ids, st.integers(0, 3).map(Const), _name)


def _lambda_nodes(children):
    return _tagged(st.one_of(
        st.tuples(_name, children).map(lambda p: Node("Lam", p)),
        st.tuples(_name, children).map(lambda p: Node("Set", p)),
        st.tuples(children, children).map(lambda p: Node("App", p)),
        st.lists(children, max_size=3).map(lambda xs: Node("Seq", (PList(tuple(xs)),))),
    ))


def _pyret_nodes(children):
    return _tagged(st.one_of(
        st.tuples(st.lists(_name, max_size=2), children).map(
            lambda p: Node("Lam", (PList(tuple(p[0])), p[1]))
        ),
        st.tuples(st.sampled_from(["Let", "DefRec"]), _name, children, children).map(
            lambda p: Node(p[0], p[1:])
        ),
        st.tuples(children, st.lists(children, max_size=3)).map(
            lambda p: Node("App", (p[0], PList(tuple(p[1]))))
        ),
    ))


lambda_terms = st.recursive(_leaves, _lambda_nodes, max_leaves=12)
pyret_terms = st.recursive(_leaves, _pyret_nodes, max_leaves=12)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Assigned as exc:
        return ("Assigned", str(exc))


def _check_beta(substitute, reference, binders, term, name, value, canonical):
    if canonical:
        term, value = intern(term), intern(value)
    expected = _outcome(reference, term, name, value)
    got = _outcome(substitute, term, name, value)
    assert got == expected
    if isinstance(got, tuple):
        return
    if name not in free_names(term, binders):
        assert got is term
    if canonical:
        assert is_interned(got)


@settings(max_examples=300, deadline=None)
@given(
    term=lambda_terms, name=st.sampled_from(NAMES), value=lambda_terms,
    canonical=st.booleans(),
)
def test_lambda_beta_skips_like_the_full_walk(term, name, value, canonical):
    _check_beta(
        lambda_substitute, _reference_lambda, LAMBDA_BINDERS,
        term, name, value, canonical,
    )


@settings(max_examples=300, deadline=None)
@given(
    term=pyret_terms, name=st.sampled_from(NAMES), value=pyret_terms,
    canonical=st.booleans(),
)
def test_pyret_beta_skips_like_the_full_walk(term, name, value, canonical):
    _check_beta(
        pyret_substitute, _reference_pyret, PYRET_BINDERS,
        term, name, value, canonical,
    )


def test_names_are_cached_and_shared():
    """Free names are cached per node and binder table; a parent shares
    its child's set, and a binder removes its own name."""
    leaf = Node("Id", (Const("x"),))
    term = Node("App", (leaf, Node("Num", (Const(1),))))
    assert free_names(term, LAMBDA_BINDERS) == {"x"}
    assert term._free[1] is leaf._free[1]  # the parent shares its child's set
    assert free_names(Const(True), LAMBDA_BINDERS) == frozenset()
    lam = Node("Lam", (Const("x"), Node("App", (leaf, Node("Id", (Const("y"),))))))
    assert free_names(lam, LAMBDA_BINDERS) == {"y"}
    # A shadowed binder prunes β: the whole lambda comes back as it is.
    assert lambda_substitute(lam, "x", Const(1)) is lam
    # The cache is per table: Pyret's Let binds in its body only.
    let = Node("Let", (Const("x"), leaf, leaf))
    assert free_names(let, PYRET_BINDERS) == {"x"}
    assert free_names(Node("Let", (Const("x"), Const(1), leaf)), PYRET_BINDERS) == set()
