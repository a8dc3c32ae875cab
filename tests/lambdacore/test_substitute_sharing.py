"""Substitution keeps every subterm it does not rewrite as the same object.

Interning (:mod:`repro.core.intern`) stops at the first canonical
subterm it meets, so a contractum that shares its untouched parts with
the redex body re-interns in O(rewritten spine), and the resugar,
desugar and skeleton memos keep hitting on those parts.  These tests pin
that sharing with ``is``.
"""

from repro.core.intern import intern, intern_stats
from repro.core.terms import BodyTag, Node, Tagged
from repro.lambdacore import num, parse_program
from repro.lambdacore.substitute import (
    substitute,
    substitute_assigned,
    substitute_boxed,
)

OPEN_IN_Y = "(lambda (y) (+ y (f (g (lambda (z) (z 1))))))"


def test_name_not_free_returns_the_input():
    term = parse_program(OPEN_IN_Y)
    assert substitute(term, "x", num(5)) is term
    assert substitute_boxed(term, "x", Node("Loc", (num(0),))) is term
    assert substitute_assigned(term, "x", "x'") is term


def test_shadowed_name_returns_the_input():
    term = parse_program("(lambda (x) (+ x 1))")
    assert substitute(term, "x", num(5)) is term


def test_tagged_subterm_without_the_name_is_kept():
    term = Tagged(BodyTag(), parse_program("(+ y 1)"))
    assert substitute(term, "x", num(5)) is term


def test_beta_contractum_shares_every_untouched_subterm():
    # ((lambda (x) (+ x (k big))) 5): only the spine down to x changes.
    redex = parse_program(f"((lambda (x) (+ x (k {OPEN_IN_Y}))) 5)")
    lam, arg = redex.children
    body = lam.children[1]
    contractum = substitute(body, "x", arg)
    assert contractum is not body
    assert contractum == parse_program(f"(+ 5 (k {OPEN_IN_Y}))")
    # Op("+", PList(x, (k big))): the second operand never mentions x.
    untouched = body.children[1].items[1]
    assert contractum.children[1].items[1] is untouched
    assert contractum.children[1].items[0] is arg


def test_reinterning_a_contractum_stops_at_canonical_subterms():
    redex = intern(parse_program(f"((lambda (x) (+ x (k {OPEN_IN_Y}))) 5)"))
    lam, arg = redex.children
    contractum = substitute(lam.children[1], "x", arg)
    before = intern_stats()
    canonical = intern(contractum)
    after = intern_stats()
    assert canonical.children[1].items[1] is lam.children[1].children[1].items[1]
    # Only the rebuilt spine is probed: no walk into the shared parts.
    assert after["hits"] - before["hits"] <= 1
