"""Patterns for reduction semantics: core patterns plus nonterminals.

The paper's section 8.1 builds its evaluation substrate in PLT Redex;
this package is our from-scratch equivalent.  Redex patterns extend the
core pattern language (Figure 1) with two forms Redex needs:

* :class:`NTRef` — a reference to a grammar nonterminal, optionally
  binding the matched term (Redex's ``e_1``, ``v_x`` convention);
* :class:`AtomPred` — a predicate over atomic constants (number, string,
  boolean, symbol), standing in for Redex's built-in ``number`` etc.

Matching (:func:`redex_match`) mirrors core matching but *always* sees
through tags on the term: reduction is the object language's business and
origin tags must never block it (Definition 4: terms maintain their
origin through evaluation — which also means pattern variables capture
terms with tags intact, so captured subterms keep their origins).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Number
from typing import TYPE_CHECKING, Optional

from repro.core.bindings import Env, merge
from repro.core.errors import PatternError
from repro.core.terms import (
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Symbol,
    Tagged,
    pattern_variables as core_pattern_variables,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.redex.grammar import Grammar

__all__ = [
    "NTRef",
    "AtomPred",
    "redex_match",
    "compile_redex_match",
    "strip_outer_tags",
]


@dataclass(frozen=True, slots=True)
class NTRef(Pattern):
    """A grammar-nonterminal reference, e.g. ``NTRef("e", "body")``.

    Matches any term the grammar derives from ``nonterminal``; when
    ``name`` is given, the matched term is bound to it (Redex's
    subscript convention, ``e_body``).
    """

    nonterminal: str
    name: Optional[str] = None

    def __repr__(self) -> str:
        if self.name:
            return f"NTRef({self.nonterminal!r}, {self.name!r})"
        return f"NTRef({self.nonterminal!r})"


_ATOM_KINDS = ("number", "integer", "string", "boolean", "symbol", "atom")


@dataclass(frozen=True, slots=True)
class AtomPred(Pattern):
    """A predicate over constants: ``AtomPred("number", "n")`` matches any
    numeric constant and binds it to ``n``."""

    kind: str
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _ATOM_KINDS:
            raise PatternError(
                f"unknown atom predicate {self.kind!r}; choose from {_ATOM_KINDS}"
            )

    def accepts(self, term: Pattern) -> bool:
        if not isinstance(term, Const):
            return False
        v = term.value
        if self.kind == "number":
            return isinstance(v, Number) and not isinstance(v, bool)
        if self.kind == "integer":
            return isinstance(v, int) and not isinstance(v, bool)
        if self.kind == "string":
            return isinstance(v, str)
        if self.kind == "boolean":
            return isinstance(v, bool)
        if self.kind == "symbol":
            return isinstance(v, Symbol)
        return True  # "atom"

    def __repr__(self) -> str:
        if self.name:
            return f"AtomPred({self.kind!r}, {self.name!r})"
        return f"AtomPred({self.kind!r})"


def strip_outer_tags(t: Pattern) -> Pattern:
    """Remove tags wrapped around the outside of ``t`` (inner tags stay)."""
    while isinstance(t, Tagged):
        t = t.term
    return t


def _tag_wrapper(redex: Pattern):
    """A function rewrapping a contractum in ``redex``'s outer tags."""
    tags = []
    while isinstance(redex, Tagged):
        tags.append(redex.tag)
        redex = redex.term
    if not tags:
        return None

    def rewrap(term: Pattern) -> Pattern:
        for tag in reversed(tags):
            term = Tagged(tag, term)
        return term

    return rewrap


def redex_match(
    term: Pattern, pattern: Pattern, grammar: "Grammar"
) -> Optional[Env]:
    """Match ``term`` against a redex pattern, consulting ``grammar`` for
    nonterminal references.  Tags on the term are transparent; pattern
    variables and nonterminal bindings capture the *tagged* term."""
    env: Env = {}
    return env if compile_redex_match(pattern, grammar)(term, env) else None


@lru_cache(maxsize=1024)
def compile_redex_match(pattern: Pattern, grammar: "Grammar"):
    """Compile a redex pattern into ``fill(term, env) -> bool``, which
    matches ``term`` and adds the bindings to ``env``, as
    :func:`redex_match` does.  A variable bound twice keeps its last
    binding.  Cached per ``(pattern, grammar)``; reduction semantics
    keep their rules' compiled matchers
    (:class:`~repro.redex.reduction.ReductionSemantics`)."""
    cls = pattern.__class__
    if cls is PVar:
        name = pattern.name

        def fill(t, env):
            env[name] = t
            return True
        return fill
    if cls is NTRef:
        nonterminal, name, derives = (
            pattern.nonterminal, pattern.name, grammar.matches
        )

        def fill(t, env):
            if not derives(t, nonterminal):
                return False
            if name:
                env[name] = t
            return True
        return fill
    if cls is AtomPred:
        name, accepts = pattern.name, pattern.accepts

        def fill(t, env):
            while t.__class__ is Tagged:
                t = t.term
            if not accepts(t):
                return False
            if name:
                env[name] = t
            return True
        return fill

    if cls is Const:
        def fill(t, env):
            while t.__class__ is Tagged:
                t = t.term
            return t.__class__ is Const and t == pattern
        return fill

    if cls is Node:
        label, arity = pattern.label, len(pattern.children)
        kids = tuple(compile_redex_match(c, grammar) for c in pattern.children)

        def fill(t, env):
            while t.__class__ is Tagged:
                t = t.term
            if t.__class__ is not Node or t.label != label:
                return False
            children = t.children
            if len(children) != arity:
                return False
            for kid, child in zip(kids, children):
                if not kid(child, env):
                    return False
            return True
        return fill

    if cls is PList:
        n = len(pattern.items)
        kids = tuple(compile_redex_match(c, grammar) for c in pattern.items)
        ellipsis = pattern.ellipsis
        if ellipsis is not None:
            repeat = compile_redex_match(ellipsis, grammar)
            names = _ellipsis_variables(ellipsis)
        else:
            repeat = names = None

        def fill(t, env):
            while t.__class__ is Tagged:
                t = t.term
            if t.__class__ is not PList or t.ellipsis is not None:
                return False
            items = t.items
            if len(items) < n or ellipsis is None and len(items) != n:
                return False
            for kid, item in zip(kids, items):
                if not kid(item, env):
                    return False
            if ellipsis is not None:
                reps = []
                for item in items[n:]:
                    sub: Env = {}
                    if not repeat(item, sub):
                        return False
                    reps.append(sub)
                env.update(merge(reps, names))
            return True
        return fill

    if cls is Tagged:
        # Reduction-rule patterns are tag-free by construction; accept a
        # tagged pattern defensively by ignoring the tag.
        return compile_redex_match(pattern.term, grammar)

    def fill(t, env):
        raise PatternError(f"not a redex pattern: {pattern!r}")
    return fill


def _ellipsis_variables(pattern: Pattern) -> tuple:
    names = list(core_pattern_variables(_erase_extensions(pattern)))
    return tuple(dict.fromkeys(names))


def _erase_extensions(pattern: Pattern) -> Pattern:
    """Rewrite NTRef/AtomPred into plain variables or throwaway constants
    so core helpers (pattern_variables) can traverse the pattern."""
    if isinstance(pattern, NTRef) or isinstance(pattern, AtomPred):
        return PVar(pattern.name) if pattern.name else Const(0)
    if isinstance(pattern, Node):
        return Node(pattern.label, tuple(_erase_extensions(c) for c in pattern.children))
    if isinstance(pattern, PList):
        ell = (
            _erase_extensions(pattern.ellipsis)
            if pattern.ellipsis is not None
            else None
        )
        return PList(tuple(_erase_extensions(c) for c in pattern.items), ell)
    if isinstance(pattern, Tagged):
        return _erase_extensions(pattern.term)
    return pattern
