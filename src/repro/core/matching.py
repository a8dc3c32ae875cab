"""Matching a term against a pattern (Figure 3, left column).

``match(T, P)`` implements the paper's ``T / P``: it returns an
environment binding the pattern's variables when the match succeeds and
``None`` when it fails.  The paper writes ``T >= P`` for "``T / P`` is
defined"; that is :func:`matches` here.

The interesting case is the ellipsis: matching ``(T1 ... Tn+k)`` against
``(P1 ... Pn Pe*)`` matches the fixed prefix pairwise and then matches
each of the ``k`` remaining elements against ``Pe``, *merging* the
resulting environments into list bindings (one item per repetition).
When ``Pe`` is a bare variable, the ``k`` elements are its list binding
as they stand, with no per-repetition environments.

Tags and matching.  Body tags are literally part of RHS patterns
(section 5.2.1), so by default a tagged term only matches a tagged
pattern with an equal tag.  Two relaxations are needed in practice:

* During *expansion*, the term being matched against a rule's (tag-free)
  LHS may contain tags on subterms that earlier expansions introduced;
  ``see_through_tags=True`` makes constant, node, and list patterns
  ignore tags on the term.
* During *unexpansion*, ``lenient_pattern_tags=True`` lets a body tag in
  the *pattern* match an untagged term.  This is required for recursive
  sugar (the multi-arm ``Or`` of section 3.4): the RHS's recursive
  invocation is expanded by another rule, which consumes the body tags
  on its argument structure, and the inner unexpansion reconstructs a
  clean surface term there.  Abstraction is unaffected — it is enforced
  by the final opaque-tag check on the resugared term, not by match
  strictness — but the strict reading of Theorem 4's proof weakens to
  "terms matching the RHS's concrete structure", the same relaxation the
  paper itself accepts for body tags not recording rule identity.

Pattern variables always capture the term *with* its tags, preserving
origin information.

Matching is compiled: :func:`compile_match` turns a pattern and its two
flags into a closure that fills one environment, deciding the pattern's
shape once instead of at every node of every match.  :func:`match` and
:func:`matches` run through it (rule lists keep their rules' compiled
forms, :class:`~repro.core.rules.RuleList`); :func:`match_explain` is
Figure 3 written out as an interpreter, kept as the oracle the compiled
matchers are tested against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Optional, Tuple

from repro.core.bindings import Binding, Env, ListBinding, merge
from repro.obs import _state as _obs
from repro.obs.metrics import MATCH_ATTEMPTS, MATCH_SUCCESSES
from repro.core.terms import (
    BodyTag,
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
    pattern_variables,
)

__all__ = ["match", "matches", "match_explain", "compile_match"]

# A compiled pattern: ``fill(term, env)`` matches ``term``, adding the
# bindings to ``env`` (which must start empty), and says whether it
# matched.  On failure ``env`` holds partial bindings; discard it.
Matcher = Callable[[Pattern, Env], bool]


def match(
    term: Pattern,
    pattern: Pattern,
    see_through_tags: bool = False,
    lenient_pattern_tags: bool = False,
) -> Optional[Env]:
    """Match ``term`` against ``pattern``; return bindings or ``None``.

    ``term`` must be a term (no variables or ellipses); this is not
    re-checked on every call for speed, but variables in the term position
    will simply never match anything except a pattern variable.
    """
    env: Env = {}
    ok = compile_match(pattern, see_through_tags, lenient_pattern_tags)(term, env)
    if _obs.enabled:
        MATCH_ATTEMPTS.inc()
        if ok:
            MATCH_SUCCESSES.inc()
    return env if ok else None


def matches(
    term: Pattern,
    pattern: Pattern,
    see_through_tags: bool = False,
    lenient_pattern_tags: bool = False,
) -> bool:
    """The paper's ``T >= P``: does ``term`` match ``pattern``?"""
    result = compile_match(pattern, see_through_tags, lenient_pattern_tags)(
        term, {}
    )
    if _obs.enabled:
        MATCH_ATTEMPTS.inc()
        if result:
            MATCH_SUCCESSES.inc()
    return result


def match_explain(
    term: Pattern,
    pattern: Pattern,
    see_through_tags: bool = False,
    lenient_pattern_tags: bool = False,
) -> "Tuple[Optional[Env], Optional[str], Optional[str]]":
    """Like :func:`match`, but diagnose failures: returns
    ``(env, fail_path, fail_reason)``.

    On success ``env`` is the bindings and the other two are ``None``;
    on failure ``env`` is ``None``, ``fail_path`` is a ``/``-separated
    path into the *pattern* locating the innermost mismatch (e.g.
    ``"If.0/Tag"``, empty string for a root mismatch) and
    ``fail_reason`` says what went wrong there.  This is the slow,
    allocation-happy sibling of :func:`match`, used only by the
    provenance layer (:mod:`repro.obs.provenance`) to explain *why* an
    unexpansion failed — never on the hot path, and it moves no
    counters.
    """
    path: list = []
    reason: list = []

    def fail(at: "Tuple[str, ...]", why: str) -> None:
        # Keep the *deepest* diagnosis: an inner mismatch is the cause,
        # the outer failures are its consequences.
        if len(at) >= len(path) or not reason:
            path[:] = at
            reason[:] = [why]

    def walk(t: Pattern, p: Pattern, at: "Tuple[str, ...]", see: bool,
             lenient: bool) -> Optional[Env]:
        if isinstance(p, PVar):
            return {p.name: t}
        if isinstance(p, Tagged):
            if isinstance(t, Tagged) and t.tag == p.tag:
                return walk(t.term, p.term, at + ("Tag",), see, lenient)
            if lenient and isinstance(p.tag, BodyTag):
                return walk(t, p.term, at, see, lenient)
            fail(at, (
                f"pattern expects tag {p.tag!r} but term is {_describe(t)}"
            ))
            return None
        if isinstance(t, Tagged):
            if see:
                return walk(t.term, p, at, see, lenient)
            fail(at, (
                f"term carries tag {t.tag!r} the pattern does not mention"
            ))
            return None
        if isinstance(p, Const):
            if isinstance(t, Const) and t == p:
                return {}
            fail(at, f"expected constant {p!r}, term is {_describe(t)}")
            return None
        if isinstance(p, Node):
            if not isinstance(t, Node):
                fail(at, f"expected node {p.label!r}, term is {_describe(t)}")
                return None
            if t.label != p.label:
                fail(at, f"expected node {p.label!r}, term is node {t.label!r}")
                return None
            if len(t.children) != len(p.children):
                fail(at, (
                    f"node {p.label!r} arity mismatch: pattern has "
                    f"{len(p.children)} children, term has {len(t.children)}"
                ))
                return None
            out: Env = {}
            for i, (tc, pc) in enumerate(zip(t.children, p.children)):
                sub = walk(tc, pc, at + (f"{p.label}.{i}",), see, lenient)
                if sub is None:
                    return None
                if _union(out, sub) is None:
                    fail(at + (f"{p.label}.{i}",),
                         "conflicting duplicate variable bindings")
                    return None
            return out
        if isinstance(p, PList):
            if not isinstance(t, PList) or t.ellipsis is not None:
                fail(at, f"expected list, term is {_describe(t)}")
                return None
            n = len(p.items)
            if p.ellipsis is None and len(t.items) != n:
                fail(at, (
                    f"list length mismatch: pattern has {n} items, "
                    f"term has {len(t.items)}"
                ))
                return None
            if p.ellipsis is not None and len(t.items) < n:
                fail(at, (
                    f"list too short: pattern needs at least {n} items, "
                    f"term has {len(t.items)}"
                ))
                return None
            out = {}
            for i, (ti, pi) in enumerate(zip(t.items[:n], p.items)):
                sub = walk(ti, pi, at + (f"[{i}]",), see, lenient)
                if sub is None:
                    return None
                if _union(out, sub) is None:
                    fail(at + (f"[{i}]",),
                         "conflicting duplicate variable bindings")
                    return None
            if p.ellipsis is not None:
                rep_envs = []
                for i, ti in enumerate(t.items[n:], start=n):
                    sub = walk(ti, p.ellipsis, at + (f"[{i}]",), see, lenient)
                    if sub is None:
                        return None
                    rep_envs.append(sub)
                ell_vars = dict.fromkeys(pattern_variables(p.ellipsis))
                merged = merge(rep_envs, ell_vars)
                if _union(out, merged) is None:
                    fail(at, "conflicting ellipsis variable bindings")
                    return None
            return out
        fail(at, f"unmatchable pattern {_describe(p)}")
        return None

    env = walk(term, pattern, (), see_through_tags, lenient_pattern_tags)
    if env is not None:
        return env, None, None
    return None, "/".join(path), reason[0] if reason else "mismatch"


def _describe(t: Pattern) -> str:
    """A one-phrase description of a term's outermost shape."""
    if isinstance(t, Const):
        return f"constant {t!r}"
    if isinstance(t, Node):
        return f"node {t.label!r}"
    if isinstance(t, PList):
        return f"list of {len(t.items)}"
    if isinstance(t, Tagged):
        return f"tagged term ({t.tag!r})"
    if isinstance(t, PVar):
        return f"variable {t.name!r}"
    return repr(t)


def _union(sigma1: Env, sigma2: Mapping[str, Binding]) -> Optional[Env]:
    """Union of sibling match environments; ``None`` on conflicting
    duplicate bindings (the match as a whole then fails).

    Duplicate variables only pass well-formedness when declared atomic
    (criterion 2's exception), so agreeing duplicates — e.g. Letrec's
    binding names, which appear both in the initialization list and the
    assignment sequence of its RHS — simply require equal bindings.
    """
    for name, b in sigma2.items():
        if name in sigma1:
            if sigma1[name] != b:
                return None
        sigma1[name] = b
    return sigma1


@lru_cache(maxsize=1024)
def compile_match(
    pattern: Pattern,
    see_through_tags: bool = False,
    lenient_pattern_tags: bool = False,
) -> Matcher:
    """Compile ``pattern`` under the two flags into a :data:`Matcher`.

    The closures dispatch on the pattern's shape once, here, instead of
    at every node of every match.  A variable's first occurrence in
    matching order binds; a later one (an atomic duplicate, criterion
    2's exception) must rebind an equal term, the check :func:`_union`
    makes on sibling environments.  Compiled forms are cached per
    ``(pattern, flags)``.
    """
    return _compile(pattern, see_through_tags, lenient_pattern_tags, set())


def _compile(p: Pattern, see: bool, lenient: bool, bound: set) -> Matcher:
    """The matcher of ``p``; ``bound`` holds the variables bound before
    ``p`` is reached, and gains ``p``'s own."""
    cls = p.__class__
    # T / x = {x -> T}: variables capture the term, tags included.
    if cls is PVar:
        return _var(p.name, bound)

    if cls is Tagged:
        tag = p.tag
        inner = _compile(p.term, see, lenient, bound)
        if lenient and isinstance(tag, BodyTag):
            # A body tag in the pattern may match an untagged term.
            def fill(t, env):
                if t.__class__ is Tagged and t.tag == tag:
                    return inner(t.term, env)
                return inner(t, env)
        else:
            def fill(t, env):
                return t.__class__ is Tagged and t.tag == tag and inner(t.term, env)
        return fill

    # The pattern is a constant, node, or list.  A tagged term matches it
    # only in see-through mode (expansion-time LHS matching).
    if cls is Const:
        def fill(t, env):
            if t.__class__ is Tagged:
                if not see:
                    return False
                while t.__class__ is Tagged:
                    t = t.term
            return t.__class__ is Const and t == p
        return fill

    if cls is Node:
        label, arity = p.label, len(p.children)
        check = _sequence(p.children, see, lenient, bound)

        def fill(t, env):
            if t.__class__ is not Node:
                if not see or t.__class__ is not Tagged:
                    return False
                while t.__class__ is Tagged:
                    t = t.term
                if t.__class__ is not Node:
                    return False
            children = t.children
            return (
                t.label == label
                and len(children) == arity
                and check(children, env)
            )
        return fill

    if cls is PList:
        n = len(p.items)
        prefix = _sequence(p.items, see, lenient, bound)
        ellipsis = p.ellipsis
        if ellipsis is None:
            def rest(items, env):
                return True
        elif ellipsis.__class__ is PVar:
            # A bare repeated variable: the rest of the list is its binding.
            rest_var = _var(ellipsis.name, bound)

            def rest(items, env):
                return rest_var(ListBinding(items[n:]), env)
        else:
            repeat = _compile(ellipsis, see, lenient, set())
            names = tuple(dict.fromkeys(pattern_variables(ellipsis)))
            binders = tuple(_var(name, bound) for name in names)

            def rest(items, env):
                reps = []
                for item in items[n:]:
                    sub: Env = {}
                    if not repeat(item, sub):
                        return False
                    reps.append(sub)
                for name, bind in zip(names, binders):
                    if not bind(ListBinding(tuple([r[name] for r in reps])), env):
                        return False
                return True

        exact = ellipsis is None

        def fill(t, env):
            if t.__class__ is not PList:
                if not see or t.__class__ is not Tagged:
                    return False
                while t.__class__ is Tagged:
                    t = t.term
                if t.__class__ is not PList:
                    return False
            if t.ellipsis is not None:
                return False
            items = t.items
            if len(items) < n or exact and len(items) != n:
                return False
            return prefix(items, env) and rest(items, env)
        return fill

    def fill(t, env):
        return False
    return fill


def _var(name: str, bound: set) -> Matcher:
    """Bind ``name``, or check an earlier binding of it is equal."""
    if name in bound:
        def fill(t, env):
            return env[name] == t
    else:
        bound.add(name)

        def fill(t, env):
            env[name] = t
            return True
    return fill


def _sequence(parts, see: bool, lenient: bool, bound: set):
    """A checker ``(terms, env) -> bool`` matching ``terms`` pairwise
    against ``parts`` (the caller checks the length).  Variables bind
    straight from the term tuple; the other parts run their matchers
    after them."""
    binds = []
    checks = []
    for i, part in enumerate(parts):
        if part.__class__ is PVar and part.name not in bound:
            binds.append((part.name, i))
            bound.add(part.name)
        else:
            checks.append((i, part))
    if not checks:
        names = tuple(name for name, _i in binds)

        def check(terms, env):
            env.update(zip(names, terms))
            return True
        return check
    slots = tuple(binds)
    compiled = tuple(
        (i, _compile(part, see, lenient, bound)) for i, part in checks
    )

    def check(terms, env):
        for name, i in slots:
            env[name] = terms[i]
        for i, fill in compiled:
            if not fill(terms[i], env):
                return False
        return True
    return check
