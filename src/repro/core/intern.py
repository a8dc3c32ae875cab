"""Hash-consing for terms: canonical, pointer-identical representatives.

Evaluation produces long sequences of core terms that differ only along
the spine the last reduction rewrote; resugaring, emulation checking,
dedup, and memo tables all repeatedly hash and compare the unchanged
remainder.  Interning collapses that cost: :func:`intern` maps every
ground term to a *canonical* object such that structurally equal terms
become pointer-identical.  Downstream caches (notably
:class:`repro.core.incremental.ResugarCache`) can then key on object
identity, and ``==`` between two interned terms is a single ``is`` check.

Mechanics
---------

Each recursive term class carries an ``_interned`` slot holding the
interning *generation* under which the object was canonicalized (``None``
when it never was).  :func:`intern` walks bottom-up, short-circuiting at
subterms already stamped with the current generation — so re-interning a
term after a single reduction step costs O(rewritten spine), not O(size).

Canonical objects are kept alive by the intern table, so their ``id`` is
stable and may be used inside table keys.  :func:`clear_intern_caches`
drops the table and bumps the generation, which atomically invalidates
every outstanding ``_interned`` stamp (stale canonical objects can never
be confused with ones from the new generation).

Only *ground* terms are interned.  Patterns containing :class:`PVar`,
ellipses, or redex extensions (``NTRef``/``AtomPred``) pass through
unchanged: their subterm identity is not meaningful across rule
applications, and keying the table on short-lived objects would risk
``id`` reuse after garbage collection.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

from repro.core.terms import Const, Node, Pattern, PList, Tagged

__all__ = [
    "intern",
    "intern_node",
    "intern_plist",
    "intern_tagged",
    "is_interned",
    "intern_stats",
    "clear_intern_caches",
    "intern_generation",
    "Builders",
    "PLAIN",
    "CANONICAL",
]

# ---------------------------------------------------------------------------
# Pickle reconstructors.
#
# Terms cross process boundaries (repro.parallel ships programs to pool
# workers and results back), but a default-unpickled term would be a
# *private* object: structurally equal to, yet not pointer-identical
# with, the receiving process's canonical representative — silently
# breaking every identity-keyed cache downstream.  The term classes'
# ``__reduce__`` therefore routes through these reconstructors, which
# rebuild the term and immediately re-intern it against the *local*
# table.  Children unpickle (and re-intern) before their parent, so each
# reconstruction is a single table probe, not a walk.  Non-ground
# patterns pass through :func:`intern` unchanged, exactly as live ones
# do.
# ---------------------------------------------------------------------------


def _unpickle_const(value):
    return _intern(Const(value))


def _unpickle_node(label, children):
    return _intern(Node(label, children))


def _unpickle_plist(items, ellipsis):
    return _intern(PList(items, ellipsis))


def _unpickle_tagged(tag, term):
    return _intern(Tagged(tag, term))

_TABLE: Dict[tuple, Pattern] = {}
_GENERATION: int = 1  # generation stamps are always truthy ints
_HITS: int = 0
_MISSES: int = 0


def intern_generation() -> int:
    """The current interning generation (bumped by cache clears)."""
    return _GENERATION


def is_interned(term: Pattern) -> bool:
    """Is ``term`` the canonical representative under the current
    generation?"""
    return getattr(term, "_interned", None) == _GENERATION


def intern(term: Pattern) -> Pattern:
    """Return the canonical representative of ``term``.

    Structurally equal ground terms intern to the same object; the result
    compares equal to the argument.  Non-ground patterns are returned
    unchanged (subtrees of them that are ground are still shared).
    """
    return _intern(term)


def _intern(t: Pattern) -> Pattern:
    # The hottest function in the engine: every memoized walk in
    # ResugarCache funnels its rebuilds through here.  Child stamps are
    # checked inline before recursing so an already-canonical child costs
    # one getattr, not a function call.
    global _HITS
    gen = _GENERATION
    if getattr(t, "_interned", None) == gen:
        _HITS += 1
        return t
    cls = t.__class__

    if cls is Const:
        key = ("c", type(t.value).__name__, t.value)
        found = _TABLE.get(key)
        if found is not None:
            _HITS += 1
            return found
        return _store(key, t)

    if cls is Node:
        children = t.children
        rebuilt = None
        for i, c in enumerate(children):
            if getattr(c, "_interned", None) != gen:
                ic = _intern(c)
                if getattr(ic, "_interned", None) != gen:
                    return t  # pattern-only form below; leave as-is
                if ic is not c and rebuilt is None:
                    rebuilt = list(children[:i])
                c = ic
            if rebuilt is not None:
                rebuilt.append(c)
        if rebuilt is not None:
            children = tuple(rebuilt)
        key = ("n", t.label, *map(id, children))
        found = _TABLE.get(key)
        if found is not None:
            _HITS += 1
            return found
        canon = t if rebuilt is None else Node(t.label, children)
        return _store(key, canon)

    if cls is PList:
        if t.ellipsis is not None:
            return t  # an ellipsis pattern, never a ground term
        items = t.items
        rebuilt = None
        for i, c in enumerate(items):
            if getattr(c, "_interned", None) != gen:
                ic = _intern(c)
                if getattr(ic, "_interned", None) != gen:
                    return t
                if ic is not c and rebuilt is None:
                    rebuilt = list(items[:i])
                c = ic
            if rebuilt is not None:
                rebuilt.append(c)
        if rebuilt is not None:
            items = tuple(rebuilt)
        key = ("l", *map(id, items))
        found = _TABLE.get(key)
        if found is not None:
            _HITS += 1
            return found
        canon = t if rebuilt is None else PList(items)
        return _store(key, canon)

    if cls is Tagged:
        inner = t.term
        if getattr(inner, "_interned", None) != gen:
            inner = _intern(inner)
            if getattr(inner, "_interned", None) != gen:
                return t
        key = ("t", t.tag, id(inner))
        found = _TABLE.get(key)
        if found is not None:
            _HITS += 1
            return found
        canon = t if inner is t.term else Tagged(t.tag, inner)
        return _store(key, canon)

    # PVar, NTRef, AtomPred, subclasses, and any future pattern-only form.
    return t


def _intern_node(label: str, children: Tuple[Pattern, ...]) -> Pattern:
    """Canonicalize ``Node(label, children)`` whose children are already
    canonical under the current generation — a table probe, no walk."""
    global _HITS
    key = ("n", label, *map(id, children))
    found = _TABLE.get(key)
    if found is not None:
        _HITS += 1
        return found
    return _store(key, Node(label, children))


def _intern_plist(items: Tuple[Pattern, ...]) -> Pattern:
    """Canonicalize ``PList(items)`` whose items are already canonical."""
    global _HITS
    key = ("l", *map(id, items))
    found = _TABLE.get(key)
    if found is not None:
        _HITS += 1
        return found
    return _store(key, PList(items))


def _intern_tagged(tag, inner: Pattern) -> Pattern:
    """Canonicalize ``Tagged(tag, inner)`` with ``inner`` already
    canonical."""
    global _HITS
    key = ("t", tag, id(inner))
    found = _TABLE.get(key)
    if found is not None:
        _HITS += 1
        return found
    return _store(key, Tagged(tag, inner))


# Public single-probe constructors.  Contract: every component passed in
# must ALREADY be canonical under the current generation (``is_interned``
# is true for it) — these helpers key the table on component identity and
# never walk, so handing them a private term would store an entry under
# an unstable key.  They are the building blocks for zipper plugging in
# ``repro.redex.refocus``, where frame components are interned once at
# descent time and each snapshot costs one probe per frame.
intern_node = _intern_node
intern_plist = _intern_plist
intern_tagged = _intern_tagged


class Builders(NamedTuple):
    """The constructors a term rewriter rebuilds with: plain objects, or
    canonical ones (one table probe each, under the contract above)."""

    const: Callable[[Const], Pattern]
    node: Callable[[str, Tuple[Pattern, ...]], Pattern]
    tagged: Callable[[object, Pattern], Pattern]
    plist: Callable[[Tuple[Pattern, ...]], Pattern]


PLAIN = Builders(lambda c: c, Node, Tagged, PList)
CANONICAL = Builders(_intern, _intern_node, _intern_tagged, _intern_plist)


def _store(key: tuple, canon: Pattern) -> Pattern:
    global _MISSES
    _MISSES += 1
    object.__setattr__(canon, "_interned", _GENERATION)
    _TABLE[key] = canon
    return canon


def intern_stats() -> Dict[str, int]:
    """Counters for observability and benchmarks: table size, generation,
    and hit/miss totals since the last clear."""
    return {
        "size": len(_TABLE),
        "generation": _GENERATION,
        "hits": _HITS,
        "misses": _MISSES,
    }


def clear_intern_caches() -> None:
    """Drop the intern table and invalidate every outstanding canonical
    stamp by bumping the generation.

    Caches keyed on interned identity (e.g. a ``ResugarCache``) must not
    be used across a clear; create fresh ones instead.
    """
    global _GENERATION, _HITS, _MISSES
    _TABLE.clear()
    _GENERATION += 1
    _HITS = 0
    _MISSES = 0
