"""Tag insertion and inspection (section 5.2.1).

Body tags are "automatically inserted into each rule's RHS during
parsing": every non-atomic term the RHS *constructs* (labeled nodes and
lists, but not pattern variables — those splice in user code — and not
constants, which are atomic) is wrapped in an opaque
:class:`~repro.core.terms.BodyTag`.  Sugar authors opt specific subterms
out of Abstraction by marking them with ``!``; those receive transparent
body tags instead (section 3.4's Abstraction/Coverage dial).

In the programmatic rule API, transparency is expressed by wrapping an
RHS subpattern with :func:`transparent` before handing the rule to the
rulelist; :func:`insert_body_tags` then honours the pre-existing marks
while tagging everything else opaque.
"""

from __future__ import annotations

from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
)

__all__ = [
    "transparent",
    "insert_body_tags",
    "has_opaque_body_tags",
    "has_head_tags",
    "is_surface_term",
]

_TRANSPARENT = BodyTag(transparent=True)
_OPAQUE = BodyTag(transparent=False)


def transparent(pattern: Pattern) -> Tagged:
    """Mark an RHS subpattern as transparent (the paper's ``!`` prefix)."""
    if isinstance(pattern, Tagged) and isinstance(pattern.tag, BodyTag):
        return Tagged(_TRANSPARENT, pattern.term)
    return Tagged(_TRANSPARENT, pattern)


def insert_body_tags(rhs: Pattern) -> Pattern:
    """Wrap every constructed non-atomic subpattern of ``rhs`` in a body
    tag, preserving any transparency marks already present."""
    if isinstance(rhs, (PVar, Const)):
        return rhs
    if isinstance(rhs, Tagged):
        if isinstance(rhs.tag, BodyTag):
            inner = rhs.term
            if isinstance(inner, (PVar, Const)):
                # ``!x`` and ``!42`` are meaningless marks: the subterm is
                # not constructed by the rule.  Drop the tag.
                return inner
            return Tagged(rhs.tag, _tag_children(inner))
        # Head tags never appear in rule sources; pass through defensively.
        return Tagged(rhs.tag, insert_body_tags(rhs.term))
    return Tagged(_OPAQUE, _tag_children(rhs))


def _tag_children(p: Pattern) -> Pattern:
    if isinstance(p, Node):
        return Node(p.label, tuple(insert_body_tags(c) for c in p.children))
    if isinstance(p, PList):
        ell = insert_body_tags(p.ellipsis) if p.ellipsis is not None else None
        return PList(tuple(insert_body_tags(c) for c in p.items), ell)
    return p


def has_opaque_body_tags(t: Pattern) -> bool:
    """Does any opaque body tag remain in ``t``?  Resugaring must fail in
    that case: sugar-origin code would otherwise leak into the output."""
    if isinstance(t, Tagged):
        if isinstance(t.tag, BodyTag) and not t.tag.transparent:
            return True
        return has_opaque_body_tags(t.term)
    if isinstance(t, Node):
        return any(has_opaque_body_tags(c) for c in t.children)
    if isinstance(t, PList):
        if any(has_opaque_body_tags(c) for c in t.items):
            return True
        return t.ellipsis is not None and has_opaque_body_tags(t.ellipsis)
    return False


def has_head_tags(t: Pattern) -> bool:
    """Does any head tag remain in ``t``?"""
    if isinstance(t, Tagged):
        if isinstance(t.tag, HeadTag):
            return True
        return has_head_tags(t.term)
    if isinstance(t, Node):
        return any(has_head_tags(c) for c in t.children)
    if isinstance(t, PList):
        if any(has_head_tags(c) for c in t.items):
            return True
        return t.ellipsis is not None and has_head_tags(t.ellipsis)
    return False


def is_surface_term(t: Pattern) -> bool:
    """Definition 2: a surface term is a term without any tags."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Tagged):
            return False
        if isinstance(t, Node):
            todo.extend(t.children)
        elif isinstance(t, PList):
            todo.extend(t.items)
            if t.ellipsis is not None:
                todo.append(t.ellipsis)
    return True
