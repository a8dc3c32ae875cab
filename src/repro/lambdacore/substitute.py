"""Capture-avoiding-enough substitution for the lambda core.

Evaluation is substitution-based (that is what makes every machine state
a *term* the resugarer can process).  Because the language is
call-by-value and programs are closed, every substituted value is closed
— except captured continuations, which are also closed — so plain
shadow-respecting substitution suffices; no alpha-renaming is needed.

Origin discipline: a variable *reference* that gets replaced disappears,
taking its tags with it (the value that replaces it keeps its own tags);
all other structure is kept with tags preserved (Definition 4).

Sharing: a subterm in which nothing was replaced is returned as the very
same object, so the untouched parts of a contractum stay canonical
(:mod:`repro.core.intern`) and re-interning it stops at them.  A subterm
where the variable is not free (:func:`~repro.core.terms.free_names`
under :data:`BINDERS`, cached on the node) is returned without being
walked at all.  When the term and the value are both canonical,
:func:`substitute` builds the rebuilt spine canonical too, one intern
probe per node.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.intern import CANONICAL, PLAIN, Builders, is_interned
from repro.core.terms import (
    Binders,
    Const,
    Node,
    Pattern,
    PList,
    Tagged,
    free_names,
    untagged,
)

__all__ = [
    "Assigned",
    "substitute",
    "substitute_boxed",
    "substitute_assigned",
]


class Assigned(Exception):
    """Raised by :func:`substitute` on reaching a ``Set`` of the variable
    outside any shadowing binder: the variable is assigned, so it must
    be boxed rather than substituted by value."""


def _param_of(lam_node: Node) -> Optional[str]:
    bare = untagged(lam_node.children[0])
    if isinstance(bare, Const) and isinstance(bare.value, str):
        return bare.value
    return None


# The lambda core's one binder: ``Lam`` binds its parameter in the whole
# node (a shadowed lambda is returned as it stands).
BINDERS: Binders = {
    "Lam": (lambda lam: (_param_of(lam),), None),
}


def _target_name(node: Node) -> Optional[str]:
    bare = untagged(node.children[0])
    if isinstance(bare, Const) and isinstance(bare.value, str):
        return bare.value
    return None


def substitute(term: Pattern, name: str, value: Pattern) -> Pattern:
    """Replace free references ``Id(name)`` in ``term`` by ``value``.

    Raises :class:`Assigned` if ``term`` assigns ``name``; that one walk
    is also the test of whether a parameter needs boxing.
    """
    return _walk(
        term,
        name,
        on_ref=lambda: value,
        on_set=None,
        make=CANONICAL if is_interned(term) and is_interned(value) else PLAIN,
    )


def substitute_boxed(term: Pattern, name: str, location: Pattern) -> Pattern:
    """Box an assigned variable: references become ``Deref(location)``
    and assignments become ``SetLoc(location, e)``."""
    return _walk(
        term,
        name,
        on_ref=lambda: Node("Deref", (location,)),
        on_set=lambda rhs: Node("SetLoc", (location, rhs)),
    )


def substitute_assigned(term: Pattern, name: str, cell_name: str) -> Pattern:
    """Rewrite an assigned variable to a named cell: references become
    ``Cell(cell_name)`` and assignments ``SetCell(cell_name, e)``.

    Named cells are how assigned variables keep their *names* in the
    running term (cells display as the bare identifier), which is what
    lets lifted traces show ``(apply more "adr")`` rather than a resolved
    closure — the effect the paper achieves in Figure 4.
    """
    return _walk(
        term,
        name,
        on_ref=lambda: Node("Cell", (Const(cell_name),)),
        on_set=lambda rhs: Node("SetCell", (Const(cell_name), rhs)),
    )


def _walk(
    term: Pattern,
    name: str,
    on_ref: Callable[[], Pattern],
    on_set: Optional[Callable[[Pattern], Pattern]],
    make: Builders = PLAIN,
) -> Pattern:
    if term.__class__ is Const or name not in free_names(term, BINDERS):
        return term

    if isinstance(term, Tagged):
        bare = untagged(term)
        if _is_ref(bare, name):
            # The reference node is consumed; its tags go with it.
            return on_ref()
        inner = _walk(term.term, name, on_ref, on_set, make)
        return term if inner is term.term else make.tagged(term.tag, inner)

    if isinstance(term, Node):
        if _is_ref(term, name):
            return on_ref()
        if term.label == "Set" and _target_name(term) == name:
            if on_set is None:
                raise Assigned(name)
            return on_set(_walk(term.children[1], name, on_ref, on_set, make))
        if term.label == "Lam" and _param_of(term) == name:
            return term  # shadowed
        children = tuple(
            _walk(c, name, on_ref, on_set, make) for c in term.children
        )
        if all(a is b for a, b in zip(children, term.children)):
            return term
        return make.node(term.label, children)

    if isinstance(term, PList):
        items = tuple(_walk(c, name, on_ref, on_set, make) for c in term.items)
        if all(a is b for a, b in zip(items, term.items)):
            return term
        return make.plist(items)

    return term


def _is_ref(bare: Pattern, name: str) -> bool:
    return (
        isinstance(bare, Node)
        and bare.label == "Id"
        and len(bare.children) == 1
        and untagged(bare.children[0]) == Const(name)
    )
