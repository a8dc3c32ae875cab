"""Substituting an environment into a pattern (Figure 3, right column).

``subst(sigma, P)`` implements the paper's ``sigma P``: it replaces each
pattern variable with the term form of its binding and *splits* ellipsis
patterns, producing one instance of the repeated pattern per item of the
variables' list bindings.  A bare repeated variable needs no split: its
list binding's items are the repetitions.

Substitution raises :class:`~repro.core.errors.SubstitutionError` rather
than returning ``None``: an unbound variable or an ellipsis-depth
mismatch indicates an ill-formed rule (the static checks of section 5.1.3
exist precisely to rule these out), not a benign failure.

:func:`subst_canonical` is the same substitution building the canonical
(:mod:`repro.core.intern`) instance directly: one intern probe per
template node, no walk afterwards.  It needs every binding canonical;
callers with other bindings use :func:`subst`.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bindings import (
    Binding,
    ListBinding,
    list_binding,
    split,
    to_term,
)
from repro.core.errors import SubstitutionError
from repro.core.intern import CANONICAL, PLAIN, Builders, intern_generation
from repro.core.terms import (
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
    pattern_variables,
)

__all__ = ["subst", "subst_canonical", "is_canonical_binding"]


def subst(sigma: Mapping[str, Binding], pattern: Pattern) -> Pattern:
    """Substitute ``sigma`` into ``pattern``, producing a term.

    The result is a genuine term provided every variable of ``pattern``
    is bound in ``sigma`` to a binding of matching ellipsis depth.
    """
    return _subst(sigma, pattern, PLAIN)


def subst_canonical(sigma: Mapping[str, Binding], pattern: Pattern) -> Pattern:
    """:func:`subst` whose result is canonical, built bottom-up with one
    intern probe per template node.  Every binding must be canonical
    under the current generation (:func:`is_canonical_binding`), as the
    bindings matched out of a canonical term are."""
    return _subst(sigma, pattern, CANONICAL)


def is_canonical_binding(b: Binding) -> bool:
    """Is ``b`` a canonical term, or a list binding of canonical ones?"""
    if b.__class__ is ListBinding:
        return all(map(is_canonical_binding, b.items))
    return getattr(b, "_interned", None) == intern_generation()


def _subst(sigma: Mapping[str, Binding], pattern: Pattern, make: Builders) -> Pattern:
    cls = pattern.__class__
    if cls is PVar:
        if pattern.name not in sigma:
            raise SubstitutionError(f"unbound pattern variable {pattern.name!r}")
        return _as_term(sigma[pattern.name], make)

    if cls is Tagged:
        return make.tagged(pattern.tag, _subst(sigma, pattern.term, make))

    if cls is Node:
        return make.node(
            pattern.label, tuple([_subst(sigma, c, make) for c in pattern.children])
        )

    if cls is Const:
        return make.const(pattern)

    if cls is PList:
        items = [_subst(sigma, c, make) for c in pattern.items]
        ellipsis = pattern.ellipsis
        if ellipsis.__class__ is PVar:
            # A bare repeated variable: one repetition per list item.
            items.extend(
                _as_term(b, make)
                for b in list_binding(sigma, ellipsis.name).items
            )
        elif ellipsis is not None:
            ell_vars = tuple(dict.fromkeys(pattern_variables(ellipsis)))
            for env_i in split(sigma, ell_vars):
                # Variables of the enclosing scope remain visible inside
                # the repetition (rules never need this under linearity,
                # but it keeps substitution total on well-formed input).
                scope = dict(sigma)
                scope.update(env_i)
                items.append(_subst(scope, ellipsis, make))
        return make.plist(tuple(items))

    raise SubstitutionError(f"cannot substitute into {pattern!r}")


def _as_term(b: Binding, make: Builders) -> Pattern:
    """Figure 3's ``toTerm``, building list terms with ``make``."""
    if b.__class__ is ListBinding:
        return make.plist(tuple([_as_term(item, make) for item in b.items]))
    return to_term(b)
