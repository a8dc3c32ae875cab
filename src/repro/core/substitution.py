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
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bindings import Binding, list_binding, split, to_term
from repro.core.errors import SubstitutionError
from repro.core.terms import (
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
    pattern_variables,
)

__all__ = ["subst"]


def subst(sigma: Mapping[str, Binding], pattern: Pattern) -> Pattern:
    """Substitute ``sigma`` into ``pattern``, producing a term.

    The result is a genuine term provided every variable of ``pattern``
    is bound in ``sigma`` to a binding of matching ellipsis depth.
    """
    cls = pattern.__class__
    if cls is Const:
        return pattern

    if cls is PVar:
        if pattern.name not in sigma:
            raise SubstitutionError(f"unbound pattern variable {pattern.name!r}")
        return to_term(sigma[pattern.name])

    if cls is Node:
        return Node(pattern.label, tuple(subst(sigma, c) for c in pattern.children))

    if cls is Tagged:
        return Tagged(pattern.tag, subst(sigma, pattern.term))

    if cls is PList:
        items = [subst(sigma, c) for c in pattern.items]
        ellipsis = pattern.ellipsis
        if ellipsis.__class__ is PVar:
            # A bare repeated variable: one repetition per list item.
            items.extend(map(to_term, list_binding(sigma, ellipsis.name).items))
        elif ellipsis is not None:
            ell_vars = tuple(dict.fromkeys(pattern_variables(ellipsis)))
            for env_i in split(sigma, ell_vars):
                # Variables of the enclosing scope remain visible inside
                # the repetition (rules never need this under linearity,
                # but it keeps substitution total on well-formed input).
                scope = dict(sigma)
                scope.update(env_i)
                items.append(subst(scope, ellipsis))
        return PList(tuple(items))

    raise SubstitutionError(f"cannot substitute into {pattern!r}")
