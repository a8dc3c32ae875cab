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

Both run through one compiler, :func:`compile_subst`: a template is
turned once into a closure that builds its instances with the chosen
constructors (plain or canonical); rule lists keep their rules'
compiled templates (:class:`~repro.core.rules.RuleList`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Callable, Mapping

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

__all__ = [
    "subst",
    "subst_canonical",
    "is_canonical_binding",
    "compile_subst",
]

# A compiled template: ``build(sigma)`` is the substituted term.
Builder = Callable[[Mapping[str, Binding]], Pattern]


def subst(sigma: Mapping[str, Binding], pattern: Pattern) -> Pattern:
    """Substitute ``sigma`` into ``pattern``, producing a term.

    The result is a genuine term provided every variable of ``pattern``
    is bound in ``sigma`` to a binding of matching ellipsis depth.
    """
    return compile_subst(pattern, PLAIN)(sigma)


def subst_canonical(sigma: Mapping[str, Binding], pattern: Pattern) -> Pattern:
    """:func:`subst` whose result is canonical, built bottom-up with one
    intern probe per template node.  Every binding must be canonical
    under the current generation (:func:`is_canonical_binding`), as the
    bindings matched out of a canonical term are."""
    return compile_subst(pattern, CANONICAL)(sigma)


def is_canonical_binding(b: Binding) -> bool:
    """Is ``b`` a canonical term, or a list binding of canonical ones?"""
    if b.__class__ is ListBinding:
        return all(map(is_canonical_binding, b.items))
    return getattr(b, "_interned", None) == intern_generation()


@lru_cache(maxsize=1024)
def compile_subst(pattern: Pattern, make: Builders = PLAIN) -> Builder:
    """Compile ``pattern`` into a :data:`Builder` of ``make`` terms
    (:data:`~repro.core.intern.PLAIN` or
    :data:`~repro.core.intern.CANONICAL`), cached per pattern and
    builder.  The template's shape is decided here, once; a call only
    looks up bindings and constructs."""
    cls = pattern.__class__
    if cls is PVar:
        name = pattern.name

        def build(sigma):
            if name not in sigma:
                raise SubstitutionError(f"unbound pattern variable {name!r}")
            b = sigma[name]
            return b if isinstance(b, Pattern) else _as_term(b, make)
        return build

    if cls is Tagged:
        tag, inner, tagged = pattern.tag, compile_subst(pattern.term, make), make.tagged

        def build(sigma):
            return tagged(tag, inner(sigma))
        return build

    if cls is Node:
        label, node = pattern.label, make.node
        kids = tuple(compile_subst(c, make) for c in pattern.children)

        def build(sigma):
            return node(label, tuple([k(sigma) for k in kids]))
        return build

    if cls is Const:
        if make is PLAIN:
            return lambda sigma: pattern
        const = make.const
        return lambda sigma: const(pattern)

    if cls is PList:
        kids = tuple(compile_subst(c, make) for c in pattern.items)
        plist = make.plist
        ellipsis = pattern.ellipsis
        if ellipsis is None:
            def build(sigma):
                return plist(tuple([k(sigma) for k in kids]))
        elif ellipsis.__class__ is PVar:
            name = ellipsis.name

            def build(sigma):
                # A bare repeated variable: one repetition per list item,
                # spliced in one go when every item is already a term.
                items = [k(sigma) for k in kids]
                reps = list_binding(sigma, name).items
                if all(map(isinstance, reps, repeat(Pattern))):
                    items.extend(reps)
                else:
                    items.extend([_as_term(b, make) for b in reps])
                return plist(tuple(items))
        else:
            ell_vars = tuple(dict.fromkeys(pattern_variables(ellipsis)))
            each = compile_subst(ellipsis, make)

            def build(sigma):
                items = [k(sigma) for k in kids]
                for env_i in split(sigma, ell_vars):
                    # Variables of the enclosing scope remain visible
                    # inside the repetition (rules never need this under
                    # linearity, but it keeps substitution total on
                    # well-formed input).
                    scope = dict(sigma)
                    scope.update(env_i)
                    items.append(each(scope))
                return plist(tuple(items))
        return build

    def build(sigma):
        raise SubstitutionError(f"cannot substitute into {pattern!r}")
    return build


def _as_term(b: Binding, make: Builders) -> Pattern:
    """Figure 3's ``toTerm``, building list terms with ``make``."""
    if b.__class__ is ListBinding:
        return make.plist(tuple([_as_term(item, make) for item in b.items]))
    return to_term(b)
