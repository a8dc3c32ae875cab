"""Bindings and environments (Figure 2 of the paper).

A binding ``b`` is one of::

    b := P               (a pattern -- in practice a term)
       | [|b1 ... bn|]   (list binding: one binding per ellipsis repetition)
       | [|b1 ... bn be*|]  (ellipsis binding: used during unification)

and an environment ``sigma`` maps pattern variables to bindings.

A variable *inside* an ellipsis is bound to a :class:`ListBinding` rather
than a list term; list bindings behave differently under substitution
(they are distributed across the repetitions by ``split``).  Ellipsis
bindings arise only during unification, when a variable within an ellipsis
is unified against an ellipsis pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from repro.core.errors import PatternError, SubstitutionError
from repro.core.terms import Const, Pattern, PList

__all__ = [
    "Binding",
    "ListBinding",
    "EllipsisBinding",
    "Env",
    "union",
    "merge",
    "split",
    "list_binding",
    "to_term",
    "restrict",
    "without",
]


@dataclass(frozen=True, slots=True)
class ListBinding:
    """``[|b1 ... bn|]``: one binding per repetition of an ellipsis."""

    items: Tuple["Binding", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        inner = ", ".join(repr(b) for b in self.items)
        return f"[|{inner}|]"


@dataclass(frozen=True, slots=True)
class EllipsisBinding:
    """``[|b1 ... bn be*|]``: a list binding with a repeating tail.

    Needed only when unifying a variable that sits inside an ellipsis with
    an ellipsis pattern (section 5.1.2); it records that the variable
    stands for ``n`` fixed bindings followed by any number of copies of
    ``tail``.
    """

    items: Tuple["Binding", ...]
    tail: "Binding"

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self) -> str:
        inner = ", ".join(repr(b) for b in self.items)
        return f"[|{inner} {self.tail!r}*|]"


Binding = Union[Pattern, ListBinding, EllipsisBinding]

# Environments are plain immutable-by-convention dicts.
Env = Dict[str, Binding]


def _bindings_equal(a: Binding, b: Binding) -> bool:
    return a == b


def union(sigma1: Mapping[str, Binding], sigma2: Mapping[str, Binding]) -> Env:
    """Combine two environments produced by matching sibling subpatterns.

    Because rules are linear (well-formedness criterion 2), the domains
    are disjoint except for variables bound to atomic terms, which the
    paper exempts; for those we require the bindings to agree.
    """
    out: Env = dict(sigma1)
    for name, b in sigma2.items():
        if name in out:
            prior = out[name]
            ok = (
                isinstance(prior, Const)
                and isinstance(b, Const)
                and _bindings_equal(prior, b)
            )
            if not ok:
                raise PatternError(
                    f"conflicting bindings for duplicate variable {name!r}: "
                    f"{prior!r} vs {b!r}"
                )
        out[name] = b
    return out


def right_biased_union(
    sigma1: Mapping[str, Binding], sigma2: Mapping[str, Binding]
) -> Env:
    """The paper's ``sigma1 . sigma2``: on conflict, ``sigma2`` wins."""
    out: Env = dict(sigma1)
    out.update(sigma2)
    return out


def merge(envs: Sequence[Mapping[str, Binding]], variables: Iterable[str]) -> Env:
    """Figure 3's ``merge``: zip per-repetition environments into list
    bindings.

    ``merge([{x -> b1}, ..., {x -> bn}]) = {x -> [|b1 ... bn|]}``.

    ``variables`` names the variables of the ellipsis pattern, which is
    needed to produce *empty* list bindings when there are zero
    repetitions (the formal ``merge([])`` is otherwise underdetermined).
    """
    names = tuple(variables)
    out: Env = {}
    for name in names:
        items = []
        for env in envs:
            if name not in env:
                raise PatternError(
                    f"merge: repetition environment missing variable {name!r}"
                )
            items.append(env[name])
        out[name] = ListBinding(tuple(items))
    return out


def split(
    sigma: Mapping[str, Binding], variables: Iterable[str]
) -> Tuple[Env, ...]:
    """Figure 3's ``split``: unzip list bindings into per-repetition
    environments.

    Every variable in ``variables`` must be bound to a :class:`ListBinding`
    and all those list bindings must have equal length ``k``; the result is
    ``k`` environments, the i-th binding each variable to its i-th item.
    """
    names = tuple(variables)
    if not names:
        raise SubstitutionError(
            "split: ellipsis pattern contains no variables, so the number "
            "of repetitions is undetermined (well-formedness criterion 3)"
        )
    lists = []
    for name in names:
        lb = list_binding(sigma, name)
        if lists and len(lists[0]) != len(lb):
            raise SubstitutionError(
                f"split: ellipsis variables have unequal repetition counts "
                f"({len(lists[0])} vs {len(lb)} for {name!r})"
            )
        lists.append(lb)
    length = len(lists[0])
    return tuple(
        {name: lb.items[i] for name, lb in zip(names, lists)}
        for i in range(length)
    )


def list_binding(sigma: Mapping[str, Binding], name: str) -> ListBinding:
    """The list binding of ellipsis variable ``name`` in ``sigma``;
    raises :class:`SubstitutionError` if it is unbound or bound at the
    wrong ellipsis depth."""
    if name not in sigma:
        raise SubstitutionError(f"split: unbound ellipsis variable {name!r}")
    b = sigma[name]
    if not isinstance(b, ListBinding):
        raise SubstitutionError(
            f"split: variable {name!r} used under an ellipsis but bound "
            f"to a non-list binding {b!r} (ellipsis depth mismatch)"
        )
    return b


def to_term(b: Binding) -> Pattern:
    """Figure 3's ``toTerm``: convert a binding back into a term.

    A pattern binding is already a term; a list binding becomes a list
    term.  Ellipsis bindings have no term form (they only exist inside
    unifiers) and raise.
    """
    if isinstance(b, ListBinding):
        return PList(tuple(to_term(item) for item in b.items))
    if isinstance(b, EllipsisBinding):
        raise SubstitutionError(f"cannot convert ellipsis binding {b!r} to a term")
    return b


def restrict(sigma: Mapping[str, Binding], names: Iterable[str]) -> Env:
    """Restrict ``sigma`` to the given variable names (ignoring absent
    ones)."""
    keep = set(names)
    return {name: b for name, b in sigma.items() if name in keep}


def without(sigma: Mapping[str, Binding], names: Iterable[str]) -> Env:
    """Drop the given variable names from ``sigma``."""
    drop = set(names)
    return {name: b for name, b in sigma.items() if name not in drop}
