"""Transformation rules and rulelists (sections 5.1.4-5.1.5).

A :class:`Rule` is a pair of patterns ``LHS -> RHS``; a :class:`RuleList`
is an ordered list of rules with prioritized semantics: *expansion* of a
term matches it against each LHS in turn and substitutes the bindings
into the corresponding RHS.  The index of the successful rule is part of
the result; it is stored in the head tag so that *unexpansion* applies
the same rule in reverse (matching the RHS, substituting into the LHS).

Because an RHS may mention fewer variables than its LHS (rules may
"forget" information), unexpansion needs the *stand-in* environment: the
expansion-time bindings of the dropped variables, stored in the head tag
(section 5.1.4).

Construction runs the static checks: per-rule well-formedness
(section 5.1.3) and pairwise LHS disjointness (Definition 1), the latter
configurable via :class:`~repro.core.wellformed.DisjointnessMode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.bindings import Binding, restrict, right_biased_union
from repro.core.errors import ExpansionError
from repro.core.intern import is_interned
from repro.core.matching import match, matches
from repro.core.substitution import (
    is_canonical_binding,
    subst,
    subst_canonical,
)
from repro.core.tags import insert_body_tags
from repro.core.terms import Node, Pattern, pattern_variables
from repro.core.wellformed import (
    DisjointnessMode,
    check_disjointness,
    check_rule_wellformed,
)

__all__ = ["Rule", "RuleList", "Expansion"]


@dataclass(frozen=True)
class Rule:
    """One transformation rule ``lhs -> rhs``.

    ``rhs`` is given *without* body tags; they are inserted here, honouring
    any transparency marks (:func:`~repro.core.tags.transparent`) the
    author placed.  ``atomic_vars`` names variables exempted from the
    linearity criterion because they only ever bind atoms.
    """

    lhs: Pattern
    rhs: Pattern
    name: str = ""
    atomic_vars: Tuple[str, ...] = ()
    tagged_rhs: Pattern = field(init=False)
    dropped_vars: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        name = self.name or (
            self.lhs.label if isinstance(self.lhs, Node) else "<rule>"
        )
        object.__setattr__(self, "name", name)
        check_rule_wellformed(self.lhs, self.rhs, self.atomic_vars, name)
        object.__setattr__(self, "tagged_rhs", insert_body_tags(self.rhs))
        lhs_vars = dict.fromkeys(pattern_variables(self.lhs))
        rhs_vars = set(pattern_variables(self.rhs))
        object.__setattr__(
            self,
            "dropped_vars",
            tuple(v for v in lhs_vars if v not in rhs_vars),
        )

    @property
    def label(self) -> str:
        """The outer node label this rule rewrites (criterion 4)."""
        assert isinstance(self.lhs, Node)
        return self.lhs.label


@dataclass(frozen=True)
class Expansion:
    """The result of a single successful expansion.

    ``stand_in`` holds the expansion-time bindings of the variables the
    RHS dropped; the recursive desugarer stores it in the head tag.
    """

    index: int
    term: Pattern
    stand_in: Tuple[Tuple[str, Binding], ...]


class RuleList:
    """An ordered, statically checked list of transformation rules."""

    def __init__(
        self,
        rules: Iterable[Rule],
        disjointness: DisjointnessMode = DisjointnessMode.PRIORITIZED,
    ) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.disjointness = disjointness
        check_disjointness(
            [r.lhs for r in self.rules],
            disjointness,
            [r.name for r in self.rules],
        )
        # Dispatch index (criterion 4 guarantees every LHS is a labeled
        # node): label -> [(rule index, LHS arity)], in priority order.
        # Expansion consults one bucket instead of scanning every rule,
        # and the recorded arity skips matches that must fail at the root.
        self._by_label: Dict[str, list[Tuple[int, int]]] = {}
        for i, rule in enumerate(self.rules):
            arity = len(rule.lhs.children) if isinstance(rule.lhs, Node) else -1
            self._by_label.setdefault(rule.label, []).append((i, arity))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    @property
    def labels(self) -> Tuple[str, ...]:
        """The surface labels this rulelist rewrites."""
        return tuple(self._by_label)

    def rewrites_label(self, label: str) -> bool:
        return label in self._by_label

    def expand(self, term: Pattern) -> Optional[Expansion]:
        """The paper's ``exp``: match ``term`` against each LHS in priority
        order; substitute into the first matching rule's RHS.

        Returns ``None`` when no rule applies (the term is not an instance
        of any sugar in this rulelist).  Matching sees through tags on the
        term, since earlier expansions may have tagged its subterms.  On
        canonical input the instance is built canonical
        (:func:`~repro.core.substitution.subst_canonical`).
        """
        if not isinstance(term, Node):
            return None
        term_arity = len(term.children)
        for index, arity in self._by_label.get(term.label, ()):
            if arity >= 0 and arity != term_arity:
                continue
            rule = self.rules[index]
            sigma = match(term, rule.lhs, see_through_tags=True)
            if sigma is None:
                continue
            # The bindings of a canonical term are canonical subterms.
            if is_interned(term):
                expanded = subst_canonical(sigma, rule.tagged_rhs)
            else:
                expanded = subst(sigma, rule.tagged_rhs)
            dropped = restrict(sigma, rule.dropped_vars)
            stand_in = tuple(sorted(dropped.items(), key=lambda kv: kv[0]))
            return Expansion(index, expanded, stand_in)
        return None

    def matching_rule(
        self, term: Pattern, before: Optional[int] = None
    ) -> Optional[int]:
        """The index of the rule :meth:`expand` would apply to ``term``,
        trying only rules of higher priority than ``before`` when given;
        ``None`` when none matches.  Matches only, substitutes nothing."""
        if not isinstance(term, Node):
            return None
        term_arity = len(term.children)
        for index, arity in self._by_label.get(term.label, ()):
            if before is not None and index >= before:
                return None
            if arity >= 0 and arity != term_arity:
                continue
            if matches(term, self.rules[index].lhs, see_through_tags=True):
                return index
        return None

    def unexpand(
        self,
        index: int,
        term: Pattern,
        stand_in: Tuple[Tuple[str, Binding], ...] = (),
    ) -> Optional[Pattern]:
        """The paper's ``unexp``: match ``term`` against rule ``index``'s
        (body-tagged) RHS and substitute into its LHS, consulting the
        stand-in environment for dropped variables.

        Returns ``None`` when the term no longer has the shape of the
        rule's RHS — evaluation has rewritten the sugar's internals, so
        the step has no surface representation.  A canonical term and
        stand-in give a canonical result, as in :meth:`expand`.
        """
        if not 0 <= index < len(self.rules):
            raise ExpansionError(f"head tag references unknown rule index {index}")
        rule = self.rules[index]
        sigma = match(
            term, rule.tagged_rhs, see_through_tags=False,
            lenient_pattern_tags=True,
        )
        if sigma is None:
            return None
        merged = right_biased_union(dict(stand_in), sigma)
        if is_interned(term) and all(
            is_canonical_binding(b) for _name, b in stand_in
        ):
            return subst_canonical(merged, rule.lhs)
        return subst(merged, rule.lhs)
