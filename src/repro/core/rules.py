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

from repro.core.bindings import Binding
from repro.core.errors import ExpansionError
from repro.core.intern import CANONICAL, PLAIN, is_interned
from repro.core.matching import Matcher, compile_match
from repro.core.substitution import (
    Builder,
    compile_subst,
    is_canonical_binding,
)
from repro.core.tags import insert_body_tags
from repro.core.terms import Node, Pattern, pattern_variables
from repro.core.wellformed import (
    DisjointnessMode,
    check_disjointness,
    check_rule_wellformed,
)
from repro.obs import _state as _obs
from repro.obs.metrics import MATCH_ATTEMPTS, MATCH_SUCCESSES

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


class _Compiled:
    """One rule's compiled forms (:mod:`repro.core.matching`,
    :mod:`repro.core.substitution`): the LHS matcher of expansion, the
    tagged-RHS matcher of unexpansion, and the builders of both sides."""

    __slots__ = (
        "lhs", "rhs", "rhs_plain", "rhs_canonical", "lhs_plain",
        "lhs_canonical", "dropped",
    )

    def __init__(self, rule: Rule) -> None:
        self.lhs: Matcher = compile_match(rule.lhs, True, False)
        self.rhs: Matcher = compile_match(rule.tagged_rhs, False, True)
        self.rhs_plain: Builder = compile_subst(rule.tagged_rhs, PLAIN)
        self.rhs_canonical: Builder = compile_subst(rule.tagged_rhs, CANONICAL)
        self.lhs_plain: Builder = compile_subst(rule.lhs, PLAIN)
        self.lhs_canonical: Builder = compile_subst(rule.lhs, CANONICAL)
        # The stand-in's names, in the order the head tag stores them.
        self.dropped = tuple(sorted(rule.dropped_vars))


def _counted(ok: bool) -> None:
    """Move the ``match.*`` counters for one match (observability on)."""
    MATCH_ATTEMPTS.inc()
    if ok:
        MATCH_SUCCESSES.inc()


class RuleList:
    """An ordered, statically checked list of transformation rules.

    Each rule is compiled on its first use, not at construction, so a
    rule list costs nothing to build beyond its static checks.
    """

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
        self._compiled: list = [None] * len(self.rules)

    def _compile(self, index: int) -> _Compiled:
        """Compile rule ``index`` (on its first use)."""
        forms = self._compiled[index] = _Compiled(self.rules[index])
        return forms

    def __getstate__(self) -> dict:
        # Closures do not pickle; a copy recompiles on its first use.
        state = dict(self.__dict__)
        state["_compiled"] = [None] * len(self.rules)
        return state

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
            forms = self._compiled[index] or self._compile(index)
            sigma: dict = {}
            ok = forms.lhs(term, sigma)
            if _obs.enabled:
                _counted(ok)
            if not ok:
                continue
            # The bindings of a canonical term are canonical subterms.
            build = forms.rhs_canonical if is_interned(term) else forms.rhs_plain
            stand_in = tuple((name, sigma[name]) for name in forms.dropped)
            return Expansion(index, build(sigma), stand_in)
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
            forms = self._compiled[index] or self._compile(index)
            ok = forms.lhs(term, {})
            if _obs.enabled:
                _counted(ok)
            if ok:
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
        forms = self._compiled[index] or self._compile(index)
        sigma: dict = {}
        ok = forms.rhs(term, sigma)
        if _obs.enabled:
            _counted(ok)
        if not ok:
            return None
        if stand_in:
            merged = dict(stand_in)
            merged.update(sigma)
        else:
            merged = sigma
        if is_interned(term) and all(
            is_canonical_binding(b) for _name, b in stand_in
        ):
            return forms.lhs_canonical(merged)
        return forms.lhs_plain(merged)
