"""Filtering candidate rules through the engine's own checks.

A candidate survives only if it passes, in order:

1. **Well-formedness** — criteria 1-4 of section 5.1.3, via
   :func:`repro.core.wellformed.wellformedness_violation`.
2. **Disjointness** (optional) — its LHS must not overlap an existing
   ruleset's LHSs (Definition 1), when one is given to check against.
3. **Explanatory power** — as a one-rule rulelist it must expand every
   example's surface term to exactly that example's core term.
4. **The lens laws** — GetPut and PutGet must hold at every example,
   via :func:`repro.core.lenses.check_rule_laws`.

Candidates that pass become :class:`~repro.core.rules.Rule` objects;
:func:`select_rules` then picks a covering subset (greedy set cover,
most-specific-first tie-break) and :func:`assemble_ruleset` installs
them into a :class:`~repro.core.rules.RuleList`, dropping any candidate
whose LHS breaks the list's disjointness invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.errors import DisjointnessError, WellFormednessError
from repro.core.rules import Rule, RuleList
from repro.core.lenses import check_rule_laws
from repro.core.terms import strip_tags, term_size
from repro.core.wellformed import DisjointnessMode, wellformedness_violation
from repro.synth.antiunify import Candidate, Example

__all__ = [
    "CheckedCandidate",
    "check_candidate",
    "check_candidates",
    "select_rules",
    "assemble_ruleset",
]

VERDICTS = ("ok", "wellformedness", "disjointness", "explains-nothing", "laws", "error")


@dataclass(frozen=True)
class CheckedCandidate:
    """A candidate plus the filter's verdict on it."""

    candidate: Candidate
    verdict: str
    detail: str = ""
    rule: Optional[Rule] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def check_candidate(
    candidate: Candidate, against: Optional[RuleList] = None
) -> CheckedCandidate:
    """Run one candidate through the filter gauntlet (see the module
    docstring for the stages).  Engine exceptions other than the checks'
    own :class:`WellFormednessError` / :class:`DisjointnessError` are
    *not* contained here — in fuzz mode an unexpected exception is
    precisely the bug being hunted."""
    label = candidate.label
    violation = wellformedness_violation(
        candidate.lhs, candidate.rhs, candidate.atomic_vars, f"synth-{label}"
    )
    if violation is not None:
        return CheckedCandidate(candidate, "wellformedness", violation)
    try:
        rule = Rule(
            candidate.lhs,
            candidate.rhs,
            name=f"synth-{label}",
            atomic_vars=candidate.atomic_vars,
        )
    except WellFormednessError as exc:
        return CheckedCandidate(candidate, "wellformedness", str(exc))

    if against is not None:
        try:
            RuleList(tuple(against.rules) + (rule,), against.disjointness)
        except DisjointnessError as exc:
            return CheckedCandidate(candidate, "disjointness", str(exc), rule)

    single = RuleList((rule,), DisjointnessMode.OFF)
    for surface, core in candidate.examples:
        expansion = single.expand(surface)
        if expansion is None or strip_tags(expansion.term) != core:
            return CheckedCandidate(
                candidate,
                "explains-nothing",
                "rule does not reproduce its own example",
                rule,
            )
    for surface, _ in candidate.examples:
        if check_rule_laws(single, surface) is not True:
            return CheckedCandidate(
                candidate, "laws", "GetPut/PutGet violated at an example", rule
            )
    return CheckedCandidate(candidate, "ok", rule=rule)


def check_candidates(
    candidates: Sequence[Candidate],
    *,
    against: Optional[RuleList] = None,
) -> List[CheckedCandidate]:
    """Check every candidate, in submission order."""
    return [check_candidate(c, against=against) for c in candidates]


def _explains(rule: Rule, example: Example) -> bool:
    surface, core = example
    single = RuleList((rule,), DisjointnessMode.OFF)
    expansion = single.expand(surface)
    return expansion is not None and strip_tags(expansion.term) == core


def _coverage(rule: Rule, examples: Sequence[Example]) -> Set[int]:
    single = RuleList((rule,), DisjointnessMode.OFF)
    covered = set()
    for i, (surface, core) in enumerate(examples):
        expansion = single.expand(surface)
        if expansion is not None and strip_tags(expansion.term) == core:
            covered.add(i)
    return covered


def select_rules(
    checked: Sequence[CheckedCandidate],
    examples: Sequence[Example],
) -> List[CheckedCandidate]:
    """Greedy set cover: repeatedly take the surviving candidate that
    explains the most still-unexplained examples, breaking ties toward
    the more specific LHS (larger pattern).  Specificity-first is what
    reproduces the hand-written split between exact-arity rules and the
    general recursive rule."""
    survivors = [c for c in checked if c.ok and c.rule is not None]
    remaining: Set[int] = set(range(len(examples)))
    coverage = [_coverage(c.rule, examples) for c in survivors]
    chosen: List[CheckedCandidate] = []
    taken = [False] * len(survivors)
    while remaining:
        best, best_key = None, None
        for k, c in enumerate(survivors):
            if taken[k]:
                continue
            gain = len(coverage[k] & remaining)
            if gain == 0:
                continue
            key = (gain, term_size(c.rule.lhs))
            if best_key is None or key > best_key:
                best, best_key = k, key
        if best is None:
            break
        taken[best] = True
        chosen.append(survivors[best])
        remaining -= coverage[best]
    return chosen


def assemble_ruleset(
    selected: Sequence[CheckedCandidate],
    mode: DisjointnessMode = DisjointnessMode.STRICT,
) -> Tuple[RuleList, List[CheckedCandidate]]:
    """Install the selected rules into one rulelist, most specific
    first, dropping any rule whose LHS breaks disjointness with the
    rules already admitted.  Returns (ruleset, dropped)."""
    ordered = sorted(
        selected,
        key=lambda c: (c.rule.label, -term_size(c.rule.lhs)),
    )
    admitted: List[Rule] = []
    dropped: List[CheckedCandidate] = []
    for checked in ordered:
        # Give every installed rule a stable, position-independent name.
        rule = Rule(
            checked.rule.lhs,
            checked.rule.rhs,
            name=f"synth-{checked.rule.label}-{len(admitted)}",
            atomic_vars=checked.rule.atomic_vars,
        )
        try:
            RuleList(tuple(admitted) + (rule,), mode)
        except DisjointnessError as exc:
            dropped.append(
                CheckedCandidate(
                    checked.candidate, "disjointness", str(exc), checked.rule
                )
            )
            continue
        admitted.append(rule)
    return RuleList(tuple(admitted), mode), dropped
