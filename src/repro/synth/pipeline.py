"""The synthesis pipeline: harvest -> enumerate -> filter -> validate.

:func:`synthesize` runs the full loop for one backend and returns a
:class:`SynthesisReport`.  The pipeline never looks inside the
reference rules — they are used strictly as a desugaring oracle during
harvest and as the comparison target during validation — so a
successful run *re-discovers* the backend's sugar from examples alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rules import RuleList
from repro.core.terms import term_size
from repro.engine.registry import get_backend
from repro.obs import metrics as _metrics
from repro.synth.antiunify import (
    Candidate,
    anti_unify_all,
    rules_alpha_equal,
)
from repro.synth.filter import (
    CheckedCandidate,
    assemble_ruleset,
    check_candidates,
    select_rules,
)
from repro.synth.harvest import (
    SEED_PROGRAMS,
    HarvestedBucket,
    harvest_examples,
)
from repro.synth.validate import ValidationReport, validate_against_reference

__all__ = [
    "BACKEND_ALIASES",
    "SynthesisReport",
    "enumerate_candidates",
    "resolve_backend_name",
    "synthesize",
]

BACKEND_ALIASES: Dict[str, str] = {
    "lambdacore": "lambda",
    "pyretcore": "pyret",
}
"""Long-form backend names accepted by ``repro synth``."""


def resolve_backend_name(name: str) -> str:
    return BACKEND_ALIASES.get(name, name)


def enumerate_candidates(
    buckets: Sequence[HarvestedBucket], *, max_per_group: int = 64
) -> List[Candidate]:
    """Anti-unify within each bucket (exact-arity rules) and across
    every same-label bucket pair (ellipsis rules), deduplicated."""
    by_label: Dict[str, List[HarvestedBucket]] = {}
    for bucket in buckets:
        by_label.setdefault(bucket.label, []).append(bucket)
    out: List[Candidate] = []
    seen = set()
    for label_buckets in by_label.values():
        example_groups = [b.examples for b in label_buckets]
        # Cross-arity merges take two representatives from each bucket:
        # enough that per-position agreement within one example never
        # masquerades as a constant of the rule.  Only near-neighbours
        # in size are merged — the informative pairs differ by one list
        # item (length k with length k+1 teaches the prefix/tail split);
        # merging a 1-arm shape with a 5-arm shape adds nothing that the
        # chain of adjacent merges doesn't, and the full quadratic sweep
        # dominates synthesis time on branch-heavy grammars.
        ordered = sorted(
            label_buckets, key=lambda b: term_size(b.examples[0][0])
        )
        for i in range(len(ordered)):
            for j in (i + 1, i + 2):
                if j < len(ordered):
                    example_groups.append(
                        ordered[i].examples[:2] + ordered[j].examples[:2]
                    )
        for examples in example_groups:
            for candidate in anti_unify_all(examples, max_candidates=max_per_group):
                signature = (candidate.lhs, candidate.rhs, candidate.atomic_vars)
                if signature not in seen:
                    seen.add(signature)
                    out.append(candidate)
    return out


@dataclass
class SynthesisReport:
    """Everything one synthesis run learned."""

    backend: str
    sugar: Optional[str]
    programs: int
    buckets: int
    examples: int
    candidates: int
    accepted: int
    rejections: Dict[str, int]
    selected: List[CheckedCandidate]
    dropped: List[CheckedCandidate]
    ruleset: RuleList
    rediscovered: Tuple[str, ...] = ()
    validation: Optional[ValidationReport] = None
    checked: List[CheckedCandidate] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.validation is None or self.validation.ok


def _rediscovered(reference: RuleList, synthesized: RuleList) -> Tuple[str, ...]:
    """Names of hand-written rules that reappear, alpha-equal, in the
    synthesized set."""
    names: List[str] = []
    for hand in reference.rules:
        if any(rules_alpha_equal(hand, synth) for synth in synthesized.rules):
            names.append(hand.name)
    return tuple(names)


def synthesize(
    backend_name: str,
    *,
    sugar: Optional[str] = None,
    programs: Optional[Sequence[str]] = None,
    max_list_len: int = 5,
    validate: bool = True,
    backend_options: Optional[Dict] = None,
) -> SynthesisReport:
    """Synthesize a ruleset for ``backend_name`` from examples alone.

    ``programs`` overrides the built-in seed bank (source strings in
    the backend's surface syntax).
    """
    backend = get_backend(resolve_backend_name(backend_name))
    options = dict(backend_options or {})
    reference = backend.make_rules(sugar, **options)
    sources = tuple(
        programs
        if programs is not None
        else SEED_PROGRAMS.get(backend.name, ())
    )
    parsed = [backend.parse(source) for source in sources]

    buckets = harvest_examples(reference, parsed, max_list_len=max_list_len)
    all_examples: List = []
    seen_examples = set()
    for bucket in buckets:
        for example in bucket.examples:
            if example not in seen_examples:
                seen_examples.add(example)
                all_examples.append(example)
    _metrics.SYNTH_EXAMPLES_HARVESTED.inc(len(all_examples))

    candidates = enumerate_candidates(buckets)
    _metrics.SYNTH_CANDIDATES.inc(len(candidates))

    checked = check_candidates(candidates)

    accepted = [c for c in checked if c.ok]
    rejections: Dict[str, int] = {}
    for c in checked:
        if not c.ok:
            rejections[c.verdict] = rejections.get(c.verdict, 0) + 1
    _metrics.SYNTH_ACCEPTED.inc(len(accepted))
    _metrics.SYNTH_REJECTED.inc(len(checked) - len(accepted))

    selected = select_rules(accepted, all_examples)
    ruleset, dropped = assemble_ruleset(selected, mode=reference.disjointness)
    _metrics.SYNTH_RULES_INSTALLED.inc(len(ruleset.rules))

    validation = None
    if validate and parsed:
        validation = validate_against_reference(
            (reference, backend.make_stepper()),
            (ruleset, backend.make_stepper()),
            parsed,
            backend.pretty,
        )

    return SynthesisReport(
        backend=backend.name,
        sugar=sugar,
        programs=len(parsed),
        buckets=len(buckets),
        examples=len(all_examples),
        candidates=len(candidates),
        accepted=len(accepted),
        rejections=rejections,
        selected=selected,
        dropped=dropped,
        ruleset=ruleset,
        rediscovered=_rediscovered(reference, ruleset),
        validation=validation,
        checked=checked,
    )
