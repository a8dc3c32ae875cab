"""Validating a synthesized ruleset against the reference rules.

The acceptance bar is byte-identity of *lifted output*: every seed
program is lifted through both engines and the rendered surface
sequences are compared line for line.  Identical rendered traces mean
the synthesized rules are observationally indistinguishable from the
hand-written ones over the corpus — the strongest end-to-end evidence
synthesis can offer short of rule-for-rule alpha-equality (which
:func:`repro.synth.antiunify.rules_alpha_equal` measures separately).

Lifting is batched through :class:`repro.parallel.WarmPool`, one warm
pool per engine, so a large validation corpus pays rule-table
construction once per worker rather than once per program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.engine.events import BatchLifted
from repro.parallel.jobs import LiftJob
from repro.parallel.pool import WarmPool

__all__ = ["ValidationReport", "validate_against_reference"]


@dataclass(frozen=True)
class ValidationReport:
    """Per-corpus outcome of reference-vs-synthesized comparison."""

    programs: int
    matched: int
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.matched == self.programs


def _outcome_key(outcome) -> Tuple:
    """What we compare per program: the rendered trace for a lifted
    program, or the contained error's identity for a failed one (two
    engines failing identically — e.g. both stuck on the same unbound
    name — still agree)."""
    if isinstance(outcome, BatchLifted):
        return ("lifted", outcome.rendered)
    return ("error", outcome.error_type, outcome.error_message)


def validate_against_reference(
    reference_engine,
    synthesized_engine,
    programs: Sequence,
    pretty,
    *,
    jobs: int = 1,
    max_steps: int = 200,
) -> ValidationReport:
    """Lift ``programs`` through both engines and byte-compare the
    rendered traces.

    ``reference_engine`` / ``synthesized_engine`` are engine specs in
    the :class:`WarmPool` sense (Confection, ``(rules, stepper)`` pair,
    or factory).  Budgets are truncated, not raised, so a diverging
    program (e.g. ``while`` with a constant condition) compares by its
    identical finite prefix."""
    jobs_list = [
        LiftJob(
            program,
            name=f"validate-{i}",
            max_steps=max_steps,
            on_budget="truncate",
        )
        for i, program in enumerate(programs)
    ]
    outcomes: List[List] = []
    for engine in (reference_engine, synthesized_engine):
        with WarmPool(
            engine, jobs=jobs, payload="rendered", pretty=pretty
        ) as pool:
            outcomes.append(list(pool.run(jobs_list)))
    reference, synthesized = outcomes
    mismatches: List[str] = []
    matched = 0
    for i, (ref, syn) in enumerate(zip(reference, synthesized)):
        if _outcome_key(ref) == _outcome_key(syn):
            matched += 1
        else:
            mismatches.append(
                f"program {i} ({jobs_list[i].name}): "
                f"reference={_outcome_key(ref)!r} "
                f"synthesized={_outcome_key(syn)!r}"
            )
    return ValidationReport(
        programs=len(jobs_list),
        matched=matched,
        mismatches=tuple(mismatches),
    )
