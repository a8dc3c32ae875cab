"""Fuzzer tests: the engine's containment contract, the regression
replay corpus, serialization, and the minimizer.

``tests/synth/regressions/*.json`` is the replay corpus: each file is
one minimized perturbed candidate recorded during development, plus
the verdict the engine stack gave it.  Replaying asserts two things —
the verdict is *stable* (no guard silently weakened) and, above all,
is never ``crash``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.engine.registry import get_backend
from repro.synth.fuzz import (
    PERTURBATIONS,
    candidate_from_json,
    candidate_to_json,
    fuzz_backend,
    minimize_candidate,
    pattern_from_json,
    pattern_to_json,
    run_trial,
)
from repro.core.wellformed import wellformedness_violation

from tests.strategies import terms

REGRESSIONS = sorted(
    (Path(__file__).parent / "regressions").glob("*.json")
)


def test_regression_corpus_is_present():
    assert len(REGRESSIONS) >= 15


@pytest.fixture(scope="module")
def lambda_reference():
    backend = get_backend("lambda")
    return backend.make_rules(None), backend.make_stepper


@pytest.mark.parametrize(
    "path", REGRESSIONS, ids=[p.stem for p in REGRESSIONS]
)
def test_regression_replay(path, lambda_reference):
    record = json.loads(path.read_text())
    assert record["backend"] == "lambda"
    reference, make_stepper = lambda_reference
    candidate = candidate_from_json(record["candidate"])
    outcome = run_trial(reference, make_stepper, candidate, record["op"])
    assert outcome.verdict != "crash", outcome.detail
    assert outcome.verdict == record["verdict"], outcome.detail


# --------------------------------------------------------------------------
# Serialization round-trips


@settings(max_examples=80, deadline=None)
@given(term=terms())
def test_pattern_json_round_trip(term):
    assert pattern_from_json(pattern_to_json(term)) == term


@pytest.mark.parametrize("path", REGRESSIONS[:4], ids=lambda p: p.stem)
def test_candidate_json_round_trip(path):
    record = json.loads(path.read_text())
    candidate = candidate_from_json(record["candidate"])
    assert candidate_from_json(candidate_to_json(candidate)) == candidate


def test_pattern_json_rejects_garbage():
    with pytest.raises(ValueError):
        pattern_from_json({"mystery": 1})
    with pytest.raises(TypeError):
        pattern_to_json(object())


def test_symbol_and_none_consts_round_trip():
    from repro.core.terms import Const, Symbol

    for value in (Symbol("x"), None, True, 1.5):
        term = Const(value)
        assert pattern_from_json(pattern_to_json(term)) == term


# --------------------------------------------------------------------------
# Perturbation operators


@pytest.fixture(scope="module")
def base_candidates():
    from repro.synth.filter import check_candidates
    from repro.synth.harvest import SEED_PROGRAMS, harvest_examples
    from repro.synth.pipeline import enumerate_candidates

    backend = get_backend("lambda")
    reference = backend.make_rules(None)
    programs = [backend.parse(s) for s in SEED_PROGRAMS["lambda"]]
    buckets = harvest_examples(reference, programs, max_list_len=3)
    return [
        c.candidate
        for c in check_candidates(enumerate_candidates(buckets))
        if c.ok
    ]


def test_every_perturbation_fires_somewhere(base_candidates):
    """Each operator applies to at least one real synthesized rule and
    actually changes it — no operator is dead weight."""
    rng = random.Random(7)
    for name, op in PERTURBATIONS:
        fired = False
        for base in base_candidates:
            mutated = op(base, rng)
            if mutated is not None and (
                mutated.lhs != base.lhs
                or mutated.rhs != base.rhs
                or mutated.atomic_vars != base.atomic_vars
            ):
                fired = True
                break
        assert fired, f"perturbation {name} never applied"


def test_perturbations_keep_examples(base_candidates):
    """Operators perturb the *rule*, never the harvested evidence — the
    examples are what the trial lifts, so they must stay concrete."""
    rng = random.Random(11)
    for _, op in PERTURBATIONS:
        for base in base_candidates[:10]:
            mutated = op(base, rng)
            if mutated is not None:
                assert mutated.examples == base.examples


# --------------------------------------------------------------------------
# The inert verdict: dynamic acceptance requires the mutant to fire


def test_vacuous_dynamic_check_reports_inert(
    base_candidates, lambda_reference
):
    """A candidate with no examples lifts nothing, so the dynamic stage
    proved nothing about it — the verdict must be ``inert``, never the
    false confidence of ``accepted-safe``."""
    from repro.synth.antiunify import Candidate

    reference, make_stepper = lambda_reference
    base = base_candidates[0]
    vacuous = Candidate(
        lhs=base.lhs,
        rhs=base.rhs,
        atomic_vars=base.atomic_vars,
        examples=(),
    )
    outcome = run_trial(reference, make_stepper, vacuous, "identity")
    assert outcome.verdict == "inert"
    assert "no expansions" in outcome.detail


def test_firing_candidate_reports_accepted_safe(
    base_candidates, lambda_reference
):
    """Unperturbed synthesized rules desugar their own examples when
    spliced, so the provenance counters prove participation and the
    verdict stays ``accepted-safe`` — ``inert`` must not over-trigger."""
    reference, make_stepper = lambda_reference
    for base in base_candidates[:8]:
        outcome = run_trial(reference, make_stepper, base, "identity")
        assert outcome.verdict == "accepted-safe", outcome.detail


def test_mutant_fired_keys_on_rule_index_zero():
    """The helper reads per-rule provenance rows keyed ``index:name``;
    only index 0 — where the trial splices the mutant — counts."""
    from repro.synth.fuzz import _mutant_fired

    row = {"expansions": 1}
    assert not _mutant_fired([])
    assert not _mutant_fired([{"attrs": None}, {"name": "no attrs"}])
    assert not _mutant_fired(
        [{"attrs": {"rule_stats": {"1:synth-x": row}}}]
    )
    assert _mutant_fired([{"attrs": {"rule_stats": {"0:synth-x": row}}}])
    # Rule names may themselves contain colons; only the first field
    # is the index.
    assert not _mutant_fired(
        [{"attrs": {"rule_stats": {"10:synth-x": row}}}]
    )


# --------------------------------------------------------------------------
# The containment contract, live


def test_fuzz_smoke_no_crashes():
    report = fuzz_backend("lambdacore", seed=0, trials=150, max_list_len=3)
    assert report.trials == 150
    assert sum(report.verdicts.values()) == 150
    assert report.ok, [c.detail for c in report.crashes]


def test_fuzz_is_deterministic_in_seed():
    first = fuzz_backend("lambdacore", seed=5, trials=60, max_list_len=3)
    second = fuzz_backend("lambdacore", seed=5, trials=60, max_list_len=3)
    assert first.verdicts == second.verdicts


def test_fuzz_counts_metrics():
    from repro.obs.metrics import REGISTRY

    before = REGISTRY.snapshot().get("synth.fuzz_trials", 0)
    fuzz_backend("lambdacore", seed=1, trials=30, max_list_len=3)
    after = REGISTRY.snapshot().get("synth.fuzz_trials", 0)
    assert after - before == 30


# --------------------------------------------------------------------------
# The minimizer


def test_minimizer_shrinks_while_preserving_failure(base_candidates):
    from repro.core.terms import term_size

    rng = random.Random(3)
    # Manufacture a statically rejected candidate from a real one.
    mutated = None
    for base in base_candidates:
        for name, op in PERTURBATIONS:
            if name == "rename-rhs-hole-fresh":
                mutated = op(base, rng)
                break
        if mutated is not None:
            break
    assert mutated is not None

    def fails(c):
        return (
            wellformedness_violation(c.lhs, c.rhs, c.atomic_vars) is not None
        )

    assert fails(mutated)
    small = minimize_candidate(mutated, fails)
    assert fails(small)
    assert term_size(small.lhs) + term_size(small.rhs) <= term_size(
        mutated.lhs
    ) + term_size(mutated.rhs)
    # Fixpoint: no single shrink step still fails (that's what "greedy
    # minimal" means here).
    from repro.synth.fuzz import _shrink_steps

    assert not any(fails(s) for s in _shrink_steps(small))
