"""Cache-key soundness properties.

The whole safety argument of :mod:`repro.cache` rests on three claims
about its keys, each pinned here with Hypothesis:

* a term's digest is a function of its *content* — stable across fresh
  intern tables, pickle round-trips, and structurally-shared DAGs, and
  distinct for distinct terms;
* a ruleset's fingerprint moves under *any* rule edit — including the
  adversarial edits of the fuzzer's perturbation operators, which are
  exactly the "subtly wrong ruleset" an attacker of the cache would
  construct;
* the engine-config fingerprint separates every (stepper mode,
  resugaring mode) combination, so a recorded stream can never be
  replayed under options it was not produced with — while budgets and
  ``on_budget`` never reach the key, since every budgeted lift is a
  prefix of the one complete recording.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.cache import (
    engine_fingerprint,
    lift_key,
    ruleset_fingerprint,
    stepper_fingerprint,
    term_digest,
)
from repro.core.intern import clear_intern_caches, intern
from repro.core.lift import FunctionStepper
from repro.core.rules import Rule, RuleList
from repro.core.terms import BodyTag, Const, HeadTag, Node, PList, Tagged
from repro.core.wellformed import DisjointnessMode, WellFormednessError
from repro.engine.registry import get_backend
from repro.synth.antiunify import Candidate
from repro.synth.fuzz import PERTURBATIONS

from tests.strategies import terms


# --------------------------------------------------------------------------
# Term digests


@settings(max_examples=100, deadline=None)
@given(term=terms())
def test_digest_invariant_under_fresh_intern_table(term):
    before = term_digest(term)
    clear_intern_caches()
    assert term_digest(intern(term)) == before


@settings(max_examples=100, deadline=None)
@given(term=terms())
def test_digest_invariant_under_pickle_round_trip(term):
    before = term_digest(term)
    revived = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(term))))
    assert term_digest(revived) == before


@settings(max_examples=100, deadline=None)
@given(a=terms(), b=terms())
def test_distinct_terms_distinct_digests(a, b):
    if a == b:
        assert term_digest(a) == term_digest(b)
    else:
        assert term_digest(a) != term_digest(b)


def test_digest_separates_tag_structure():
    """Tags are part of term content: the same underlying term under
    different provenance tags must not share a cache identity."""
    core = Node("Foo", (Const(1),))
    stand_in = (("x", Const(1)),)
    plain = term_digest(core)
    body = term_digest(Tagged(BodyTag(), core))
    transparent = term_digest(Tagged(BodyTag(transparent=True), core))
    head = term_digest(Tagged(HeadTag(0, stand_in), core))
    head2 = term_digest(Tagged(HeadTag(1, stand_in), core))
    head3 = term_digest(Tagged(HeadTag(0, (("x", Const(2)),)), core))
    assert len({plain, body, transparent, head, head2, head3}) == 6


def test_digest_separates_const_types():
    """Const equality is value *and* type; the digest must follow."""
    assert term_digest(Const(1)) != term_digest(Const(True))
    assert term_digest(Const(0)) != term_digest(Const(False))


def test_digest_handles_shared_subterm_dags():
    """A deep chain of shared nodes digests without recursion-depth or
    blowup trouble (the id-memoized walk visits each node once)."""
    node = Const(0)
    for _ in range(5000):
        node = Node("Wrap", (node,))
    wide = PList((node,) * 64)
    assert isinstance(term_digest(wide), str)


# --------------------------------------------------------------------------
# Ruleset fingerprints


@pytest.fixture(scope="module")
def reference_rules():
    return get_backend("lambda").make_rules(None)


def test_ruleset_fingerprint_is_stable(reference_rules):
    rebuilt = get_backend("lambda").make_rules(None)
    assert ruleset_fingerprint(reference_rules) == ruleset_fingerprint(rebuilt)


def test_ruleset_fingerprint_depends_on_rule_order(reference_rules):
    rules = list(reference_rules.rules)
    reordered = RuleList(
        tuple(rules[::-1]), DisjointnessMode.OFF
    )
    baseline = RuleList(tuple(rules), DisjointnessMode.OFF)
    assert ruleset_fingerprint(reordered) != ruleset_fingerprint(baseline)


def test_ruleset_fingerprint_depends_on_disjointness_mode(reference_rules):
    rules = tuple(reference_rules.rules)
    assert ruleset_fingerprint(
        RuleList(rules, DisjointnessMode.OFF)
    ) != ruleset_fingerprint(RuleList(rules, reference_rules.disjointness))


def test_ruleset_fingerprint_moves_under_perturbed_rules(reference_rules):
    """Splice fuzzer-perturbed variants of each reference rule into the
    ruleset, keeping the rule's *name* fixed so only the edit itself can
    change the fingerprint — every constructible mutation must move it.
    """
    rng = random.Random(20260808)
    baseline_rules = tuple(reference_rules.rules)
    baseline = ruleset_fingerprint(
        RuleList(baseline_rules, DisjointnessMode.OFF)
    )
    compared = 0
    for i, rule in enumerate(baseline_rules):
        base = Candidate(
            lhs=rule.lhs,
            rhs=rule.rhs,
            atomic_vars=rule.atomic_vars,
            examples=(),
        )
        for _, op in PERTURBATIONS:
            mutated = op(base, rng)
            if mutated is None or (
                mutated.lhs == base.lhs
                and mutated.rhs == base.rhs
                and mutated.atomic_vars == base.atomic_vars
            ):
                continue
            try:
                edited = Rule(
                    mutated.lhs,
                    mutated.rhs,
                    name=rule.name,
                    atomic_vars=mutated.atomic_vars,
                )
            except WellFormednessError:
                continue  # not constructible; nothing to cache either
            spliced = (
                baseline_rules[:i] + (edited,) + baseline_rules[i + 1 :]
            )
            fp = ruleset_fingerprint(RuleList(spliced, DisjointnessMode.OFF))
            assert fp != baseline, (
                f"perturbing rule {rule.name!r} left the ruleset "
                f"fingerprint unchanged"
            )
            compared += 1
    assert compared >= 10  # the sweep actually exercised real edits


# --------------------------------------------------------------------------
# Engine-config fingerprints and full lift keys


def test_engine_fingerprint_separates_every_config_axis():
    stepper = get_backend("lambda").make_stepper()
    grid = [
        dict(mode="sequence", dedup=True, check_emulation=True,
             incremental=True),
        dict(mode="sequence", dedup=False, check_emulation=True,
             incremental=True),
        dict(mode="sequence", dedup=True, check_emulation=False,
             incremental=True),
        dict(mode="sequence", dedup=True, check_emulation=True,
             incremental=False),
        dict(mode="tree", dedup=True, check_emulation=True,
             incremental=True),
    ]
    fps = [engine_fingerprint(stepper, **cfg) for cfg in grid]
    fps.append(engine_fingerprint(stepper.with_mode("naive"), **grid[0]))
    assert len(set(fps)) == len(fps)


@pytest.mark.parametrize("mode", ["sequence", "tree"])
def test_budgets_leave_the_lift_key_unchanged(reference_rules, tmp_path, mode):
    """A budget selects a prefix of the one complete lift, so no budget
    size, wall clock, or ``on_budget`` policy passed to
    :meth:`LiftCache.lift_key` may move the key away from the budget-free
    module function's."""
    from repro.cache import LiftCache

    stepper = get_backend("lambda").make_stepper()
    config = dict(mode=mode, check_emulation=True, incremental=True)
    budgets = [
        {},
        dict(on_budget="raise", max_steps=100),
        dict(on_budget="truncate", max_steps=101),
        dict(on_budget="truncate", max_nodes=0),
        dict(max_steps=0, max_seconds=0.0),
        dict(on_budget="raise", max_nodes=7, max_seconds=30.0),
    ]
    lift_cache = LiftCache(tmp_path)
    keys = {
        lift_cache.lift_key(reference_rules, stepper, Const(1), **config,
                            **budget)
        for budget in budgets
    }
    assert keys == {lift_key(reference_rules, stepper, Const(1), **config)}
    assert None not in keys


def test_stepper_fingerprint_covers_mode():
    stepper = get_backend("lambda").make_stepper()
    assert stepper_fingerprint(stepper) != stepper_fingerprint(
        stepper.with_mode("naive")
    )


def test_stepper_fingerprint_separates_backends():
    assert stepper_fingerprint(
        get_backend("lambda").make_stepper()
    ) != stepper_fingerprint(get_backend("pyret").make_stepper())


def test_unidentifiable_stepper_is_uncacheable(reference_rules):
    opaque = FunctionStepper(lambda t: None)
    assert stepper_fingerprint(opaque) is None
    assert (
        lift_key(
            reference_rules,
            opaque,
            Const(1),
            mode="sequence",
            dedup=True,
            check_emulation=True,
            incremental=True,
        )
        is None
    )


def test_lift_key_depends_on_program(reference_rules):
    stepper = get_backend("lambda").make_stepper()
    kwargs = dict(
        mode="sequence",
        dedup=True,
        check_emulation=True,
        incremental=True,
    )
    k1 = lift_key(reference_rules, stepper, Const(1), **kwargs)
    k2 = lift_key(reference_rules, stepper, Const(2), **kwargs)
    assert k1 is not None and k2 is not None and k1 != k2
