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
* the engine-config fingerprint separates every
  :class:`~repro.engine.config.LiftConfig` key field and stepper mode,
  so a recorded stream can never be replayed under options it was not
  produced with — while budgets and ``on_budget`` never reach the key,
  since every budgeted lift is a prefix of the one complete recording;
* the key bytes themselves are pinned, so existing on-disk caches keep
  hitting.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.cache import (
    KEY_SCHEMA,
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
from repro.engine.config import LiftConfig
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


# One non-default value per LiftConfig key field.
NON_DEFAULT_KEY_VALUES = {
    "mode": "tree",
    "dedup": False,
    "check_emulation": False,
}


def test_engine_fingerprint_separates_every_config_axis():
    """The grid is LiftConfig's own key fields: a new key field without
    an entry in NON_DEFAULT_KEY_VALUES fails here, and every entry must
    move the fingerprint (as must the stepper's mode)."""
    assert set(LiftConfig.key_fields()) == set(NON_DEFAULT_KEY_VALUES)
    stepper = get_backend("lambda").make_stepper()
    configs = [LiftConfig()] + [
        LiftConfig(**{name: value})
        for name, value in NON_DEFAULT_KEY_VALUES.items()
    ]
    fps = [engine_fingerprint(stepper, config) for config in configs]
    fps.append(engine_fingerprint(stepper.with_mode("naive"), LiftConfig()))
    assert len(set(fps)) == len(fps)


# Whole-lift keys of ``(or (not #t) (not #f))`` under the bundled lambda
# rules, computed with key schema 2 before the keys were derived from
# LiftConfig.  They are what on-disk caches hold: if one moves, every
# existing cache entry for that configuration goes cold.  Rows are
# (key, mode, stepper mode, config options); a naive row keys the
# stepper's ``with_mode("naive")``.
PINNED_LIFT_KEYS = [
    ("3ebb977da3e4e161a082f4638a7b9c0e", "sequence", "refocus", {}),
    ("84b9ec285fb05d618fb19a8338eacb6d", "sequence", "naive", {}),
    ("f471f358f9e4737239bf638f8bfb3c3f", "tree", "refocus", {}),
    ("9bdfffe60de5e43f2d1ea0a85dca5c5f", "tree", "naive", {}),
    ("41d71c0ed0eace975894e20fbf55ae0c", "sequence", "refocus",
     dict(dedup=False)),
    ("6e7dbd4b255a2b5f3081c511dc691d5e", "sequence", "refocus",
     dict(check_emulation=False)),
    ("be1f50ccedcc93a13c3ddd0072adfbb6", "tree", "refocus",
     dict(check_emulation=False)),
]


@pytest.mark.parametrize(
    "pinned,mode,stepper_mode,options", PINNED_LIFT_KEYS,
    ids=[f"{mode}-{pinned[:8]}" for pinned, mode, _, _ in PINNED_LIFT_KEYS],
)
def test_lift_keys_are_byte_stable(reference_rules, tmp_path, pinned, mode,
                                   stepper_mode, options):
    """The key bytes are pinned twice: the module function, and the key
    a real lift stores its recording under."""
    from repro.cache import LiftCache
    from repro.confection import Confection

    backend = get_backend("lambda")
    term = backend.parse("(or (not #t) (not #f))")
    config = LiftConfig(mode=mode, **options)
    stepper = backend.make_stepper().with_mode(stepper_mode)
    assert lift_key(reference_rules, stepper, term, config) == pinned
    lift_cache = LiftCache(tmp_path)
    engine = Confection(reference_rules, stepper, cache=lift_cache)
    list(engine.lift_events(term, config))
    assert lift_cache.lookup_lift(pinned) is not None


def test_key_schema_is_unchanged():
    assert KEY_SCHEMA == b"repro-cache-key/2"


@pytest.mark.parametrize("mode", ["sequence", "tree"])
def test_budgets_leave_the_lift_key_unchanged(reference_rules, tmp_path, mode):
    """A budget selects a prefix of the one complete lift, so no budget
    size, wall clock, or ``on_budget`` policy passed to
    :meth:`LiftCache.lift_key` may move the key away from the budget-free
    module function's."""
    from repro.cache import LiftCache

    stepper = get_backend("lambda").make_stepper()
    config = dict(mode=mode, check_emulation=True, incremental=True)
    budget_name = "max_nodes" if mode == "tree" else "max_steps"
    budgets = [
        {},
        dict(on_budget="raise", max_steps=100),
        dict(on_budget="truncate", max_steps=101),
        {"on_budget": "truncate", budget_name: 0},
        dict(max_steps=0, max_seconds=0.0),
        {"on_budget": "raise", budget_name: 7, "max_seconds": 30.0},
    ]
    lift_cache = LiftCache(tmp_path)
    keys = {
        lift_cache.lift_key(reference_rules, stepper, Const(1), **config,
                            **budget)
        for budget in budgets
    }
    assert keys == {
        lift_key(reference_rules, stepper, Const(1), LiftConfig(**config))
    }
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
    assert lift_key(reference_rules, opaque, Const(1), LiftConfig()) is None


def test_lift_key_depends_on_program(reference_rules):
    stepper = get_backend("lambda").make_stepper()
    k1 = lift_key(reference_rules, stepper, Const(1), LiftConfig())
    k2 = lift_key(reference_rules, stepper, Const(2), LiftConfig())
    assert k1 is not None and k2 is not None and k1 != k2
