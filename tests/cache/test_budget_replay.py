"""A warm cut replay equals a cold budgeted lift, under every budget.

The whole-lift tier stores only complete (``Halted``) streams, keyed
without budgets, and answers a budgeted request by cutting the replay
through the same gate the cold loop uses (:mod:`repro.engine.stream`).
This suite pins that exhaustively: each golden trace's unbudgeted lift
is recorded first, then every step budget in ``[0, k+1]`` under both
``on_budget`` policies must come back from the cache and agree with a
cacheless cold lift — in every event (per-run ``cache_stats`` aside,
see ``docs/caching.md``), in the rendered steps, in the terminal's type
and fields, or in the raised exception's type and message.  The same
holds for node budgets on an ``amb`` tree and for wall-clock budgets.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import LiftCache
from repro.confection import Confection
from repro.core.errors import ReproError
from repro.engine.events import BudgetExhausted, Halted, SurfaceEmitted
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.sugars.scheme_sugars import make_scheme_rules

from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden

POLICIES = ("raise", "truncate")
AMB = "(+ (amb 1 2) (amb 10 20))"


def _outcome(stream, render):
    """Drain a lift stream into comparable facts, or the raised error."""
    try:
        events = list(stream)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    stripped = [
        dataclasses.replace(e, cache_stats=None)
        if isinstance(e, (Halted, BudgetExhausted))
        else e
        for e in events
    ]
    rendered = [
        render(e.surface_term) for e in events if isinstance(e, SurfaceEmitted)
    ]
    return ("streamed", stripped, rendered)


def _engines(make_rules, make_stepper_fn, cache_dir):
    """A cacheless cold engine, and a warm one over ``cache_dir``."""
    cold = Confection(make_rules(), make_stepper_fn())
    warm_cache = LiftCache(cache_dir)
    warm = Confection(make_rules(), make_stepper_fn(), cache=warm_cache)
    return cold, warm, warm_cache


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_every_step_budget_replays_as_cold(path, tmp_path):
    sugar, program, _trace, _stats, _options = parse_golden(path)
    make_rules, make_stepper_fn, parse, render = _configs()[sugar]
    term = parse(program)
    cold, warm, warm_cache = _engines(make_rules, make_stepper_fn, tmp_path)
    recorded = list(warm.lift_stream(term))
    assert isinstance(recorded[-1], Halted)
    assert warm_cache.lift_misses == 1
    k = recorded[-1].core_step_count

    for max_steps in range(k + 2):
        for on_budget in POLICIES:
            budget = dict(max_steps=max_steps, on_budget=on_budget)
            hits = warm_cache.lift_hits
            expected = _outcome(cold.lift_stream(term, **budget), render)
            got = _outcome(warm.lift_stream(term, **budget), render)
            assert got == expected, (path.stem, budget)
            assert warm_cache.lift_hits == hits + 1, (path.stem, budget)


def test_every_node_budget_replays_as_cold(tmp_path):
    term = parse_program(AMB)
    cold, warm, warm_cache = _engines(make_scheme_rules, make_stepper, tmp_path)
    recorded = list(warm.lift_tree_stream(term))
    assert isinstance(recorded[-1], Halted)
    n = recorded[-1].core_step_count
    assert n > 2  # a real branching tree, so cuts fall mid-level

    for max_nodes in range(n + 2):
        for on_budget in POLICIES:
            budget = dict(max_nodes=max_nodes, on_budget=on_budget)
            hits = warm_cache.lift_hits
            expected = _outcome(cold.lift_tree_stream(term, **budget), pretty)
            got = _outcome(warm.lift_tree_stream(term, **budget), pretty)
            assert got == expected, budget
            assert warm_cache.lift_hits == hits + 1, budget


@pytest.mark.parametrize("tree", [False, True], ids=["sequence", "tree"])
@pytest.mark.parametrize("on_budget", POLICIES)
def test_wall_clock_budgets_replay_as_cold(tmp_path, tree, on_budget):
    """``max_seconds=0`` cuts a warm replay at index 0, exactly as cold;
    a positive wall clock is answered by the complete recording."""
    program = AMB if tree else "(or #f #f (not #t) #t)"
    term = parse_program(program)
    cold, warm, warm_cache = _engines(make_scheme_rules, make_stepper, tmp_path)

    def stream(engine, **budget):
        lift = engine.lift_tree_stream if tree else engine.lift_stream
        return _outcome(lift(term, on_budget=on_budget, **budget), pretty)

    unbudgeted = stream(warm)
    assert warm_cache.lift_misses == 1
    zero = stream(cold, max_seconds=0.0)
    assert stream(warm, max_seconds=0.0) == zero
    if on_budget == "truncate":
        assert zero[1][-1].budget == "seconds"
        assert zero[1][-1].core_step_count == 0
    else:
        assert "0s time budget after 0 core" in zero[2]
    assert stream(warm, max_seconds=30.0) == unbudgeted
    assert warm_cache.lift_hits == 2


def test_truncated_and_cancelled_lifts_are_never_recorded(tmp_path):
    """Only complete streams are stored: a budget cut or a cooperative
    cancellation leaves the whole-lift tier empty."""
    term = parse_program("(or #f #f (not #t) #t)")
    _cold, warm, warm_cache = _engines(
        make_scheme_rules, make_stepper, tmp_path
    )
    for budget in (
        dict(max_steps=1, on_budget="truncate"),
        dict(should_stop=lambda: True),
    ):
        list(warm.lift_stream(term, **budget))
        assert not list((tmp_path / "lift").rglob("*.bin")), budget
    assert warm_cache.lift_hits == 0
    assert warm_cache.store.counters["corrupt"] == 0


def test_oversized_recordings_are_not_stored(tmp_path, monkeypatch):
    """A complete stream longer than ``MAX_LIFT_EVENTS`` is refused, so
    distinct long programs cannot grow the whole-lift tier with huge
    entries; the lift itself still streams in full, and reruns cold."""
    import repro.cache.lift as lift_module

    term = parse_program("(or #f #f (not #t) #t)")
    cold, warm, warm_cache = _engines(make_scheme_rules, make_stepper, tmp_path)
    probe = list(cold.lift_stream(term))
    huge = (probe[0],) * lift_module.MAX_LIFT_EVENTS + (probe[-1],)
    assert not warm_cache.store_lift("huge", huge)

    expected = _outcome(probe, pretty)
    monkeypatch.setattr(lift_module, "MAX_LIFT_EVENTS", len(probe) - 1)
    for _ in range(2):
        assert _outcome(warm.lift_stream(term), pretty) == expected
    assert not list((tmp_path / "lift").rglob("*.bin"))
    assert (warm_cache.lift_hits, warm_cache.lift_misses) == (0, 2)

    monkeypatch.setattr(lift_module, "MAX_LIFT_EVENTS", len(probe))
    list(warm.lift_stream(term))
    assert _outcome(warm.lift_stream(term), pretty) == expected
    assert warm_cache.lift_hits == 1
