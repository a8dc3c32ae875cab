"""The in-memory recordings of one :class:`LiftCache`.

A :class:`LiftCache` keeps the recordings it stored or read back,
decoded, so a repeated program on the same instance never touches disk.
This suite pins that a memory hit is indistinguishable from a disk hit
and from a cold lift — event for event and in rendered bytes, over the
whole golden corpus in sequence and tree mode, under step, node and
wall-clock budget cuts — and pins the map's own contract: ``store_lift``
seeds it, it is bounded by recorded events with the least recently used
recording evicted first, ``recall`` answers from it alone, one instance
is safe to share between threads, and a consumer cannot change a later
replay through the stats it got.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.cache import LiftCache
from repro.cache import lift as cache_lift
from repro.confection import Confection
from repro.core.errors import ReproError
from repro.core.intern import clear_intern_caches
from repro.engine.events import BudgetExhausted, Halted, SurfaceEmitted
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules

from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden

PROGRAM = "(or #f #f (not #t) #t)"


def _drain(stream, render):
    """(events, rendered steps), or the raised error's type and text."""
    try:
        events = list(stream)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    rendered = [
        render(e.surface_term) for e in events if isinstance(e, SurfaceEmitted)
    ]
    return ("streamed", events, rendered)


def _stripped(outcome):
    """``outcome`` without terminal stats: a cut replay carries the
    recording's stats, a cold cut its own (see docs/caching.md)."""
    if outcome[0] != "streamed":
        return outcome
    events = [
        dataclasses.replace(e, cache_stats=None)
        if isinstance(e, (Halted, BudgetExhausted))
        else e
        for e in outcome[1]
    ]
    return ("streamed", events, outcome[2])


def _budgets(tree, count):
    kind = "max_nodes" if tree else "max_steps"
    yield {}
    for limit in sorted({0, count // 2, count}):
        for on_budget in ("truncate", "raise"):
            yield {kind: limit, "on_budget": on_budget}
    yield {"max_seconds": 0.0, "on_budget": "truncate"}


@pytest.mark.parametrize("tree", [False, True], ids=["sequence", "tree"])
@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_memory_hit_equals_disk_hit_and_cold(path, tree, tmp_path):
    sugar, program, _trace, _stats, _options = parse_golden(path)
    make_rules, make_stepper_fn, parse, render = _configs()[sugar]
    term = parse(program)

    def stream(cache, **budget):
        engine = Confection(make_rules(), make_stepper_fn(), cache=cache)
        lift = engine.lift_tree_stream if tree else engine.lift_stream
        return _drain(lift(term, **budget), render)

    memory = LiftCache(tmp_path)
    recorded = stream(memory)
    assert recorded[0] == "streamed" and memory.lift_misses == 1
    assert recorded == stream(None)
    count = recorded[1][-1].core_step_count

    for budget in _budgets(tree, count):
        cold = stream(None, **budget)
        hits = memory.memo_hits
        from_memory = stream(memory, **budget)
        assert memory.memo_hits == hits + 1, budget
        disk = LiftCache(tmp_path)
        from_disk = stream(disk, **budget)
        assert (disk.lift_hits, disk.memo_hits) == (1, 0), budget
        assert from_memory == from_disk, budget
        assert _stripped(from_memory) == _stripped(cold), budget
        if not budget:
            assert from_memory == cold


def _recording(events=3):
    """A stand-in complete recording of ``events`` events."""
    return tuple(SurfaceEmitted(i, None, None) for i in range(events - 1)) + (
        Halted(events - 1),
    )


class TestMap:
    def test_store_lift_seeds_the_map(self, tmp_path):
        cache = LiftCache(tmp_path)
        engine = Confection(make_scheme_rules(), make_stepper(), cache=cache)
        engine.lift(parse_program(PROGRAM))
        assert cache.stats()["memo_recordings"] == 1
        engine.lift(parse_program(PROGRAM))
        stats = cache.stats()
        assert (stats["lift_hits"], stats["memo_hits"]) == (1, 1)
        assert (stats["disk_hits"], stats["lift_misses"]) == (0, 1)

    def test_disk_hit_joins_the_map(self, tmp_path):
        Confection(
            make_scheme_rules(), make_stepper(), cache=LiftCache(tmp_path)
        ).lift(parse_program(PROGRAM))
        cache = LiftCache(tmp_path)
        engine = Confection(make_scheme_rules(), make_stepper(), cache=cache)
        for _ in range(3):
            engine.lift(parse_program(PROGRAM))
        stats = cache.stats()
        assert (stats["disk_hits"], stats["memo_hits"]) == (1, 2)
        assert stats["lift_hits"] == 3

    def test_refused_streams_are_not_kept(self, tmp_path):
        cache = LiftCache(tmp_path)
        cut = _recording()[:-1] + (BudgetExhausted(2, None, "steps", 1),)
        assert not cache.store_lift("k", cut)
        assert cache.lookup_lift("k") is None
        assert cache.stats()["memo_recordings"] == 0

    def test_least_recently_used_is_evicted_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_lift, "MAX_MEMO_EVENTS", 9)
        cache = LiftCache(tmp_path)
        for key in "abc":
            assert cache.store_lift(key, _recording(3))
        assert cache.stats()["memo_events"] == 9
        assert cache.lookup_lift("a") is not None  # now most recent
        cache.store_lift("d", _recording(3))  # evicts b, the oldest use
        assert list(cache._memo) == ["c", "a", "d"]
        stats = cache.stats()
        assert (stats["memo_recordings"], stats["memo_events"]) == (3, 9)
        # b is still on disk: a disk hit, which joins the map again.
        assert cache.lookup_lift("b") is not None
        assert cache.stats()["disk_hits"] == 1
        assert list(cache._memo) == ["a", "d", "b"]

    def test_recording_over_the_bound_is_not_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_lift, "MAX_MEMO_EVENTS", 4)
        cache = LiftCache(tmp_path)
        cache.store_lift("small", _recording(3))
        assert cache.store_lift("big", _recording(5))  # still on disk
        assert list(cache._memo) == ["small"]
        assert cache.stats()["memo_events"] == 3
        assert cache.lookup_lift("big") is not None
        assert cache.stats()["disk_hits"] == 1
        assert list(cache._memo) == ["small"]

    def test_intern_clear_drops_the_map(self, tmp_path):
        cache = LiftCache(tmp_path)
        engine = Confection(make_scheme_rules(), make_stepper(), cache=cache)
        engine.lift(parse_program(PROGRAM))
        clear_intern_caches()
        engine.lift(parse_program(PROGRAM))
        stats = cache.stats()
        assert (stats["disk_hits"], stats["memo_hits"]) == (1, 0)

    def test_recall_never_reads_disk(self, tmp_path):
        LiftCache(tmp_path).store_lift("k", _recording(3))
        cache = LiftCache(tmp_path)  # "k" is on disk, not in memory
        assert cache.recall("k") is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 0)  # the store's
        assert (stats["lift_hits"], stats["lift_misses"]) == (0, 0)
        assert cache.lookup_lift("k") is not None  # a disk hit
        assert cache.recall("k") == _recording(3)
        stats = cache.stats()
        assert (stats["lift_hits"], stats["memo_hits"]) == (2, 1)
        assert stats["hits"] == 1

    def test_recall_after_intern_clear_is_none(self, tmp_path):
        cache = LiftCache(tmp_path)
        cache.store_lift("k", _recording(3))
        assert cache.recall("k") is not None
        clear_intern_caches()
        assert cache.recall("k") is None
        stats = cache.stats()
        assert (stats["memo_hits"], stats["memo_recordings"]) == (1, 0)

    def test_consumer_stats_cannot_change_a_later_replay(self, tmp_path):
        cache = LiftCache(tmp_path)
        engine = Confection(make_scheme_rules(), make_stepper(), cache=cache)
        cold = engine.lift(parse_program(PROGRAM))
        expected = dataclasses.asdict(cold.cache_stats)
        assert expected["resugar_calls"] > 0
        cold.cache_stats.resugar_calls = -1  # the producer's live stats
        warm = engine.lift(parse_program(PROGRAM))
        assert dataclasses.asdict(warm.cache_stats) == expected
        warm.cache_stats.resugar_calls = -2
        cut = engine.lift(
            parse_program(PROGRAM), max_steps=1, on_budget="truncate"
        )
        assert dataclasses.asdict(cut.cache_stats) == expected
        again = engine.lift(parse_program(PROGRAM))
        assert dataclasses.asdict(again.cache_stats) == expected
        assert cache.memo_hits == 3


def test_threads_share_one_instance(tmp_path):
    """8 threads recalling, storing and looking up overlapping keys on
    one instance: nothing raises, and every round is counted exactly
    once, as a hit (recalled from memory or looked up) or a miss."""
    cache = LiftCache(tmp_path)
    threads_n, rounds, keys = 8, 200, [f"key{i}" for i in range(16)]
    barrier = threading.Barrier(threads_n)
    errors, found, recalled = [], [0] * threads_n, [0] * threads_n

    def work(index):
        try:
            barrier.wait(timeout=30)
            for i in range(rounds):
                key = keys[(index + i) % len(keys)]
                if cache.recall(key) is not None:
                    found[index] += 1
                    recalled[index] += 1
                elif cache.lookup_lift(key) is not None:
                    found[index] += 1
                elif i % 3 == 0:
                    cache.store_lift(key, _recording(2 + i % 5))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(i,)) for i in range(threads_n)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    stats = cache.stats()
    assert stats["lift_hits"] == sum(found)
    # A recall that finds nothing counts nothing; the lookup after it does.
    assert stats["lift_hits"] + stats["lift_misses"] == threads_n * rounds
    assert stats["memo_hits"] >= sum(recalled) > 0
    assert stats["memo_hits"] + stats["disk_hits"] == stats["lift_hits"]
    assert stats["memo_events"] == sum(len(r) for r in cache._memo.values())
