"""The whole-lift tier is bounded per shard directory.

Every store trims its own ``lift/<aa>/`` shard to
:data:`repro.cache.lift.MAX_LIFT_ENTRIES_PER_SHARD` entries, evicting
the oldest writes.  A flood of distinct halting programs therefore
leaves the tier under the cap, and every entry that survives the
eviction still replays byte-identically to a cacheless lift.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

from repro.cache import CacheStore, LiftCache
from repro.cache import lift as cache_lift
from repro.confection import Confection
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.sugars.scheme_sugars import make_scheme_rules

FLOOD = 48
CAP = 1


def _program(i: int) -> str:
    return f"(or #f (not #t) {i})"


def _rendered(cache, source):
    confection = Confection(make_scheme_rules(), make_stepper(), cache=cache)
    result = confection.lift(parse_program(source))
    return [pretty(t) for t in result.surface_sequence]


def _shards(root):
    return Counter(path.parent.name for path in (root / "lift").rglob("*.bin"))


def test_a_distinct_program_flood_stays_under_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_lift, "MAX_LIFT_ENTRIES_PER_SHARD", CAP)
    cache = LiftCache(tmp_path)
    for i in range(FLOOD):
        _rendered(cache, _program(i))
    assert cache.lift_misses == FLOOD
    assert cache.store.counters["stores"] == FLOOD

    shards = _shards(tmp_path)
    assert max(shards.values()) <= CAP
    survivors = sum(shards.values())
    assert survivors < FLOOD  # some shard overflowed, so eviction ran

    rules, stepper = make_scheme_rules(), make_stepper()
    keys = {
        cache.lift_key(rules, stepper, parse_program(_program(i))): i
        for i in range(FLOOD)
    }
    replayed = 0
    for path in (tmp_path / "lift").rglob("*.bin"):
        source = _program(keys[path.stem])
        warm = LiftCache(tmp_path)
        assert _rendered(warm, source) == _rendered(None, source)
        assert warm.lift_hits == 1
        replayed += 1
    assert replayed == survivors


def test_trim_evicts_the_oldest_and_keeps_the_new_entry(tmp_path):
    store = CacheStore(tmp_path)
    keys = [f"ab{i:030x}" for i in range(5)]
    for age, key in enumerate(keys):
        assert store.put("lift", key, (age,))
        os.utime(store.path_for("lift", key), ns=(age, age))
    # The newest write carries the oldest mtime: it still survives.
    assert store.trim_shard("lift", keys[0], keep=3) == 2
    left = sorted(p.stem for p in (tmp_path / "lift" / "ab").glob("*.bin"))
    assert left == sorted([keys[0], keys[3], keys[4]])


def test_a_vanished_entry_counts_as_evicted(tmp_path, monkeypatch):
    store = CacheStore(tmp_path)
    keys = [f"cd{i:030x}" for i in range(3)]
    for key in keys:
        assert store.put("lift", key, ())
    quarantine = CacheStore._quarantine

    def racing_quarantine(path):
        path.unlink()  # a concurrent trim got there first
        quarantine(path)

    monkeypatch.setattr(CacheStore, "_quarantine", staticmethod(racing_quarantine))
    assert store.trim_shard("lift", keys[2], keep=1) == 2
    assert [p.stem for p in (tmp_path / "lift" / "cd").glob("*.bin")] == [
        keys[2]
    ]


def test_concurrent_stores_into_one_shard_stay_under_the_cap(tmp_path):
    """Writers racing on one shard (as pool workers and server sessions
    do) each trim after their own store; none fails, the shard ends at
    the cap, and every surviving entry still reads back."""
    store_count, writers, keep = 24, 6, 3
    errors = []

    def writer(w):
        store = CacheStore(tmp_path)
        try:
            for i in range(store_count):
                key = f"ee{w:02x}{i:028x}"
                assert store.put("lift", key, (w, i))
                store.trim_shard("lift", key, keep)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    left = list((tmp_path / "lift" / "ee").glob("*.bin"))
    assert 1 <= len(left) <= keep
    reader = CacheStore(tmp_path)
    for path in left:
        assert reader.get("lift", path.stem) is not None
    assert reader.counters["corrupt"] == 0
