"""Adversarial cache-corruption suite.

The store's contract: a damaged, truncated, mismatched, or concurrently
written cache file can only ever mean *cold* — never an exception in the
lift path, and never wrong bytes in a result.  Every test here damages a
real entry some specific way and asserts all three prongs: the read
degrades to a miss, the ``corrupt`` counter moves, and a subsequent lift
recomputes the correct answer (repopulating the entry).
"""

from __future__ import annotations

import struct

import pytest

from repro.cache import CacheStore, FORMAT_VERSION, LiftCache, MAGIC
from repro.cache.lift import LIFT_TIER
from repro.confection import Confection
from repro.engine.registry import get_backend

PROGRAM = "(or (not #t) (not #f))"


@pytest.fixture()
def backend():
    return get_backend("lambda")


def _engine(backend, cache):
    return Confection(
        backend.make_rules(None), backend.make_stepper(), cache=cache
    )


def _warm_entry(tmp_path, backend):
    """Run one lift cold so the store holds a real lift entry;
    returns (cache, expected rendered trace, lift entry path)."""
    cache = LiftCache(tmp_path)
    engine = _engine(backend, cache)
    result = engine.lift(backend.parse(PROGRAM))
    rendered = [backend.pretty(t) for t in result.surface_sequence]
    paths = list((tmp_path / LIFT_TIER).rglob("*.bin"))
    assert len(paths) == 1
    return cache, rendered, paths[0]


def _relift(tmp_path, backend):
    cache = LiftCache(tmp_path)
    engine = _engine(backend, cache)
    result = engine.lift(backend.parse(PROGRAM))
    return cache, [backend.pretty(t) for t in result.surface_sequence]


def _assert_recovers(tmp_path, backend, rendered, *, expect_corrupt=True):
    """After damage: the lift still returns the right answer, the damage
    was counted as corruption (not a crash), and the entry is rebuilt."""
    cache, again = _relift(tmp_path, backend)
    assert again == rendered
    if expect_corrupt:
        assert cache.store.counters["corrupt"] >= 1
    assert cache.store.counters["errors"] == 0
    # Recomputation repopulated the entry; the next run hits cleanly.
    warm_cache, warm = _relift(tmp_path, backend)
    assert warm == rendered
    assert warm_cache.lift_hits == 1
    assert warm_cache.store.counters["corrupt"] == 0


class TestDamagedLiftEntries:
    def test_truncated_file_reads_cold(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        _assert_recovers(tmp_path, backend, rendered)

    def test_empty_file_reads_cold(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        path.write_bytes(b"")
        _assert_recovers(tmp_path, backend, rendered)

    def test_garbage_file_reads_cold(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        path.write_bytes(b"\x00\xff" * 512)
        _assert_recovers(tmp_path, backend, rendered)

    def test_flipped_payload_byte_reads_cold(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # checksum now lies about the payload
        path.write_bytes(bytes(data))
        _assert_recovers(tmp_path, backend, rendered)

    def test_version_stamp_mismatch_reads_cold(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        data = bytearray(path.read_bytes())
        struct.pack_into(">H", data, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        _assert_recovers(tmp_path, backend, rendered)

    def test_entry_copied_to_wrong_key_reads_cold(self, tmp_path, backend):
        """A valid entry renamed onto another key's path must not serve:
        the embedded key check catches it even though magic, version,
        and checksum are all intact."""
        cache, rendered, path = _warm_entry(tmp_path, backend)
        # Same shard prefix, different key — the path layout alone
        # cannot tell the copy from a genuine entry.
        wrong_key = path.stem[:2] + "0" * (len(path.stem) - 2)
        other = path.parent / (wrong_key + ".bin")
        other.write_bytes(path.read_bytes())
        assert cache.store.get(LIFT_TIER, wrong_key) is None
        assert cache.store.counters["corrupt"] == 1
        assert not other.exists()  # quarantined
        # The original, untouched entry still serves.
        warm_cache, warm = _relift(tmp_path, backend)
        assert warm == rendered and warm_cache.lift_hits == 1

    def test_valid_pickle_of_wrong_shape_reads_cold(self, tmp_path, backend):
        """A checksummed entry whose payload is not an event stream is
        corruption by another name — the shape gate catches it."""
        cache, rendered, path = _warm_entry(tmp_path, backend)
        key = path.stem
        assert cache.store.put(LIFT_TIER, key, {"not": "events"})
        fresh = LiftCache(tmp_path)
        assert fresh.lookup_lift(key) is None
        assert fresh.store.counters["corrupt"] == 1
        assert not path.exists()  # evicted
        _assert_recovers(tmp_path, backend, rendered, expect_corrupt=False)

    def test_quarantine_evicts_damaged_entry(self, tmp_path, backend):
        _, rendered, path = _warm_entry(tmp_path, backend)
        path.write_bytes(b"junk")
        cache = LiftCache(tmp_path)
        assert cache.store.get(LIFT_TIER, path.stem) is None
        assert not path.exists()


class TestTornAndConcurrentWrites:
    def test_orphaned_tmp_file_is_invisible_and_cleared(
        self, tmp_path, backend
    ):
        _, rendered, path = _warm_entry(tmp_path, backend)
        orphan = path.parent / ".tmp-99999-dead"
        orphan.write_bytes(b"half a wri")
        cache, warm = _relift(tmp_path, backend)
        assert warm == rendered
        assert cache.lift_hits == 1  # the real entry still serves
        assert cache.store.counters["corrupt"] == 0
        store = CacheStore(tmp_path)
        store.clear()
        assert not orphan.exists()

    def test_concurrent_writers_same_key(self, tmp_path, backend):
        """Two pool workers lifting the same program race to write one
        key.  Both must succeed, and the surviving entry must verify and
        replay — immutable content-addressed entries make the race
        benign (same key, same bytes)."""
        from repro.parallel import lift_corpus

        engine_spec = (backend.make_rules(None), backend.make_stepper())
        corpus = [backend.parse(PROGRAM)] * 4
        outcomes = lift_corpus(
            engine_spec,
            corpus,
            jobs=2,
            payload="rendered",
            pretty=backend.pretty,
            cache_dir=tmp_path,
        )
        rendered = [list(o.rendered) for o in outcomes]
        assert all(r == rendered[0] for r in rendered)
        # Exactly one surviving lift entry, and it verifies cleanly.
        paths = list((tmp_path / LIFT_TIER).rglob("*.bin"))
        assert len(paths) == 1
        fresh = LiftCache(tmp_path)
        assert fresh.lookup_lift(paths[0].stem) is not None
        assert fresh.store.counters["corrupt"] == 0
        # And a warm in-process lift byte-matches the workers' output.
        _, warm = _relift(tmp_path, backend)
        assert warm == rendered[0]

    def test_interleaved_stores_do_not_corrupt(self, tmp_path):
        """Simulated torn write: a writer that crashed mid-``put`` left
        only a temp file; readers under the final name never see it."""
        store = CacheStore(tmp_path)
        assert store.put("lift", "aa" * 16, (1, 2, 3))
        assert store.get("lift", "aa" * 16) == (1, 2, 3)
        # A second writer's value for the same key atomically replaces.
        assert store.put("lift", "aa" * 16, (1, 2, 3))
        assert store.get("lift", "aa" * 16) == (1, 2, 3)
        assert store.counters["corrupt"] == 0


class TestWritePathContainment:
    def test_unwritable_tiers_degrade_to_uncached(self, tmp_path, backend):
        """A cache directory whose tier paths cannot be created (here:
        blocked by regular files — permission bits are no obstacle to a
        root test runner) must not break the lift; every failure lands
        in the ``errors`` counter."""
        root = tmp_path / "blocked"
        root.mkdir()
        (root / LIFT_TIER).write_bytes(b"not a directory")
        cache = LiftCache(root)
        engine = _engine(backend, cache)
        result = engine.lift(backend.parse(PROGRAM))
        assert [backend.pretty(t) for t in result.surface_sequence]
        assert cache.store.counters["errors"] >= 1
        assert cache.store.counters["corrupt"] == 0

    def test_unpicklable_payload_is_contained(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.put("lift", "bb" * 16, lambda: None) is False
        assert store.counters["errors"] == 1
        assert store.get("lift", "bb" * 16) is None
