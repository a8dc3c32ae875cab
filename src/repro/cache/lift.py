"""The whole-lift cache the engine talks to.

A :class:`LiftCache` wraps one :class:`~repro.cache.store.CacheStore`
directory holding one tier, ``lift/``: the complete recorded event
stream of a lift that ran to :class:`~repro.engine.events.Halted`, keyed
by (program digest, ruleset fingerprint, engine fingerprint) — budgets
are not key material.  A hit means the engine replays the recorded
frames, cut at the request's own budget, and never steps at all; a
repeated corpus costs disk reads.  A miss costs what a cacheless lift
costs, plus one :meth:`LiftCache.store_lift`.

What is deliberately NOT cacheable: lifts through a stepper with no
stable identity (:func:`~repro.cache.keys.stepper_fingerprint` returned
``None``).  :meth:`lift_key` returns ``None`` for them, which the engine
treats as "run cold, store nothing".  Storing is further gated on the
stream ending in ``Halted`` within :data:`MAX_LIFT_EVENTS` events: a
lift cut by a budget, abandoned mid-stream, cancelled via
``should_stop``, ended by an exception, or too long never populates the
tier.  The tier is bounded too: each store trims its shard directory to
:data:`MAX_LIFT_ENTRIES_PER_SHARD` entries, oldest first.

Each instance also keeps the recordings it stored or read back, decoded,
in memory: a lift is a deterministic function of its key, so a recording
can never go stale, and a repeated program then costs no disk read and
no unpickling.  The map is bounded by :data:`MAX_MEMO_EVENTS` recorded
events, least recently used first out, and is per instance: a fresh
instance reads, verifies and quarantines disk entries as before.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from copy import copy
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.cache.keys import lift_key as _lift_key
from repro.cache.keys import ruleset_fingerprint
from repro.cache.store import CacheStore
from repro.core.intern import intern_generation
from repro.core.rules import RuleList
from repro.core.terms import Pattern
from repro.engine.config import LiftConfig
from repro.engine.events import Halted, LiftEvent
from repro.obs.metrics import (
    CACHE_CORRUPT,
    CACHE_LIFT_HITS,
    CACHE_LIFT_MEMO_HITS,
    CACHE_LIFT_MISSES,
)

__all__ = [
    "BoundedLRU",
    "LiftCache",
    "MAX_LIFT_EVENTS",
    "MAX_LIFT_ENTRIES_PER_SHARD",
    "MAX_MEMO_EVENTS",
]

LIFT_TIER = "lift"

# Longer recordings (about 10k core steps) are not stored: this bounds
# each whole-lift entry and spares a long lift the pickle and write.
MAX_LIFT_EVENTS = 20_000

# Recorded events an instance keeps decoded in memory, over all its
# recordings: room for a few of the longest storable lifts, or a hot set
# of thousands of short ones.
MAX_MEMO_EVENTS = 4 * MAX_LIFT_EVENTS

# Entries kept per two-hex-char shard directory (16,384 over the 256
# shards): distinct programs from remote clients cannot grow the tier
# without limit.  Each store evicts its own shard's oldest writes.
MAX_LIFT_ENTRIES_PER_SHARD = 64

# The directory name of the removed memo tier, kept only for
# perfbench/layers.py; it goes with the next perfbench change.
MEMO_TIER = "memo"


class BoundedLRU(OrderedDict):
    """A map bounded by the total ``weight`` of its values, least
    recently used first out.  A value heavier than the bound alone is
    not kept.  Not locked: the owner serializes access."""

    def __init__(self, bound: int, weight: Callable[[object], int]) -> None:
        super().__init__()
        self.bound = bound
        self.weight = weight
        self.total = 0

    def recall(self, key):
        """The value for ``key`` (now the most recently used), or
        ``None``."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def remember(self, key, value) -> None:
        """Put ``value`` under ``key``, evicting the least recently used
        values past the bound."""
        old = self.pop(key, None)
        if old is not None:
            self.total -= self.weight(old)
        size = self.weight(value)
        if size > self.bound:
            return
        self[key] = value
        self.total += size
        while self.total > self.bound:
            _key, evicted = self.popitem(last=False)
            self.total -= self.weight(evicted)

    def clear(self) -> None:
        super().clear()
        self.total = 0


class LiftCache:
    """Persistent lift cache over one directory (see module docstring).

    Cheap to construct — state is a path, counters and an empty
    in-memory map — so workers can each build their own against a
    shared directory.  One instance may be shared by threads (the
    server's sessions share one); a lock guards the map and counters.
    All I/O and corruption handling is delegated to
    :class:`CacheStore`: any broken entry reads as a cold miss, never
    an exception.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.store = CacheStore(root)
        self.lift_hits = 0  # memory and disk hits alike
        self.lift_misses = 0
        self.memo_hits = 0
        self._memo = BoundedLRU(MAX_MEMO_EVENTS, len)
        self._memo_generation = intern_generation()
        self._lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self.store.root

    def lift_key(
        self,
        rules: RuleList,
        stepper,
        surface_term: Pattern,
        config: Optional[LiftConfig] = None,
        **options,
    ) -> Optional[str]:
        """The cache key for one lift request under ``config`` (or the
        :class:`~repro.engine.config.LiftConfig` keyword ``options``),
        or ``None`` when the stepper is unidentifiable.  Budgets and
        ``on_budget`` never reach the key: every budgeted lift is a
        prefix of the one complete recording."""
        if config is None:
            config = LiftConfig(**options)
        return _lift_key(rules, stepper, surface_term, config)

    def lookup_lift(self, key: str) -> Optional[Tuple[LiftEvent, ...]]:
        """The recorded event stream for ``key``, or ``None`` (cold).

        The in-memory map answers first.  Otherwise the disk payload is
        shape-checked on top of the store's checksum: it must be a tuple
        of lift events ending in ``Halted``.  Anything else is treated
        exactly like file corruption — evicted, counted, and reported
        cold.  A verified disk hit joins the map.  The returned tuple
        may be shared with later hits: callers must not mutate what its
        events hold.
        """
        value = self.recall(key)
        if value is not None:
            return value
        value = self.store.get(LIFT_TIER, key)
        if value is not None and not (
            isinstance(value, tuple)
            and value
            and all(isinstance(ev, LiftEvent) for ev in value)
            and isinstance(value[-1], Halted)
        ):
            self.store._quarantine(self.store.path_for(LIFT_TIER, key))
            self.store.counters["corrupt"] += 1
            CACHE_CORRUPT.inc()
            value = None
        with self._lock:
            if value is None:
                self.lift_misses += 1
                CACHE_LIFT_MISSES.inc()
                return None
            self.lift_hits += 1
            CACHE_LIFT_HITS.inc()
            self._memo.remember(key, value)
        return value

    def recall(self, key: str) -> Optional[Tuple[LiftEvent, ...]]:
        """The recording for ``key`` if the in-memory map holds it,
        counted as a memory hit; otherwise ``None``, counting nothing.
        Never reads disk: the memory half of :meth:`lookup_lift`."""
        with self._lock:
            self._check_generation()
            value = self._memo.recall(key)
            if value is not None:
                self.lift_hits += 1
                self.memo_hits += 1
                CACHE_LIFT_HITS.inc()
                CACHE_LIFT_MEMO_HITS.inc()
            return value

    def store_lift(self, key: str, events: Tuple[LiftEvent, ...]) -> bool:
        """Record a *complete* event stream.  Anything not ending in
        ``Halted`` (a budget cut, a cancellation) is refused, and so is
        a stream longer than :data:`MAX_LIFT_EVENTS`.  A stored entry
        then trims its shard to :data:`MAX_LIFT_ENTRIES_PER_SHARD`.
        An accepted stream joins the in-memory map, with its own copy of
        the terminal stats (the producer's stay live and mutable)."""
        if not (
            events
            and isinstance(events[-1], Halted)
            and len(events) <= MAX_LIFT_EVENTS
        ):
            return False
        last = events[-1]
        events = tuple(events[:-1]) + (
            replace(last, cache_stats=copy(last.cache_stats)),
        )
        with self._lock:
            self._check_generation()
            self._memo.remember(key, events)
        if not self.store.put(LIFT_TIER, key, events):
            return False
        self.store.trim_shard(LIFT_TIER, key, MAX_LIFT_ENTRIES_PER_SHARD)
        return True

    def _check_generation(self) -> None:
        """Drop the map after ``clear_intern_caches()`` (lock held): its
        terms are canonical only in the generation that built them, and
        a disk hit re-interns into the current one."""
        generation = intern_generation()
        if generation != self._memo_generation:
            self._memo.clear()
            self._memo_generation = generation

    # --- removed memo tier -------------------------------------------
    # No-op stand-ins, kept only because perfbench/layers.py still calls
    # them; they go with the next perfbench change.

    def memo_key(self, rules: RuleList) -> str:  # perfbench/layers.py only
        return ruleset_fingerprint(rules)

    def hydrate(self, cache) -> int:  # perfbench/layers.py only
        return 0

    def persist_memo(self, cache) -> bool:  # perfbench/layers.py only
        return False

    # --- bookkeeping -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """This instance's runtime counters plus the store's.
        ``lift_hits`` counts memory and disk hits alike; ``memo_hits``
        and ``disk_hits`` split it."""
        out: Dict[str, object] = dict(self.store.counters)
        with self._lock:
            out["lift_hits"] = self.lift_hits
            out["lift_misses"] = self.lift_misses
            out["memo_hits"] = self.memo_hits
            out["disk_hits"] = self.lift_hits - self.memo_hits
            out["memo_recordings"] = len(self._memo)
            out["memo_events"] = self._memo.total
        out["root"] = str(self.root)
        return out
