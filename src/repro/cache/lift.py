"""The two-tier lift cache the engine talks to.

A :class:`LiftCache` wraps one :class:`~repro.cache.store.CacheStore`
directory with the two tiers the streaming engine uses:

* **Whole-lift tier** (``lift/``): the complete recorded event stream
  of a lift that ran to :class:`~repro.engine.events.Halted`, keyed by
  (program digest, ruleset fingerprint, engine fingerprint) — budgets
  are not key material.  A hit means the engine replays the recorded
  frames, cut at the request's own budget, and never steps at all; a
  repeated corpus costs disk reads.
* **Memo tier** (``memo/``): a :class:`~repro.core.incremental.ResugarCache`
  snapshot keyed by ruleset fingerprint alone — every entry is a pure
  per-subterm function of the rules, so a *new* program still warm-starts
  from every subterm any earlier program shared.

What is deliberately NOT cacheable: lifts through a stepper with no
stable identity (:func:`~repro.cache.keys.stepper_fingerprint` returned
``None``).  :meth:`lift_key` returns ``None`` for them, which the engine
treats as "run cold, store nothing".  Storing is further gated on the
stream ending in ``Halted`` within :data:`MAX_LIFT_EVENTS` events: a
lift cut by a budget, abandoned mid-stream, cancelled via
``should_stop``, ended by an exception, or too long never populates the
whole-lift tier.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cache.keys import lift_key as _lift_key
from repro.cache.keys import ruleset_fingerprint
from repro.cache.store import CacheStore
from repro.core.incremental import ResugarCache
from repro.core.rules import RuleList
from repro.core.terms import Pattern
from repro.engine.config import LiftConfig
from repro.engine.events import Halted, LiftEvent
from repro.obs.metrics import (
    CACHE_CORRUPT,
    CACHE_LIFT_HITS,
    CACHE_LIFT_MISSES,
    CACHE_MEMO_HYDRATED,
)

__all__ = ["LiftCache", "DEFAULT_MAX_MEMO_ENTRIES", "MAX_LIFT_EVENTS"]

LIFT_TIER = "lift"
MEMO_TIER = "memo"

# Memo blobs above this many entries stop growing on disk: hydration
# cost would start rivaling the work saved, and a runaway workload must
# not turn the cache directory into a term-table dump.
DEFAULT_MAX_MEMO_ENTRIES = 200_000

# Longer recordings (about 10k core steps) are not stored: this bounds
# each whole-lift entry and spares a long lift the pickle and write.
MAX_LIFT_EVENTS = 20_000


class LiftCache:
    """Persistent lift cache over one directory (see module docstring).

    Cheap to construct — state is a path plus counters — so workers can
    each build their own against a shared directory.  All I/O and
    corruption handling is delegated to :class:`CacheStore`: any broken
    entry reads as a cold miss, never an exception.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_memo_entries: int = DEFAULT_MAX_MEMO_ENTRIES,
    ) -> None:
        self.store = CacheStore(root)
        self.max_memo_entries = max_memo_entries
        self.lift_hits = 0
        self.lift_misses = 0
        # memo key -> entry count already persisted/hydrated, so
        # persist_memo can skip rewriting a blob that learned nothing.
        self._memo_seen: Dict[str, int] = {}

    @property
    def root(self) -> Path:
        return self.store.root

    # --- whole-lift tier ---------------------------------------------

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

        The payload is shape-checked on top of the store's checksum: it
        must be a tuple of lift events ending in ``Halted``.  Anything
        else is treated exactly like file corruption — evicted, counted,
        and reported cold.
        """
        value = self.store.get(LIFT_TIER, key)
        if value is None:
            self.lift_misses += 1
            CACHE_LIFT_MISSES.inc()
            return None
        if not (
            isinstance(value, tuple)
            and value
            and all(isinstance(ev, LiftEvent) for ev in value)
            and isinstance(value[-1], Halted)
        ):
            self.store._quarantine(self.store.path_for(LIFT_TIER, key))
            self.store.counters["corrupt"] += 1
            CACHE_CORRUPT.inc()
            self.lift_misses += 1
            CACHE_LIFT_MISSES.inc()
            return None
        self.lift_hits += 1
        CACHE_LIFT_HITS.inc()
        return value

    def store_lift(self, key: str, events: Tuple[LiftEvent, ...]) -> bool:
        """Record a *complete* event stream.  Anything not ending in
        ``Halted`` (a budget cut, a cancellation) is refused, and so is
        a stream longer than :data:`MAX_LIFT_EVENTS`."""
        if not (
            events
            and isinstance(events[-1], Halted)
            and len(events) <= MAX_LIFT_EVENTS
        ):
            return False
        return self.store.put(LIFT_TIER, key, tuple(events))

    # --- memo tier ---------------------------------------------------

    def memo_key(self, rules: RuleList) -> str:
        return ruleset_fingerprint(rules)

    def hydrate(self, cache: ResugarCache) -> int:
        """Preload a fresh :class:`ResugarCache` from the persisted memo
        snapshot for its rulelist; entries added (0 when cold)."""
        key = self.memo_key(cache.rules)
        exported = self.store.get(MEMO_TIER, key)
        if not isinstance(exported, dict):
            if exported is not None:
                self.store._quarantine(self.store.path_for(MEMO_TIER, key))
                self.store.counters["corrupt"] += 1
                CACHE_CORRUPT.inc()
            return 0
        try:
            added = cache.hydrate_memo(exported)
        except Exception:
            # A snapshot that will not hydrate (malformed shapes that
            # survived unpickling) is corruption by another name.
            self.store._quarantine(self.store.path_for(MEMO_TIER, key))
            self.store.counters["corrupt"] += 1
            CACHE_CORRUPT.inc()
            return 0
        if added:
            CACHE_MEMO_HYDRATED.inc(added)
        self._memo_seen[key] = cache.memo_size()
        return added

    def persist_memo(self, cache: ResugarCache) -> bool:
        """Write back a run's memo tables, merged over what is on disk.

        Skipped when the run learned nothing new since hydration or the
        blob would exceed :attr:`max_memo_entries` (growth stops, the
        existing blob stays).  Two concurrent writers race benignly:
        both snapshots are valid, :func:`os.replace` keeps whichever
        lands last, and the loser's *novel* entries are recomputed and
        re-merged by a later run.
        """
        size = cache.memo_size()
        key = self.memo_key(cache.rules)
        if size == 0 or size == self._memo_seen.get(key):
            return False
        if size > self.max_memo_entries:
            return False
        exported = cache.export_memo()
        existing = self.store.get(MEMO_TIER, key)
        if isinstance(existing, dict):
            # Keep disk entries this run did not recompute: merge is
            # last-writer-wins per entry, and every entry for one
            # ruleset fingerprint is deterministic, so order is moot.
            merged = {}
            for name in ("raw", "bad", "strip", "desugar", "skel"):
                table = {}
                for k, v in existing.get(name, ()):
                    table[k] = v
                for k, v in exported.get(name, ()):
                    table[k] = v
                merged[name] = list(table.items())
            total = sum(len(v) for v in merged.values())
            if total > self.max_memo_entries:
                return False
            exported = merged
        ok = self.store.put(MEMO_TIER, key, exported)
        if ok:
            self._memo_seen[key] = size
        return ok

    # --- bookkeeping -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """This instance's runtime counters plus the store's."""
        out: Dict[str, object] = dict(self.store.counters)
        out["lift_hits"] = self.lift_hits
        out["lift_misses"] = self.lift_misses
        out["root"] = str(self.root)
        return out
