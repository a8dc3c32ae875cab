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
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cache.keys import lift_key as _lift_key
from repro.cache.keys import ruleset_fingerprint
from repro.cache.store import CacheStore
from repro.core.rules import RuleList
from repro.core.terms import Pattern
from repro.engine.config import LiftConfig
from repro.engine.events import Halted, LiftEvent
from repro.obs.metrics import CACHE_CORRUPT, CACHE_LIFT_HITS, CACHE_LIFT_MISSES

__all__ = ["LiftCache", "MAX_LIFT_EVENTS", "MAX_LIFT_ENTRIES_PER_SHARD"]

LIFT_TIER = "lift"

# Longer recordings (about 10k core steps) are not stored: this bounds
# each whole-lift entry and spares a long lift the pickle and write.
MAX_LIFT_EVENTS = 20_000

# Entries kept per two-hex-char shard directory (16,384 over the 256
# shards): distinct programs from remote clients cannot grow the tier
# without limit.  Each store evicts its own shard's oldest writes.
MAX_LIFT_ENTRIES_PER_SHARD = 64

# The directory name of the removed memo tier, kept only for
# perfbench/layers.py; it goes with the next perfbench change.
MEMO_TIER = "memo"


class LiftCache:
    """Persistent lift cache over one directory (see module docstring).

    Cheap to construct — state is a path plus counters — so workers can
    each build their own against a shared directory.  All I/O and
    corruption handling is delegated to :class:`CacheStore`: any broken
    entry reads as a cold miss, never an exception.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.store = CacheStore(root)
        self.lift_hits = 0
        self.lift_misses = 0

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
        a stream longer than :data:`MAX_LIFT_EVENTS`.  A stored entry
        then trims its shard to :data:`MAX_LIFT_ENTRIES_PER_SHARD`."""
        if not (
            events
            and isinstance(events[-1], Halted)
            and len(events) <= MAX_LIFT_EVENTS
        ):
            return False
        if not self.store.put(LIFT_TIER, key, tuple(events)):
            return False
        self.store.trim_shard(LIFT_TIER, key, MAX_LIFT_ENTRIES_PER_SHARD)
        return True

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
        """This instance's runtime counters plus the store's."""
        out: Dict[str, object] = dict(self.store.counters)
        out["lift_hits"] = self.lift_hits
        out["lift_misses"] = self.lift_misses
        out["root"] = str(self.root)
        return out
