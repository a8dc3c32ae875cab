"""Persistent content-addressed caching for lifted evaluation.

Resugaring is deterministic: the surface trace of a (program, ruleset,
engine-config) triple never changes.  This package makes that pay across
processes and runs — a :class:`LiftCache` directory holds the recorded
event streams of complete lifts, keyed by content digests so a stale or
wrong hit is structurally impossible (see :mod:`repro.cache.keys` for
the key schema and :mod:`repro.cache.store` for the corruption
contract).  A miss runs the cacheless lift and stores its stream.

Entry points: pass ``cache=`` to the :class:`~repro.confection.Confection`
constructor or to the :mod:`repro.engine.stream` generators, ``--cache
DIR`` on the ``lift`` / ``lift-batch`` / ``serve`` CLI, or ``cache_dir=``
on :class:`~repro.parallel.WarmPool`.  ``repro cache stats|clear``
inspects and empties a directory.  ``docs/caching.md`` documents the
invalidation contract.
"""

from repro.cache.keys import (
    KEY_SCHEMA,
    engine_fingerprint,
    lift_key,
    ruleset_fingerprint,
    stepper_fingerprint,
    term_digest,
)
from repro.cache.lift import LiftCache
from repro.cache.store import FORMAT_VERSION, MAGIC, CacheStore

__all__ = [
    "KEY_SCHEMA",
    "MAGIC",
    "FORMAT_VERSION",
    "CacheStore",
    "LiftCache",
    "engine_fingerprint",
    "lift_key",
    "ruleset_fingerprint",
    "stepper_fingerprint",
    "term_digest",
]
