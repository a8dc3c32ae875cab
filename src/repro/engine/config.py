"""The options of one lift, declared and validated in one place.

Every lift entry point — :func:`repro.engine.stream.lift_events` and
its keyword wrappers, :func:`repro.core.lift.lift_evaluation`,
:class:`~repro.confection.Confection`, a batch
:class:`~repro.parallel.LiftJob`, a server ``LiftRequest``, and the
CLI — runs under one frozen :class:`LiftConfig`, and the persistent
cache derives its key from the same object.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, fields
from typing import List, Optional, Tuple

__all__ = ["LiftConfig", "LIFT_MODES", "ON_BUDGET_POLICIES"]

LIFT_MODES = ("sequence", "tree")
ON_BUDGET_POLICIES = ("raise", "truncate")

# Field metadata for options that never reach the cache key.
_NOT_KEY = {"key": False}


def _require(ok: bool, name: str, wanted, value) -> None:
    """Raise unless ``ok``; ``wanted`` is a description or the tuple of
    allowed values (formatted only on failure)."""
    if not ok:
        if isinstance(wanted, tuple):
            wanted = f"one of {wanted}"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class LiftConfig:
    """Every option of one lift.

    ``mode``
        ``"sequence"`` (default) lifts a deterministic evaluation into a
        surface sequence; ``"tree"`` explores a nondeterministic one
        breadth-first into a surface tree (section 5.3).
    ``dedup``
        Sequences only (default ``True``): a surface term equal to the
        previously emitted one becomes a ``Deduped`` event instead of
        new output.  Trees never dedup, so it is ``None`` for them.
    ``check_emulation``
        Verify that every emitted surface term desugars back into the
        core term it represents (Theorem 3's dynamic backstop), raising
        :class:`~repro.core.lift.EmulationViolation` otherwise.
    ``incremental``
        Accepted only as ``True``, so that callers passing it keep
        working: every lift resugars through a per-run
        :class:`~repro.core.incremental.ResugarCache`, so a step costs
        work proportional to the rewritten spine.  It is not stored;
        the cache key keeps its ``;inc=True`` bytes.
    ``max_steps``
        Step budget: core indices ``0..max_steps`` run.  For trees it
        is the number of explored core nodes, and may be given as
        ``max_nodes`` (the tree entry points' historical name).
    ``max_seconds``
        Wall-clock budget, a finite number of seconds >= 0 measured
        from the start of stepping (``None``: no clock).
    ``on_budget``
        ``"raise"`` (default) raises
        :class:`~repro.core.errors.ReproError` when a budget runs out;
        ``"truncate"`` ends the stream with a ``BudgetExhausted`` event
        after a valid prefix of the full lift.

    Every field is cache-key material unless its metadata says
    ``key=False``: budgets select a prefix of the one complete lift.  A
    new option is therefore keyed unless it opts out.  The stepper is
    keyed through its own fingerprint.
    """

    mode: str = "sequence"
    dedup: Optional[bool] = None
    check_emulation: bool = field(default=True, metadata={"tag": "emu"})
    max_steps: int = field(default=100_000, metadata=_NOT_KEY)
    max_seconds: Optional[float] = field(default=None, metadata=_NOT_KEY)
    on_budget: str = field(default="raise", metadata=_NOT_KEY)
    max_nodes: InitVar[Optional[int]] = None
    incremental: InitVar[bool] = True

    def __post_init__(self, max_nodes: Optional[int], incremental: bool) -> None:
        _require(incremental is True, "incremental", "True", incremental)
        _require(self.mode in LIFT_MODES, "mode", LIFT_MODES, self.mode)
        tree = self.mode == "tree"
        if max_nodes is not None:
            _require(tree, "max_nodes", "used with mode='tree' only",
                     max_nodes)
            object.__setattr__(self, "max_steps", max_nodes)
        if self.dedup is None and not tree:
            object.__setattr__(self, "dedup", True)
        _require(
            self.dedup is None if tree else isinstance(self.dedup, bool),
            "dedup", "None for trees" if tree else "a bool", self.dedup,
        )
        _require(isinstance(self.check_emulation, bool), "check_emulation",
                 "a bool", self.check_emulation)
        steps = self.max_steps
        _require(
            isinstance(steps, int) and not isinstance(steps, bool)
            and steps >= 0,
            "max_steps", "an integer >= 0", steps,
        )
        seconds = self.max_seconds
        _require(
            seconds is None
            or (isinstance(seconds, (int, float))
                and not isinstance(seconds, bool)
                and 0 <= seconds < math.inf),
            "max_seconds", "a finite number >= 0", seconds,
        )
        _require(self.on_budget in ON_BUDGET_POLICIES, "on_budget",
                 ON_BUDGET_POLICIES, self.on_budget)

    @classmethod
    def resolve(cls, mode: str, config: Optional["LiftConfig"], options):
        """The config a ``mode``-named entry point runs: ``config``
        itself, or one built from the keyword ``options``."""
        if config is None:
            return cls(mode=mode, **options)
        if options or config.mode != mode:
            raise TypeError(
                f"pass a {mode} LiftConfig or keyword options, not both"
            )
        return config

    @classmethod
    def key_fields(cls) -> Tuple[str, ...]:
        """The names of the cache-key fields, in key order."""
        return tuple(name for name, _ in _KEY_TAGS)

    def key_parts(self) -> List[bytes]:
        """This config's cache-key bytes: ``;tag=value`` per key field,
        then the constant ``;inc=True`` that keys have always carried."""
        return [
            f";{tag}={getattr(self, name)}".encode() for name, tag in _KEY_TAGS
        ] + [b";inc=True"]


# (field name, key tag) of every key field, in declaration order.
_KEY_TAGS = tuple(
    (f.name, f.metadata.get("tag", f.name))
    for f in fields(LiftConfig)
    if f.metadata.get("key", True)
)
