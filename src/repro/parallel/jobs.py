"""Job descriptions for batch lifting.

A :class:`LiftJob` is one program plus the
:class:`~repro.engine.config.LiftConfig` it should run under, frozen
into a picklable record so the job can cross a process boundary.
:func:`as_job` coerces the convenient forms a caller hands
:func:`repro.parallel.lift_corpus` (a bare term, DSL source text, or an
already-built job) into one.

The outcome vocabulary lives with the other lift events in
:mod:`repro.engine.events`: a finished job is a
:class:`~repro.engine.events.BatchLifted`, a failed one a
:class:`~repro.engine.events.JobError`.  Observability payloads ride
the outcome events the same way in both directions: per-job metrics
snapshots (``collect_metrics=True``) and per-job span trees with the
batch's trace context (``collect_spans=True``) — the job record itself
stays small: a program and a config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.terms import Pattern
from repro.engine.config import LiftConfig

__all__ = ["LiftJob", "as_job"]


@dataclass(frozen=True, init=False)
class LiftJob:
    """One (program, config) unit of a batch lift.

    ``program`` is a surface term (or rule-DSL source text, parsed by
    the engine exactly as :meth:`~repro.confection.Confection.lift`
    would).  ``name`` is a caller-chosen label carried through to CLI
    output and error reports; it never affects the lift.  ``config`` is
    the job's sequence :class:`~repro.engine.config.LiftConfig`, given
    whole or built from its keyword fields (``LiftJob(term,
    max_steps=5)``).
    """

    program: Union[Pattern, str]
    name: Optional[str]
    config: LiftConfig

    def __init__(self, program, name=None, config=None, **options):
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "config", LiftConfig.resolve("sequence", config, options)
        )


def as_job(obj: Union[LiftJob, Pattern, str], **defaults) -> LiftJob:
    """Coerce ``obj`` into a :class:`LiftJob`.

    Jobs pass through unchanged (``defaults`` are ignored for them —
    an explicit job is already fully specified); terms and DSL source
    strings are wrapped with ``defaults`` as their options.
    """
    if isinstance(obj, LiftJob):
        return obj
    if isinstance(obj, (Pattern, str)):
        return LiftJob(obj, **defaults)
    raise TypeError(
        f"corpus entries must be LiftJob, Pattern, or str, "
        f"got {type(obj).__name__}"
    )
