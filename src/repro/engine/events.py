"""Typed events produced by the streaming lift engine.

A lift is a sequence of events, in core-evaluation order.  For every
core step the stream yields a :class:`CoreStepped` announcing the core
term, followed by exactly one *classification* event:

* :class:`SurfaceEmitted` — the term resugared and the surface term is
  new output (this is what a user-facing stepper displays);
* :class:`Deduped` — the term resugared but to the same surface term as
  the previously emitted one (consecutive core steps can differ only in
  machine state invisible at the surface);
* :class:`StepSkipped` — the term has no faithful surface representation
  (an unexpansion failed or an opaque body tag survived).

The stream ends with exactly one *terminal* event:

* :class:`Halted` — evaluation finished (the stepper returned no
  successor);
* :class:`BudgetExhausted` — a step-count or wall-clock budget ran out
  under the ``on_budget="truncate"`` policy (under ``"raise"`` the
  stream raises :class:`~repro.core.errors.ReproError` instead).

Tree lifts (:func:`repro.engine.stream.lift_tree_stream`) reuse the same
vocabulary: ``core_index`` is the breadth-first exploration order of the
core state, and :class:`SurfaceEmitted` additionally carries ``node_id``
and ``parent_id`` so the surface tree can be reconstructed from the
events alone.

Batch lifts (:mod:`repro.parallel`) lift a whole *corpus* of programs
and speak a coarser vocabulary: one :class:`BatchLifted` per finished
job, or one :class:`JobError` when that job's lift raised or exhausted
its budget under the ``"raise"`` policy.  A batch stream yields exactly
one of the two per job, in submission order, regardless of which worker
finished first — the determinism guarantee the parallel engine is
tested against.

Events are frozen dataclasses: safe to store, hash, and ship across
threads or serialization boundaries.  (:class:`BatchLifted` and
:class:`JobError` carry aggregate payloads — a result, a metrics
snapshot — so they are the exception: picklable and immutable, but not
hashable.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Tuple, Union

from repro.core.incremental import CacheStats
from repro.core.terms import Pattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.lift import LiftResult

__all__ = [
    "LiftEvent",
    "CoreStepped",
    "SurfaceEmitted",
    "StepSkipped",
    "Deduped",
    "Halted",
    "BudgetExhausted",
    "BatchLifted",
    "JobError",
]


class LiftEvent:
    """Marker base class for every event a lift stream yields."""

    __slots__ = ()


@dataclass(frozen=True)
class CoreStepped(LiftEvent):
    """The stepper reached core state ``core_index`` (0 is the desugared
    input program).  Always followed by a classification event for the
    same index."""

    core_index: int
    core_term: Pattern


@dataclass(frozen=True)
class SurfaceEmitted(LiftEvent):
    """Core step ``core_index`` has a (new) surface representation —
    display it.

    For tree lifts, ``node_id`` is the id of the surface node this event
    created and ``parent_id`` the id of its nearest resugarable ancestor
    (``None`` for a root).  Sequence lifts leave both ``None``.
    """

    core_index: int
    core_term: Pattern
    surface_term: Pattern
    node_id: Optional[int] = None
    parent_id: Optional[int] = None


@dataclass(frozen=True)
class Deduped(LiftEvent):
    """Core step ``core_index`` resugars to the same surface term as the
    previously emitted step; it is recorded but not displayed."""

    core_index: int
    core_term: Pattern
    surface_term: Pattern


@dataclass(frozen=True)
class StepSkipped(LiftEvent):
    """Core step ``core_index`` has no faithful surface representation
    (the paper's Abstraction property in action)."""

    core_index: int
    core_term: Pattern


@dataclass(frozen=True)
class Halted(LiftEvent):
    """Evaluation finished normally after ``core_step_count`` core
    steps.  ``cache_stats`` is the live per-run
    :class:`~repro.core.incremental.CacheStats` of the lift (``None``
    only on an event built outside the lifting loop)."""

    core_step_count: int
    cache_stats: Optional[CacheStats] = None


@dataclass(frozen=True)
class BudgetExhausted(LiftEvent):
    """A budget ran out before evaluation finished (only under
    ``on_budget="truncate"``; the ``"raise"`` policy raises instead).

    ``budget`` names the exhausted budget: ``"steps"`` (sequence lifts),
    ``"nodes"`` (tree lifts), or ``"seconds"`` (wall clock).  ``limit``
    is the configured bound.  Everything yielded before this event is a
    valid, well-formed prefix of the full lift.  ``cache_stats`` is as on
    :class:`Halted`; a budget cut of a cache replay carries the recorded
    complete run's stats (``docs/caching.md``).
    """

    core_step_count: int
    cache_stats: Optional[CacheStats] = None
    budget: str = "steps"
    limit: Union[int, float] = 0

    def describe(self) -> str:
        """A human-readable one-liner for CLIs and logs."""
        unit = {"steps": "core steps", "nodes": "core nodes"}.get(
            self.budget, self.budget
        )
        return (
            f"{self.budget} budget exhausted after {self.core_step_count} "
            f"core steps (limit: {self.limit:g} {unit})"
        )


@dataclass(frozen=True, eq=False)
class BatchLifted(LiftEvent):
    """Job ``job_index`` of a batch lift finished successfully.

    ``result`` is the job's :class:`~repro.core.lift.LiftResult`
    (``None`` when the batch ran with ``payload="rendered"``, which
    ships only the pretty-printed surface sequence to keep the
    cross-process payload small).  ``rendered`` is that pretty-printed
    sequence when a renderer was supplied.  ``worker`` is the pid of the
    process that ran the job, and ``metrics`` its per-job
    :func:`repro.obs.metrics_snapshot` when the batch collected metrics
    (merge them with :meth:`repro.obs.metrics.MetricsRegistry.merge`).
    ``spans`` is the job's span tree when the batch collected traces
    (``collect_spans=True``): a tuple of the JSONL-schema record dicts
    the job's :class:`repro.obs.SpanCollector` gathered, each stamped
    with the batch's trace id and this job's attribution; merge the
    per-job tuples with :func:`repro.parallel.aggregate_trace`.
    """

    job_index: int
    result: Optional["LiftResult"] = None
    rendered: Optional[Tuple[str, ...]] = None
    worker: Optional[int] = None
    metrics: Optional[Mapping[str, object]] = None
    spans: Optional[Tuple[Mapping[str, object], ...]] = None


@dataclass(frozen=True, eq=False)
class JobError(LiftEvent):
    """Job ``job_index`` of a batch lift failed; its siblings did not.

    The failure is *contained*: the stepper raising mid-evaluation, an
    :class:`~repro.core.lift.EmulationViolation`, or an exhausted budget
    under ``on_budget="raise"`` all surface here as a structured record
    — ``error_type`` is the original exception class name,
    ``error_message`` its text, ``traceback`` the worker-side formatted
    traceback — and the batch carries on with the remaining jobs.  When
    the batch collected traces, ``spans`` carries the spans the job
    finished before failing (its open spans are lost), so a failed job
    still contributes a partial trace.
    """

    job_index: int
    error_type: str
    error_message: str
    traceback: str = ""
    worker: Optional[int] = None
    spans: Optional[Tuple[Mapping[str, object], ...]] = None

    def describe(self) -> str:
        """A human-readable one-liner for CLIs and logs."""
        return (
            f"job {self.job_index} failed: "
            f"{self.error_type}: {self.error_message}"
        )
