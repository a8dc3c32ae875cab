"""The lifting loop as a lazy event generator, and the folds back to
batch results.

:func:`lift_events` is the paper's lifting loop (section 5.3): desugar
once, then *emit a surface term, step the core, repeat* — yielding a
typed :mod:`~repro.engine.events` event at every juncture instead of
materializing a :class:`~repro.core.lift.LiftResult` up front.
Consumers see the first surface step as soon as it exists, hold at most
one event at a time, and can stop early by abandoning the generator.

There is one loop for both lift modes of
:class:`~repro.engine.config.LiftConfig` (which documents every
option).  A sequence lift is a tree lift whose frontier never holds
more than one state; the mode only decides the small parts: node ids
and parents (trees), consecutive-surface dedup and the
"nondeterministic step" error (sequences), and whether the budget
counts ``"steps"`` or ``"nodes"``.  :func:`lift_stream` and
:func:`lift_tree_stream` are keyword wrappers that build the config.

A persistent ``cache`` (:class:`repro.cache.LiftCache`) keys a lift on
the config's key fields, never on its budgets: only complete
(``Halted``) streams are recorded, and a hit replays the recording
through the cold loop's own budget gate, so it cuts where and as a cold
run would.  The wall clock runs against the replay: ``max_seconds=0``
cuts at index 0, a positive one gets the complete recording.  A hit
never desugars, steps or resugars.  A miss runs exactly the cacheless
loop, with its own fresh :class:`~repro.core.incremental.ResugarCache`,
and offers the complete stream to the cache once it halts.  Lifts
through an unidentifiable stepper run as if no cache were attached.

``should_stop`` is a *cooperative cancellation hook*: a zero-argument
callable polled once per core step.  When it returns true the generator
returns immediately — no terminal event, no more stepping.  This exists
for consumers that drive the generator from another thread (the session
server bridges a lift over an executor): the owning thread cannot
``close()`` a generator that a worker thread is iterating, but it *can*
flip a flag the hook reads.

:func:`fold_lift` and :func:`fold_tree` replay an event stream into the
batch :class:`~repro.core.lift.LiftResult` /
:class:`~repro.core.lift.SurfaceTree` values; the batch entry points in
:mod:`repro.core.lift` are exactly these folds, so streaming and batch
lifting cannot disagree.
"""

from __future__ import annotations

from collections import deque
from time import monotonic
from typing import Callable, Iterable, Iterator, Optional

from repro.core.desugar import desugar, resugar
from repro.core.errors import ReproError
from repro.core.incremental import ResugarCache
from repro.core.lenses import emulates
from repro.core.lift import (
    EmulationViolation,
    LiftedStep,
    LiftResult,
    Stepper,
    SurfaceTree,
)
from repro.core.recursion import deep_recursion
from repro.core.rules import RuleList
from repro.core.terms import Pattern
from repro.engine.config import LiftConfig
from repro.engine.events import (
    BudgetExhausted,
    CoreStepped,
    Deduped,
    Halted,
    LiftEvent,
    StepSkipped,
    SurfaceEmitted,
)
from repro.obs import _state as _obs
from repro.obs import provenance as _prov
from repro.obs.metrics import (
    LIFT_RUNS,
    LIFT_STEPS_DEDUPED,
    LIFT_STEPS_EMITTED,
    LIFT_STEPS_SKIPPED,
    LIFT_STEPS_TOTAL,
    MATCH_ATTEMPTS,
    MATCH_ATTEMPTS_PER_STEP,
)
from repro.obs.trace import span as _span

__all__ = [
    "lift_events",
    "lift_stream",
    "lift_tree_stream",
    "fold_lift",
    "fold_tree",
]

# Classification outcome -> the counter it moves (observability only).
_OUTCOME_COUNTERS = {
    "emitted": LIFT_STEPS_EMITTED,
    "deduped": LIFT_STEPS_DEDUPED,
    "skipped": LIFT_STEPS_SKIPPED,
}


class _Budget:
    """The one exhaustion gate of the cold loop and of cache replay.
    ``kind`` is ``"steps"`` (core indices 0..``limit`` run) or
    ``"nodes"`` (``limit`` nodes explored); the clock starts here."""

    def __init__(self, config: LiftConfig):
        self.kind = "nodes" if config.mode == "tree" else "steps"
        self.limit, self.on_budget = config.max_steps, config.on_budget
        self.stop_at = self.limit + 1 if self.kind == "steps" else self.limit
        self.max_seconds = config.max_seconds
        self.deadline = (
            None if self.max_seconds is None else monotonic() + self.max_seconds
        )

    def check(self, index, stats, span=None):
        """``None`` while core index ``index`` may still run; otherwise
        raise (``"raise"``) or return the terminal ``BudgetExhausted``
        (``"truncate"``) after marking ``span``."""
        if index >= self.stop_at:
            kind, limit = self.kind, self.limit
        elif self.deadline is not None and monotonic() >= self.deadline:
            kind, limit = "seconds", self.max_seconds
        else:
            return None
        if self.on_budget == "raise":
            subject = "evaluation" if self.kind == "steps" else "evaluation tree"
            if kind == "seconds":
                message = (
                    f"{subject} exceeded the {limit:g}s time budget after "
                    f"{index} core {self.kind}"
                )
            elif kind == "steps":
                message = f"evaluation did not finish within {limit} steps"
            else:
                message = f"evaluation tree exceeded {limit} core nodes"
            raise ReproError(message)
        if span is not None:
            span.attrs["truncated"] = kind
        return BudgetExhausted(index, stats, kind, limit)


def _replay(recorded, mode: str, should_stop, budget) -> Iterator[LiftEvent]:
    """Yield a recorded complete event stream (a whole-lift cache hit),
    cut by ``budget`` exactly where a cold run would stop.

    The frames are exactly what the cold run yielded — terms re-interned
    at load, stats intact — so folds and renderers cannot tell the
    difference; a cut ends in a ``BudgetExhausted`` carrying the
    recording's terminal stats.  Cancellation is still honored between
    frames.  Per-step instrumentation does not re-fire (nothing was
    resugared); with observability on, the run appears as a single
    ``lift`` span marked ``cache="hit"``.
    """
    if _obs.enabled:
        with _span("lift", mode=mode, cache="hit"):
            pass
    stats = recorded[-1].cache_stats
    for event in recorded:
        if should_stop is not None and should_stop():
            return
        if isinstance(event, CoreStepped):
            cut = budget.check(event.core_index, stats)
            if cut is not None:
                yield cut
                return
        yield event


def _recording(body, cache, cache_key: str) -> Iterator[LiftEvent]:
    """Pass ``body``'s events through, then offer the stream to the
    cache (:meth:`~repro.cache.LiftCache.store_lift` decides).  An
    abandoned generator or any raised error leaves before the offer."""
    events = []
    for event in body:
        events.append(event)
        yield event
    cache.store_lift(cache_key, tuple(events))


def lift_stream(
    rules: RuleList,
    stepper: "Stepper",
    surface_term: Pattern,
    *,
    config: Optional[LiftConfig] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    cache=None,
    **options,
) -> Iterator[LiftEvent]:
    """Lazily lift ``surface_term``'s evaluation sequence: per core step
    a :class:`CoreStepped`, then exactly one of :class:`SurfaceEmitted`
    / :class:`Deduped` / :class:`StepSkipped`; then :class:`Halted`, or
    :class:`BudgetExhausted` under ``on_budget="truncate"``.

    ``options`` are :class:`~repro.engine.config.LiftConfig` fields (or
    pass a sequence ``config``); ``should_stop`` and ``cache`` are as
    on :func:`lift_events`.
    """
    return lift_events(
        rules, stepper, surface_term, LiftConfig.resolve("sequence", config, options),
        should_stop=should_stop, cache=cache,
    )


def lift_tree_stream(
    rules: RuleList,
    stepper: "Stepper",
    surface_term: Pattern,
    *,
    config: Optional[LiftConfig] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    cache=None,
    **options,
) -> Iterator[LiftEvent]:
    """Lazily lift a nondeterministic evaluation tree, breadth-first.

    ``core_index`` is the exploration order of the core state, and
    :class:`SurfaceEmitted` carries ``node_id``/``parent_id`` so
    :func:`fold_tree` can rebuild the tree from events alone.  Options
    as on :func:`lift_stream`, for a tree config.
    """
    return lift_events(
        rules, stepper, surface_term, LiftConfig.resolve("tree", config, options),
        should_stop=should_stop, cache=cache,
    )


def lift_events(
    rules: RuleList,
    stepper: "Stepper",
    surface_term: Pattern,
    config: LiftConfig = LiftConfig(),
    *,
    should_stop: Optional[Callable[[], bool]] = None,
    cache=None,
) -> Iterator[LiftEvent]:
    """Lazily lift ``surface_term`` under ``config`` (sequence or tree).

    ``should_stop`` is the cooperative cancellation hook and ``cache``
    a persistent :class:`repro.cache.LiftCache` (see the module
    docstring).  With observability on (:mod:`repro.obs`), the run is
    wrapped in a ``lift`` span, every core step gets a ``lift.step``
    child span carrying its index and outcome, and the ``lift.steps_*``
    counters move per event; disabled, the loop pays one branch per
    step.
    """
    stepper = config.apply_stepper_mode(stepper)
    cache_key = None
    if cache is not None:
        # Keyed after stepper_mode resolution, so an explicit mode and
        # a stepper configured with that same mode share entries.
        cache_key = cache.lift_key(rules, stepper, surface_term, config)
        if cache_key is not None:
            recorded = cache.lookup_lift(cache_key)
            if recorded is not None:
                budget = _Budget(config)
                yield from _replay(recorded, config.mode, should_stop, budget)
                return
    attrs = dict(mode=config.mode, incremental=config.incremental)
    if config.mode == "sequence":
        attrs["dedup"] = config.dedup
    # The provenance run scope opens before desugaring so the initial
    # expansions are attributed to this run too.  The run's per-rule
    # totals are attached while the lift span is still open (attrs must
    # land before the span is emitted); the outer finally also covers a
    # desugar-time failure or an abandoned generator.
    run = _prov.begin_run(rules) if _obs.enabled else None
    try:
        with deep_recursion(), _span("lift", **attrs) as lift_span:
            try:
                body = _drive(
                    rules, stepper, surface_term, config, lift_span, should_stop
                )
                if cache_key is not None:
                    yield from _recording(body, cache, cache_key)
                else:
                    yield from body
            finally:
                if run is not None and lift_span is not None:
                    lift_span.attrs["rule_stats"] = run.rule_stats()
    finally:
        if run is not None:
            _prov.end_run(run)


def _drive(rules, stepper, surface_term, config, lift_span, should_stop):
    """The lifting loop: one frontier of ``(state, parent node id)``
    pairs, explored breadth-first; a sequence's never exceeds one."""
    tree = config.mode == "tree"
    cache = ResugarCache(rules) if config.incremental else None
    stats = cache.stats if cache else None
    # Desugar once: through the cache, the run's own desugar fills its
    # memo, so the step-0 Emulation check is an identity hit.
    core = cache.desugar(surface_term) if cache else desugar(rules, surface_term)
    frontier = deque([(stepper.load(core), None)])
    budget = _Budget(config)
    check_emulation, dedup = config.check_emulation, config.dedup
    last_emitted: Optional[Pattern] = None
    next_id = 0

    def emit_step(index, term, surface, parent):
        """Sequences: drop a surface term equal to the last one shown."""
        nonlocal last_emitted
        if dedup and surface == last_emitted:
            return Deduped(index, term, surface), "deduped"
        last_emitted = surface
        return SurfaceEmitted(index, term, surface), "emitted"

    def emit_node(index, term, surface, parent):
        """Trees: number the node and attach it under ``parent``."""
        nonlocal next_id
        next_id += 1
        event = SurfaceEmitted(
            index, term, surface, node_id=next_id - 1, parent_id=parent
        )
        return event, "emitted"

    emit = emit_node if tree else emit_step

    def classify(term: Pattern, index: int, parent):
        """Resugar one core term and decide its event + outcome."""
        surface = cache.resugar(term) if cache else resugar(rules, term)
        if surface is None:
            return StepSkipped(index, term), "skipped"
        if check_emulation:
            faithful = (
                cache.emulates(surface, term)
                if cache
                else emulates(rules, surface, term)
            )
            if not faithful:
                raise EmulationViolation(
                    f"surface {'node' if tree else 'step'} {surface} does "
                    f"not desugar into the core term it represents: {term}"
                )
        return emit(index, term, surface, parent)

    if _obs.enabled:
        LIFT_RUNS.inc()
    index = 0
    while frontier:
        if should_stop is not None and should_stop():
            if lift_span is not None:
                lift_span.attrs["cancelled"] = True
            return
        cut = budget.check(index, stats, lift_span)
        if cut is not None:
            yield cut
            return

        state, parent = frontier.popleft()
        term = stepper.term(state)
        yield CoreStepped(index, term)
        if _obs.enabled:
            LIFT_STEPS_TOTAL.inc()
            attempts_before = MATCH_ATTEMPTS.value
            with _span("lift.step", index=index) as step_span:
                with _prov.step_scope(step_span):
                    event, outcome = classify(term, index, parent)
                    if outcome == "deduped":
                        _prov.on_dedup()
                if step_span is not None:
                    step_span.attrs["outcome"] = outcome
            MATCH_ATTEMPTS_PER_STEP.observe(
                MATCH_ATTEMPTS.value - attempts_before
            )
            _OUTCOME_COUNTERS[outcome].inc()
        else:
            event, outcome = classify(term, index, parent)
        yield event

        successors = stepper.step(state)
        if len(successors) > 1 and not tree:
            raise ReproError(
                "nondeterministic step during sequence lifting; use "
                "lift_evaluation_tree for languages with amb"
            )
        if outcome == "emitted":
            # Successors attach under this node (None in sequences).
            parent = event.node_id
        for successor in successors:
            frontier.append((successor, parent))
        index += 1
    if lift_span is not None:
        lift_span.attrs["core_nodes" if tree else "core_steps"] = index
    yield Halted(index, stats)


def fold_lift(events: Iterable[LiftEvent]) -> LiftResult:
    """Replay a :func:`lift_stream` event stream into the batch
    :class:`~repro.core.lift.LiftResult` (byte-identical to what the
    historical in-place loop produced)."""
    result = LiftResult()
    for event in events:
        if isinstance(event, SurfaceEmitted):
            result.surface_sequence.append(event.surface_term)
            result.steps.append(
                LiftedStep(
                    event.core_index, event.core_term, event.surface_term, True
                )
            )
        elif isinstance(event, Deduped):
            result.steps.append(
                LiftedStep(
                    event.core_index, event.core_term, event.surface_term, False
                )
            )
        elif isinstance(event, StepSkipped):
            result.steps.append(
                LiftedStep(event.core_index, event.core_term, None, False)
            )
        elif isinstance(event, Halted):
            result.cache_stats = event.cache_stats
        elif isinstance(event, BudgetExhausted):
            result.cache_stats = event.cache_stats
            result.truncated = True
    return result


def fold_tree(events: Iterable[LiftEvent]) -> SurfaceTree:
    """Replay a :func:`lift_tree_stream` event stream into the batch
    :class:`~repro.core.lift.SurfaceTree`."""
    tree = SurfaceTree()
    for event in events:
        if isinstance(event, CoreStepped):
            tree.core_node_count += 1
        elif isinstance(event, SurfaceEmitted):
            tree.nodes[event.node_id] = event.surface_term
            if event.parent_id is None:
                tree.root = event.node_id
            else:
                tree.edges.append((event.parent_id, event.node_id))
        elif isinstance(event, StepSkipped):
            tree.skipped_count += 1
        elif isinstance(event, BudgetExhausted):
            tree.truncated = True
    return tree
