"""Streaming lift generators and the folds back to batch results.

:func:`lift_stream` is the paper's lifting loop (section 5.3) as a lazy
generator: desugar once, then *emit a surface term, step the core,
repeat* — yielding a typed :mod:`~repro.engine.events` event at every
juncture instead of materializing a :class:`~repro.core.lift.LiftResult`
up front.  Consumers see the first surface step as soon as it exists,
hold at most one event at a time, and can stop early by abandoning the
generator.  :func:`lift_tree_stream` does the same for nondeterministic
evaluation trees (breadth-first).

Both generators take budgets:

* ``max_steps`` / ``max_nodes`` — a step-count budget (how much core
  evaluation to explore);
* ``max_seconds`` — a wall-clock budget measured from the first event;

and an ``on_budget`` policy deciding what exhaustion means:

* ``"raise"`` (default) — raise :class:`~repro.core.errors.ReproError`,
  the historical batch behaviour;
* ``"truncate"`` — yield a terminal
  :class:`~repro.engine.events.BudgetExhausted` event and stop; every
  event already yielded is a valid prefix of the full lift.

Both generators also accept a persistent ``cache``
(:class:`repro.cache.LiftCache`).  Budgets are not cache-key material:
only complete (``Halted``) streams are recorded, and a hit replays the
recording through the cold loop's own budget gate, so it cuts where and
as a cold run would.  The wall clock runs against the replay:
``max_seconds=0`` cuts at index 0, a positive one gets the complete
recording.  A hit never desugars, steps or resugars.  Incremental cold
runs also hydrate their :class:`~repro.core.incremental.ResugarCache`
from the memo tier and persist it back before the terminal event.
Lifts through an unidentifiable stepper run as if no cache were attached.

Both also take a *cooperative cancellation hook*: ``should_stop``, a
zero-argument callable polled once per core step.  When it returns
true the generator returns immediately — no terminal event, no more
stepping.  This exists for consumers that drive the generator from
another thread (the session server bridges :func:`lift_stream` over an
executor): the owning thread cannot ``close()`` a generator that a
worker thread is iterating, but it *can* flip a flag the hook reads, and
the abandoned lift then stops stepping promptly instead of running its
evaluation to completion for nobody.

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
    "ON_BUDGET_POLICIES",
    "lift_stream",
    "lift_tree_stream",
    "fold_lift",
    "fold_tree",
]

ON_BUDGET_POLICIES = ("raise", "truncate")


def _apply_stepper_mode(stepper: "Stepper", stepper_mode: Optional[str]):
    """Resolve the ``stepper_mode`` flag against a stepper.

    ``None`` keeps the stepper as configured (for a
    :class:`~repro.redex.reduction.RedexStepper` that means its own
    default, refocus).  Mode-aware steppers expose ``with_mode``;
    steppers without it (e.g. plain function steppers) are their own
    single mode and pass through unchanged.
    """
    if stepper_mode is None:
        return stepper
    from repro.redex.reduction import STEPPER_MODES

    if stepper_mode not in STEPPER_MODES:
        raise ValueError(
            f"stepper_mode must be one of {STEPPER_MODES}, "
            f"got {stepper_mode!r}"
        )
    with_mode = getattr(stepper, "with_mode", None)
    if with_mode is None:
        return stepper
    return with_mode(stepper_mode)

# Classification outcome -> the counter it moves (observability only).
_OUTCOME_COUNTERS = {
    "emitted": LIFT_STEPS_EMITTED,
    "deduped": LIFT_STEPS_DEDUPED,
    "skipped": LIFT_STEPS_SKIPPED,
}


def _check_policy(on_budget: str) -> None:
    if on_budget not in ON_BUDGET_POLICIES:
        raise ValueError(
            f"on_budget must be one of {ON_BUDGET_POLICIES}, "
            f"got {on_budget!r}"
        )


class _Budget:
    """The one exhaustion gate of the cold loops and of cache replay.
    ``kind`` is ``"steps"`` (core indices 0..``limit`` run) or
    ``"nodes"`` (``limit`` nodes explored); the clock starts here."""

    def __init__(self, kind, limit, max_seconds, on_budget):
        if max_seconds is not None and max_seconds < 0:
            raise ValueError(f"max_seconds must be >= 0, got {max_seconds!r}")
        self.kind, self.limit, self.on_budget = kind, limit, on_budget
        self.stop_at = limit + 1 if kind == "steps" else limit
        self.max_seconds = max_seconds
        self.deadline = None if max_seconds is None else monotonic() + max_seconds

    def check(self, index, stats, span=None, persist_memo=None):
        """``None`` while core index ``index`` may still run; otherwise
        raise (``"raise"``) or return the terminal ``BudgetExhausted``
        (``"truncate"``) after marking ``span`` and persisting the memo."""
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
        if persist_memo is not None:
            persist_memo()
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
    max_steps: int = 100_000,
    max_seconds: Optional[float] = None,
    on_budget: str = "raise",
    dedup: bool = True,
    check_emulation: bool = True,
    incremental: bool = True,
    stepper_mode: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    cache=None,
) -> Iterator[LiftEvent]:
    """Lazily lift ``surface_term``'s evaluation, yielding events.

    Per core step: a :class:`CoreStepped`, then exactly one of
    :class:`SurfaceEmitted` / :class:`Deduped` / :class:`StepSkipped`.
    Terminal event: :class:`Halted`, or :class:`BudgetExhausted` when a
    budget runs out under ``on_budget="truncate"``.

    ``dedup``, ``check_emulation``, and ``incremental`` mean exactly
    what they mean on :func:`repro.core.lift.lift_evaluation` — that
    function *is* :func:`fold_lift` over this generator.
    ``stepper_mode`` (``"refocus"`` / ``"naive"`` / ``None``) selects
    the decomposition engine on mode-aware steppers; ``None`` keeps the
    stepper's own configuration.  ``should_stop`` is the cooperative
    cancellation hook (see the module docstring): polled before every
    core step, and a true return ends the stream with no terminal
    event.  ``cache`` attaches a persistent
    :class:`repro.cache.LiftCache` (see the module docstring): a
    whole-lift hit replays the recorded frames up to this call's budget;
    a cold run that halts records them.

    With observability on (:mod:`repro.obs`), the run is wrapped in a
    ``lift`` span, every core step gets a ``lift.step`` child span
    carrying its index and outcome, and the ``lift.steps_*`` counters
    move per event; disabled, the loop pays one branch per step.
    """
    _check_policy(on_budget)
    stepper = _apply_stepper_mode(stepper, stepper_mode)
    cache_key = None
    if cache is not None:
        # Keyed after stepper_mode resolution, so an explicit mode and
        # a stepper configured with that same mode share entries.
        cache_key = cache.lift_key(
            rules, stepper, surface_term, mode="sequence",
            dedup=dedup, check_emulation=check_emulation,
            incremental=incremental,
        )
        if cache_key is not None:
            recorded = cache.lookup_lift(cache_key)
            if recorded is not None:
                budget = _Budget("steps", max_steps, max_seconds, on_budget)
                yield from _replay(recorded, "sequence", should_stop, budget)
                return
    # The provenance run scope opens before desugaring so the initial
    # expansions are attributed to this run too.  The run's per-rule
    # totals are attached while the lift span is still open (attrs must
    # land before the span is emitted); the outer finally also covers a
    # desugar-time failure or an abandoned generator.
    run = _prov.begin_run(rules) if _obs.enabled else None
    try:
        with deep_recursion(), _span(
            "lift", mode="sequence", incremental=incremental, dedup=dedup
        ) as lift_span:
            try:
                body = _lift_stream_body(
                    rules, stepper, surface_term, max_steps, max_seconds,
                    on_budget, dedup, check_emulation, incremental,
                    lift_span, should_stop,
                    cache if incremental else None,
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


def _lift_stream_body(
    rules, stepper, surface_term, max_steps, max_seconds,
    on_budget, dedup, check_emulation, incremental, lift_span,
    should_stop, lift_cache=None,
):
    core = desugar(rules, surface_term)
    state = stepper.load(core)
    cache = ResugarCache(rules) if incremental else None
    stats = cache.stats if cache else None
    if cache is not None and lift_cache is not None:
        lift_cache.hydrate(cache)

    def persist_memo():
        # Before the terminal yield, not after: a consumer that stops
        # at the terminal event never resumes the generator.
        if cache is not None and lift_cache is not None:
            lift_cache.persist_memo(cache)

    budget = _Budget("steps", max_steps, max_seconds, on_budget)
    last_emitted: Optional[Pattern] = None
    index = 0

    def classify(term: Pattern):
        """Resugar one core term and decide its event + outcome."""
        nonlocal last_emitted
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
                    f"surface step {surface} does not desugar into "
                    f"the core term it represents: {term}"
                )
        if dedup and surface == last_emitted:
            return Deduped(index, term, surface), "deduped"
        last_emitted = surface
        return SurfaceEmitted(index, term, surface), "emitted"

    if _obs.enabled:
        LIFT_RUNS.inc()
    while True:
        if should_stop is not None and should_stop():
            if lift_span is not None:
                lift_span.attrs["cancelled"] = True
            return
        cut = budget.check(index, stats, lift_span, persist_memo)
        if cut is not None:
            yield cut
            return

        term = stepper.term(state)
        yield CoreStepped(index, term)
        if _obs.enabled:
            LIFT_STEPS_TOTAL.inc()
            attempts_before = MATCH_ATTEMPTS.value
            with _span("lift.step", index=index) as step_span:
                with _prov.step_scope(step_span):
                    event, outcome = classify(term)
                    if outcome == "deduped":
                        _prov.on_dedup()
                if step_span is not None:
                    step_span.attrs["outcome"] = outcome
            MATCH_ATTEMPTS_PER_STEP.observe(
                MATCH_ATTEMPTS.value - attempts_before
            )
            _OUTCOME_COUNTERS[outcome].inc()
        else:
            event, _ = classify(term)
        yield event

        successors = stepper.step(state)
        if not successors:
            if lift_span is not None:
                lift_span.attrs["core_steps"] = index + 1
            persist_memo()
            yield Halted(index + 1, stats)
            return
        if len(successors) > 1:
            raise ReproError(
                "nondeterministic step during sequence lifting; use "
                "lift_evaluation_tree for languages with amb"
            )
        state = successors[0]
        index += 1


def lift_tree_stream(
    rules: RuleList,
    stepper: "Stepper",
    surface_term: Pattern,
    *,
    max_nodes: int = 100_000,
    max_seconds: Optional[float] = None,
    on_budget: str = "raise",
    check_emulation: bool = True,
    incremental: bool = True,
    stepper_mode: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    cache=None,
) -> Iterator[LiftEvent]:
    """Lazily lift a nondeterministic evaluation tree, breadth-first.

    ``core_index`` on the yielded events is the exploration order of the
    core state; :class:`SurfaceEmitted` carries ``node_id``/``parent_id``
    so :func:`fold_tree` can rebuild the
    :class:`~repro.core.lift.SurfaceTree` from events alone.  The budget
    is ``max_nodes`` explored core states (terminal event budget kind:
    ``"nodes"``) plus the optional wall clock.  ``should_stop`` is the
    cooperative cancellation hook, polled once per explored node.
    ``cache`` attaches a persistent :class:`repro.cache.LiftCache`,
    exactly as on :func:`lift_stream` (tree and sequence lifts key into
    disjoint namespaces via the engine fingerprint's ``mode``).
    """
    _check_policy(on_budget)
    stepper = _apply_stepper_mode(stepper, stepper_mode)
    cache_key = None
    if cache is not None:
        cache_key = cache.lift_key(
            rules, stepper, surface_term, mode="tree",
            check_emulation=check_emulation, incremental=incremental,
        )
        if cache_key is not None:
            recorded = cache.lookup_lift(cache_key)
            if recorded is not None:
                budget = _Budget("nodes", max_nodes, max_seconds, on_budget)
                yield from _replay(recorded, "tree", should_stop, budget)
                return
    # Same scoping as lift_stream: run provenance opens before
    # desugaring, rule_stats attach while the lift span is open.
    run = _prov.begin_run(rules) if _obs.enabled else None
    try:
        with deep_recursion(), _span(
            "lift", mode="tree", incremental=incremental
        ) as lift_span:
            try:
                body = _lift_tree_stream_body(
                    rules, stepper, surface_term, max_nodes, max_seconds,
                    on_budget, check_emulation, incremental, lift_span,
                    should_stop,
                    cache if incremental else None,
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


def _lift_tree_stream_body(
    rules, stepper, surface_term, max_nodes, max_seconds,
    on_budget, check_emulation, incremental, lift_span,
    should_stop, lift_cache=None,
):
    core = desugar(rules, surface_term)
    cache = ResugarCache(rules) if incremental else None
    stats = cache.stats if cache else None
    if cache is not None and lift_cache is not None:
        lift_cache.hydrate(cache)

    def persist_memo():
        # Before the terminal yield, as in _lift_stream_body.
        if cache is not None and lift_cache is not None:
            lift_cache.persist_memo(cache)

    budget = _Budget("nodes", max_nodes, max_seconds, on_budget)
    # Queue holds (state, nearest surface ancestor id or None).
    queue: deque = deque([(stepper.load(core), None)])
    next_id = 0
    explored = 0

    def classify(term, index, parent):
        """Resugar one explored core state; returns the event to yield,
        the outcome, and the surface node id successors attach under."""
        surface = cache.resugar(term) if cache else resugar(rules, term)
        if surface is None:
            return StepSkipped(index, term), "skipped", parent
        if check_emulation:
            faithful = (
                cache.emulates(surface, term)
                if cache
                else emulates(rules, surface, term)
            )
            if not faithful:
                raise EmulationViolation(
                    f"surface node {surface} does not desugar into "
                    f"the core term it represents: {term}"
                )
        event = SurfaceEmitted(
            index, term, surface, node_id=next_id, parent_id=parent
        )
        return event, "emitted", next_id

    if _obs.enabled:
        LIFT_RUNS.inc()
    while queue:
        if should_stop is not None and should_stop():
            if lift_span is not None:
                lift_span.attrs["cancelled"] = True
            return
        cut = budget.check(explored, stats, lift_span, persist_memo)
        if cut is not None:
            yield cut
            return

        state, parent = queue.popleft()
        index = explored
        explored += 1
        term = stepper.term(state)
        yield CoreStepped(index, term)
        if _obs.enabled:
            LIFT_STEPS_TOTAL.inc()
            attempts_before = MATCH_ATTEMPTS.value
            with _span("lift.step", index=index) as step_span:
                with _prov.step_scope(step_span):
                    event, outcome, parent = classify(term, index, parent)
                if step_span is not None:
                    step_span.attrs["outcome"] = outcome
            MATCH_ATTEMPTS_PER_STEP.observe(
                MATCH_ATTEMPTS.value - attempts_before
            )
            _OUTCOME_COUNTERS[outcome].inc()
        else:
            event, outcome, parent = classify(term, index, parent)
        if outcome == "emitted":
            next_id += 1
        yield event

        for successor in stepper.step(state):
            queue.append((successor, parent))
    if lift_span is not None:
        lift_span.attrs["core_nodes"] = explored
    persist_memo()
    yield Halted(explored, stats)


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
