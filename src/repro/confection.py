"""The CONFECTION facade: rules + a core stepper + the lifting loop.

This is the top-level object a user of the library interacts with, the
analogue of the paper's CONFECTION tool: it owns a checked rulelist and a
black-box core-language stepper, and exposes desugaring, resugaring, and
the lifted surface evaluation sequence/tree.

Terms can be passed either as :class:`~repro.core.terms.Pattern` values
or as rule-DSL source strings (``"Or([Not(True_()), ...])"``), and the
results can be rendered back to strings with :meth:`Confection.show`.
"""

from __future__ import annotations

from contextlib import nullcontext
from os import PathLike
from typing import Callable, Iterator, List, Optional, Union

from repro.core.desugar import desugar as _desugar
from repro.core.desugar import resugar as _resugar
from repro.core.lift import (
    LiftResult,
    Stepper,
    SurfaceTree,
    lift_evaluation,
    lift_evaluation_tree,
)
from repro.core.rules import Rule, RuleList
from repro.core.terms import Pattern
from repro.core.wellformed import DisjointnessMode
from repro.engine.config import LiftConfig
from repro.lang.render import render
from repro.lang.rule_parser import parse_pattern, parse_rulelist
from repro.obs import Observability

__all__ = ["Confection"]

TermLike = Union[Pattern, str]


class Confection:
    """Lift core evaluation sequences through syntactic sugar.

    ``rules`` may be a :class:`RuleList`, a list of :class:`Rule`, or
    rule-DSL source text.  ``stepper`` is any object satisfying the
    :class:`~repro.core.lift.Stepper` protocol; it may be omitted for
    uses that only desugar/resugar.

    ``obs`` is an optional :class:`repro.obs.Observability`
    configuration: when given, every lift made through this Confection
    runs with observability enabled under it (spans flow to its sinks,
    counters to the metrics registry) and ``obs.snapshot()`` reads the
    numbers afterwards.

    ``cache`` is an optional persistent :class:`repro.cache.LiftCache`
    (or a directory path, coerced to one): every lift made through this
    Confection then consults and feeds the content-addressed store —
    repeated programs replay their recorded event streams instead of
    re-stepping.  See ``docs/caching.md`` for the invalidation contract.
    """

    def __init__(
        self,
        rules: Union[RuleList, List[Rule], str],
        stepper: Optional[Stepper] = None,
        disjointness: DisjointnessMode = DisjointnessMode.PRIORITIZED,
        obs: Optional["Observability"] = None,
        cache=None,
    ) -> None:
        if isinstance(rules, str):
            rules = parse_rulelist(rules, disjointness)
        elif not isinstance(rules, RuleList):
            rules = RuleList(rules, disjointness)
        self.rules: RuleList = rules
        self.stepper = stepper
        self.obs = obs
        if isinstance(cache, (str, PathLike)):
            from repro.cache import LiftCache

            cache = LiftCache(cache)
        self.cache = cache

    def _obs_scope(self):
        """The active observability context for one lift (no-op when
        this Confection has no ``obs`` configuration)."""
        return self.obs if self.obs is not None else nullcontext()

    # --- term plumbing -----------------------------------------------

    def term(self, term: TermLike) -> Pattern:
        """Coerce DSL source text to a term (terms pass through)."""
        if isinstance(term, str):
            return parse_pattern(term)
        return term

    @staticmethod
    def show(term: Pattern) -> str:
        """Render a term for display (tags hidden)."""
        return render(term, show_tags=False)

    # --- desugar / resugar -------------------------------------------

    def desugar(self, term: TermLike) -> Pattern:
        """Fully desugar a surface term into a tagged core term."""
        return _desugar(self.rules, self.term(term))

    def resugar(self, core_term: TermLike) -> Optional[Pattern]:
        """Resugar a tagged core term, or ``None`` when it has no
        faithful surface representation."""
        return _resugar(self.rules, self.term(core_term))

    # --- lifting -------------------------------------------------------

    def lift(self, surface_term: TermLike, **options) -> LiftResult:
        """Run the program and lift its core evaluation sequence into a
        surface evaluation sequence, with per-step bookkeeping.
        ``options`` are :class:`~repro.engine.config.LiftConfig` fields
        (or a ``config``), as on :func:`repro.core.lift.lift_evaluation`."""
        self._require_stepper()
        with self._obs_scope():
            return lift_evaluation(
                self.rules, self.stepper, self.term(surface_term),
                cache=self.cache, **options,
            )

    def lift_tree(self, surface_term: TermLike, **options) -> SurfaceTree:
        """Lift a nondeterministic evaluation into a surface tree
        (options as on :meth:`lift`, for a tree)."""
        self._require_stepper()
        with self._obs_scope():
            return lift_evaluation_tree(
                self.rules, self.stepper, self.term(surface_term),
                cache=self.cache, **options,
            )

    def lift_stream(
        self, surface_term: TermLike, *, config=None, should_stop=None,
        **options,
    ) -> Iterator["LiftEvent"]:
        """Lift lazily, yielding :mod:`repro.engine.events` events as
        core evaluation proceeds (the streaming face of :meth:`lift`;
        ``should_stop`` as on :meth:`lift_events`)."""
        config = LiftConfig.resolve("sequence", config, options)
        return self.lift_events(surface_term, config, should_stop=should_stop)

    def lift_tree_stream(
        self, surface_term: TermLike, *, config=None, should_stop=None,
        **options,
    ) -> Iterator["LiftEvent"]:
        """The streaming face of :meth:`lift_tree`: events in
        breadth-first exploration order."""
        config = LiftConfig.resolve("tree", config, options)
        return self.lift_events(surface_term, config, should_stop=should_stop)

    def lift_events(
        self,
        surface_term: TermLike,
        config: LiftConfig,
        *,
        should_stop: Optional[Callable[[], bool]] = None,
        on_key: Optional[Callable[[str], None]] = None,
    ) -> Iterator["LiftEvent"]:
        """Lift lazily under ``config``, whichever its mode.
        ``should_stop`` is the cooperative cancellation hook of
        :func:`repro.engine.stream.lift_events`: polled once per core
        step, a true return ends the stream without a terminal event.
        ``on_key`` receives the cache key the lift derived (see
        :func:`~repro.engine.stream.lift_events`)."""
        from repro.engine.stream import lift_events

        self._require_stepper()
        stream = lift_events(
            self.rules, self.stepper, self.term(surface_term), config,
            should_stop=should_stop, cache=self.cache, on_key=on_key,
        )
        return self._scoped_stream(stream)

    def surface_steps(self, surface_term: TermLike, **kwargs) -> List[Pattern]:
        """Just the surface evaluation sequence (the paper's
        ``showSurfaceSequence``)."""
        return self.lift(surface_term, **kwargs).surface_sequence

    def show_steps(self, surface_term: TermLike, **kwargs) -> List[str]:
        """The surface evaluation sequence, rendered for display."""
        return [self.show(t) for t in self.surface_steps(surface_term, **kwargs)]

    # --- batch lifting -------------------------------------------------

    def lift_corpus(self, corpus, **options):
        """Lift a whole corpus of programs across worker processes: one
        :class:`~repro.engine.events.BatchLifted` or
        :class:`~repro.engine.events.JobError` per job, in submission
        order.  ``options`` are those of
        :func:`repro.parallel.lift_corpus_stream` (``jobs``,
        ``payload``, ``cache_dir``, ``chunk``, ...).  Workers are warmed
        once with this Confection's rules and stepper; its ``obs`` and
        ``cache`` do **not** cross the process boundary (pass
        ``collect_metrics``/``collect_spans`` and ``cache_dir``)."""
        from repro.parallel import lift_corpus

        self._require_stepper()
        return lift_corpus((self.rules, self.stepper), corpus, **options)

    def lift_corpus_stream(self, corpus, **options):
        """Lift a corpus lazily, yielding per-job outcome events in
        submission order as workers finish (the streaming face of
        :meth:`lift_corpus`; same options)."""
        from repro.parallel import lift_corpus_stream

        self._require_stepper()
        return lift_corpus_stream((self.rules, self.stepper), corpus, **options)

    def _scoped_stream(
        self, stream: Iterator["LiftEvent"]
    ) -> Iterator["LiftEvent"]:
        """Run ``stream`` under this Confection's observability scope
        (pass-through when no ``obs`` is configured).  Activation happens
        at consumption time, matching the generator's laziness."""
        if self.obs is None:
            return stream

        def scoped():
            with self.obs:
                yield from stream

        return scoped()

    def _require_stepper(self) -> None:
        if self.stepper is None:
            raise ValueError(
                "this Confection has no stepper; pass one at construction "
                "to lift evaluation sequences"
            )
