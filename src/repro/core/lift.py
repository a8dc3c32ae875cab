"""Lifting core evaluation sequences to surface sequences (section 5.3).

The deterministic algorithm is the paper's::

    def showSurfaceSequence(s):
        let c = desugar*(s)
        while c can take a reduction step:
            let s' = resugar*(c)
            if s': emit(s')
            c := step(c)

(plus a final emission once evaluation halts, which the paper's displayed
sequences include).  For a nondeterministic language the same idea lifts
an evaluation *tree*: keep a queue of unexplored core terms, resugar each,
and record edges between the surface representations of connected core
terms.

Steppers are black boxes behind the :class:`Stepper` protocol: a stepper
owns whatever machine state evaluation needs (typically a store) and can
always render its current state as a core *term* — the thing resugaring
consumes.  Section 7 of the paper describes recovering such a stepper
from a production evaluator; our interpreters provide one natively.

The loop itself lives in :mod:`repro.engine.stream` as a lazy event
generator (the serving-oriented interface: first step available
immediately, bounded memory, step/time budgets).  The batch functions
here — :func:`lift_evaluation` and :func:`lift_evaluation_tree` — are
eager folds over those streams, so the two interfaces cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.errors import ReproError
from repro.core.incremental import CacheStats
from repro.core.terms import Pattern
from repro.obs import _state as _obs
from repro.obs.trace import span as _obs_span

__all__ = [
    "Stepper",
    "FunctionStepper",
    "LiftedStep",
    "LiftResult",
    "lift_evaluation",
    "SurfaceTree",
    "lift_evaluation_tree",
    "EmulationViolation",
]

State = TypeVar("State")


class Stepper(Protocol[State]):
    """A black-box single-stepper for a core language.

    ``load`` turns a (tagged) core term into an initial machine state;
    ``step`` advances one reduction, returning every possible successor
    (empty when evaluation is finished or stuck); ``term`` renders a state
    back into a core term, tags intact.
    """

    def load(self, core_term: Pattern) -> State: ...

    def step(self, state: State) -> Sequence[State]: ...

    def term(self, state: State) -> Pattern: ...


class FunctionStepper:
    """Adapt a plain ``term -> Optional[term]`` function (a deterministic,
    storeless reduction) to the :class:`Stepper` protocol."""

    def __init__(self, step_fn: Callable[[Pattern], Optional[Pattern]]) -> None:
        self._step_fn = step_fn

    def load(self, core_term: Pattern) -> Pattern:
        return core_term

    def step(self, state: Pattern) -> Sequence[Pattern]:
        nxt = self._step_fn(state)
        return [] if nxt is None else [nxt]

    def term(self, state: Pattern) -> Pattern:
        return state


class EmulationViolation(ReproError):
    """A resugared surface term did not desugar back into the core term it
    was meant to represent.  With a STRICT-disjoint, well-formed rulelist
    this is impossible (Theorem 3); with PRIORITIZED overlap it is the
    dynamic backstop."""


@dataclass(frozen=True)
class LiftedStep:
    """One core step's fate during lifting."""

    core_index: int
    core_term: Pattern
    surface_term: Optional[Pattern]
    emitted: bool

    @property
    def skipped(self) -> bool:
        return self.surface_term is None


@dataclass
class LiftResult:
    """A lifted evaluation sequence plus per-step bookkeeping.

    ``surface_sequence`` is what a user sees; ``steps`` records, for every
    core step, whether it was shown, deduplicated, or skipped — the raw
    material for the paper's Coverage discussions.
    """

    surface_sequence: List[Pattern] = field(default_factory=list)
    steps: List[LiftedStep] = field(default_factory=list)
    cache_stats: Optional[CacheStats] = None
    """Per-run :class:`~repro.core.incremental.CacheStats` of the lift;
    ``None`` on a result the lifting loop did not build."""
    truncated: bool = False
    """True when a step or wall-clock budget ran out under
    ``on_budget="truncate"``; the result is then a well-formed prefix of
    the full lift."""

    @property
    def core_step_count(self) -> int:
        return len(self.steps)

    @property
    def skipped_count(self) -> int:
        return sum(1 for s in self.steps if s.skipped)

    @property
    def shown_count(self) -> int:
        return len(self.surface_sequence)

    @property
    def coverage(self) -> float:
        """Fraction of core steps with a surface representation."""
        if not self.steps:
            return 1.0
        return 1.0 - self.skipped_count / len(self.steps)


def _batch(mode: str, fold, events):
    """Fold a lift's events eagerly, inside a ``lift.batch`` span."""
    if _obs.enabled:
        with _obs_span("lift.batch", mode=mode):
            return fold(events)
    return fold(events)


def lift_evaluation(
    rules, stepper: "Stepper", surface_term: Pattern, **options
) -> LiftResult:
    """Compute the surface evaluation sequence of ``surface_term``.

    The term is desugared once, loaded into the stepper, and stepped to
    completion; each core term is resugared and emitted when it has a
    surface representation.  ``options`` are those of
    :func:`repro.engine.stream.lift_stream`: the
    :class:`~repro.engine.config.LiftConfig` fields (or a ``config``)
    plus a persistent ``cache``.  This is an eager fold over that
    stream; use the stream directly to consume steps as they are
    produced.
    """
    from repro.engine.stream import fold_lift, lift_stream

    return _batch(
        "sequence", fold_lift,
        lift_stream(rules, stepper, surface_term, **options),
    )


@dataclass
class SurfaceTree:
    """A lifted evaluation *tree* for a nondeterministic language.

    ``nodes`` maps a node id to its surface term; ``edges`` connects node
    ids.  An edge ``u -> v`` means some core path from ``u``'s core term
    reaches ``v``'s core term without passing through any other
    resugarable core term (so the surface tree's structure mirrors the
    core tree's, with skipped steps contracted).
    """

    nodes: dict = field(default_factory=dict)
    edges: List[Tuple[int, int]] = field(default_factory=list)
    root: Optional[int] = None
    core_node_count: int = 0
    skipped_count: int = 0
    truncated: bool = False
    """True when a node or wall-clock budget ran out under
    ``on_budget="truncate"``; the tree is then a well-formed
    breadth-first prefix of the full tree."""
    _adjacency: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False, compare=False
    )
    _adjacency_edge_count: int = field(default=-1, repr=False, compare=False)

    def _adj(self) -> Dict[int, List[int]]:
        """Child adjacency, built once and rebuilt only when edges grew."""
        if self._adjacency is None or self._adjacency_edge_count != len(
            self.edges
        ):
            adj: Dict[int, List[int]] = {}
            for u, v in self.edges:
                adj.setdefault(u, []).append(v)
            self._adjacency = adj
            self._adjacency_edge_count = len(self.edges)
        return self._adjacency

    def children(self, node_id: int) -> List[int]:
        return list(self._adj().get(node_id, ()))

    def leaves(self) -> List[int]:
        with_children = self._adj()
        return [n for n in self.nodes if n not in with_children]

    def depth(self) -> int:
        """Longest root-to-leaf path length, in edges (iterative, so
        arbitrarily deep trees cannot overflow the Python stack)."""
        if self.root is None:
            return 0
        adj = self._adj()
        best = 0
        stack: List[Tuple[int, int]] = [(self.root, 0)]
        while stack:
            node_id, d = stack.pop()
            kids = adj.get(node_id)
            if not kids:
                if d > best:
                    best = d
            else:
                stack.extend((k, d + 1) for k in kids)
        return best

    def to_dot(self, label=None) -> str:
        """Render the tree in Graphviz DOT format.

        ``label`` converts a surface term to a node label; it defaults
        to the generic renderer with tags hidden.
        """
        if label is None:
            from repro.lang.render import render

            def label(term):
                return render(term, show_tags=False)

        lines = ["digraph surface_tree {", "  node [shape=box];"]
        for node_id, term in self.nodes.items():
            text = label(term).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{node_id} [label="{text}"];')
        for u, v in self.edges:
            lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines)


def lift_evaluation_tree(
    rules, stepper: "Stepper", surface_term: Pattern, **options
) -> SurfaceTree:
    """Lift a nondeterministic evaluation into a surface tree
    (section 5.3's breadth-first exploration with bookkeeping).

    Core states are explored breadth-first from ``desugar(surface_term)``;
    each resugarable state becomes a surface node, attached to its nearest
    resugarable ancestor.  States whose core terms coincide are *not*
    merged: the paper lifts a tree, not a graph.  ``options`` are those
    of :func:`repro.engine.stream.lift_tree_stream`, of which this is an
    eager fold.
    """
    from repro.engine.stream import fold_tree, lift_tree_stream

    return _batch(
        "tree", fold_tree,
        lift_tree_stream(rules, stepper, surface_term, **options),
    )
