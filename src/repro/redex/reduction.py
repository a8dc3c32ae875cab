"""Reduction rules, the reduction relation, and the stepper adapter.

A :class:`ReductionRule` rewrites a redex: its LHS is a redex pattern
(core patterns + nonterminal references + atom predicates) and its RHS is
either a template pattern (substituted with the match bindings) or a
Python function — the analogue of Redex rules with metafunctions.  RHS
functions receive the match environment and the current store and return
one or more ``(contractum, store)`` results, which is how primitives
(delta rules), mutation, and nondeterminism (``amb``) are expressed.

:class:`ReductionSemantics` packages a grammar (with a designated value
nonterminal), an evaluation strategy, and an ordered rule list into a
single-step function over machine states ``(term, store)``.
:class:`RedexStepper` adapts it to the :class:`repro.core.lift.Stepper`
protocol so CONFECTION can lift its evaluation sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bindings import Env
from repro.core.errors import StuckError
from repro.core.intern import intern_generation
from repro.core.substitution import subst
from repro.core.terms import Node, Pattern, Tagged
from repro.obs import _state as _obs
from repro.obs.metrics import REDEX_DECOMPOSE_DEPTH
from repro.redex.grammar import Grammar
from repro.redex.patterns import _tag_wrapper, compile_redex_match
from repro.redex.strategy import EvalStrategy

__all__ = [
    "Store",
    "EMPTY_STORE",
    "ReductionRule",
    "ReductionSemantics",
    "MachineState",
    "RedexStepper",
    "STEPPER_MODES",
]

STEPPER_MODES: Tuple[str, ...] = ("refocus", "naive")

Store = MappingProxyType
EMPTY_STORE: "Store" = MappingProxyType({})


def make_store(mapping: Dict) -> "Store":
    return MappingProxyType(dict(mapping))


RuleResult = Union[Pattern, Tuple[Pattern, "Store"]]
# A redex's candidate rules, each with its compiled LHS matcher.
Candidates = Tuple[Tuple["ReductionRule", Callable[[Pattern, Env], bool]], ...]
RhsFunction = Callable[[Env, "Store"], Union[RuleResult, List[RuleResult]]]


@dataclass(frozen=True)
class ReductionRule:
    """One notion of reduction, e.g. ``beta`` or ``if-true``.

    Ordinary rules rewrite the redex locally; the contractum is plugged
    back into the evaluation context.  *Control* rules (``control=True``)
    are Redex's context-sensitive rules ``E[redex] -> program``: their RHS
    function receives a third argument, ``plug``, with which it can
    materialize the current continuation (``plug(HOLE)``) or discard it —
    this is how ``call/cc`` and continuation invocation are expressed.
    A control rule's results replace the whole program.
    """

    name: str
    lhs: Pattern
    rhs: Union[Pattern, RhsFunction]
    control: bool = False
    preserve_redex_tags: bool = False
    """Rewrap the contractum in the redex's outer tags.  For rules where
    the construct *persists* across the step (e.g. sequencing popping a
    finished expression), the paper's origin discipline says the term
    maintains its origin (Definition 4); consuming rules (beta, if)
    leave this False and the redex's tags disappear with it."""

    def apply(
        self,
        env: Env,
        store: "Store",
        plug: Optional[Callable[[Pattern], Pattern]] = None,
    ) -> List[Tuple[Pattern, "Store"]]:
        if self.control:
            if not callable(self.rhs):
                raise StuckError(
                    f"control rule {self.name!r} requires a callable RHS"
                )
            raw = self.rhs(env, store, plug)
        elif callable(self.rhs):
            raw = self.rhs(env, store)
        else:
            raw = subst(env, self.rhs)
        if not isinstance(raw, list):
            raw = [raw]
        out = []
        for item in raw:
            if isinstance(item, tuple):
                term, new_store = item
            else:
                term, new_store = item, store
            out.append((term, new_store))
        return out


@dataclass(frozen=True)
class MachineState:
    """A machine state: the focused term plus the (immutable) store."""

    term: Pattern
    store: "Store" = field(default_factory=lambda: EMPTY_STORE)

    def with_term(self, term: Pattern) -> "MachineState":
        return MachineState(term, self.store)


class ReductionSemantics:
    """A grammar + strategy + rules = a small-step semantics."""

    def __init__(
        self,
        grammar: Grammar,
        strategy: EvalStrategy,
        rules: Sequence[ReductionRule],
        value_nonterminal: str = "v",
        name: str = "language",
    ) -> None:
        self.grammar = grammar
        self.strategy = strategy
        self.rules: Tuple[ReductionRule, ...] = tuple(rules)
        self.value_nonterminal = value_nonterminal
        self.name = name
        self._value_memo: Dict[int, bool] = {}
        self._value_memo_generation: Optional[int] = None
        # Label-indexed dispatch: a rule whose LHS is a labeled node can
        # only match a redex with that label, so bucket rules by label at
        # construction and consult one bucket per step instead of trying
        # every rule.  Rules with a non-node LHS go into a wildcard
        # bucket; merging by original index preserves priority order.
        self._by_label: Dict[str, List[int]] = {}
        self._wildcard: List[int] = []
        for i, rule in enumerate(self.rules):
            lhs = rule.lhs
            while isinstance(lhs, Tagged):
                lhs = lhs.term
            if isinstance(lhs, Node):
                self._by_label.setdefault(lhs.label, []).append(i)
            else:
                self._wildcard.append(i)
        # label (None: a redex that is not a node) -> its candidates,
        # built with their compiled matchers on the label's first redex
        self._candidates: Dict[Optional[str], Candidates] = {}

    def __getstate__(self) -> dict:
        # Compiled matchers do not pickle; a copy recompiles on first use.
        state = dict(self.__dict__)
        state["_candidates"] = {}
        return state

    def _candidate_rules(self, redex: Pattern) -> Candidates:
        """The rules whose LHS could possibly match ``redex``, in
        priority order, each with its compiled LHS matcher
        (:func:`~repro.redex.patterns.compile_redex_match`): one tuple
        per label, built once."""
        bare = redex
        while isinstance(bare, Tagged):
            bare = bare.term
        label = bare.label if isinstance(bare, Node) else None
        found = self._candidates.get(label)
        if found is None:
            indices = sorted((*self._by_label.get(label, ()), *self._wildcard))
            found = self._candidates[label] = tuple(
                (self.rules[i], compile_redex_match(self.rules[i].lhs, self.grammar))
                for i in indices
            )
        return found

    def is_value(self, term: Pattern) -> bool:
        # Interned terms are pointer-canonical, so their value verdicts
        # memoize by identity — decomposition re-checks the same shared
        # subtrees constantly (every list element left of the hole, every
        # rescan after a refocus pop), and the grammar walk is the single
        # hottest pure function in the stepper.  The memo lives and dies
        # with the intern table: a generation bump invalidates it
        # wholesale, since ids of dead canonical terms may be reused.
        generation = intern_generation()
        if getattr(term, "_interned", None) == generation:
            memo = self._value_memo
            if self._value_memo_generation != generation:
                memo.clear()
                self._value_memo_generation = generation
            key = id(term)
            cached = memo.get(key)
            if cached is None:
                cached = self.grammar.matches(term, self.value_nonterminal)
                memo[key] = cached
            return cached
        return self.grammar.matches(term, self.value_nonterminal)

    def step(self, state: MachineState) -> List[MachineState]:
        """All successor states (empty when ``state.term`` is a value).

        Raises :class:`StuckError` when a non-value term has no
        applicable reduction — a runtime type error in the object
        language.
        """
        decomposition = self.strategy.decompose(state.term, self.is_value)
        if decomposition is None:
            return []
        if _obs.enabled:
            REDEX_DECOMPOSE_DEPTH.observe(decomposition.depth)
        redex, plug = decomposition.redex, decomposition.plug
        for rule, fill in self._candidate_rules(redex):
            env: Env = {}
            if not fill(redex, env):
                continue
            if rule.control:
                # The rule's results are whole programs, not contractums.
                return [
                    MachineState(term, store)
                    for term, store in rule.apply(env, state.store, plug)
                ]
            rewrap = _tag_wrapper(redex) if rule.preserve_redex_tags else None
            return [
                MachineState(
                    plug(rewrap(term) if rewrap else term), store
                )
                for term, store in rule.apply(env, state.store)
            ]
        from repro.lang.render import render

        raise StuckError(
            f"{self.name}: no reduction applies to redex "
            f"{render(redex, show_tags=False)}"
        )

    def trace(
        self, term: Pattern, max_steps: int = 100_000
    ) -> List[MachineState]:
        """The (deterministic) evaluation sequence starting at ``term``.

        Raises on nondeterministic branching; use :meth:`trace_tree`.
        """
        state = MachineState(term)
        out = [state]
        for _ in range(max_steps):
            successors = self.step(state)
            if not successors:
                return out
            if len(successors) > 1:
                raise StuckError(
                    f"{self.name}: nondeterministic step during trace(); "
                    f"use trace_tree()"
                )
            state = successors[0]
            out.append(state)
        raise StuckError(f"{self.name}: trace exceeded {max_steps} steps")

    def trace_tree(
        self, term: Pattern, max_nodes: int = 100_000
    ) -> Tuple[List[MachineState], List[Tuple[int, int]]]:
        """Breadth-first evaluation tree: (states, edges by index)."""
        states = [MachineState(term)]
        edges: List[Tuple[int, int]] = []
        queue = [0]
        while queue:
            index = queue.pop(0)
            for successor in self.step(states[index]):
                if len(states) >= max_nodes:
                    raise StuckError(
                        f"{self.name}: evaluation tree exceeded {max_nodes} nodes"
                    )
                states.append(successor)
                edges.append((index, len(states) - 1))
                queue.append(len(states) - 1)
        return states, edges

    def normal_form(self, term: Pattern, max_steps: int = 100_000) -> Pattern:
        """Evaluate to a value (deterministically) and return it."""
        return self.trace(term, max_steps)[-1].term


class RedexStepper:
    """Adapt a :class:`ReductionSemantics` to the lifting loop's
    :class:`~repro.core.lift.Stepper` protocol.

    ``on_stuck`` selects what a stuck term means: ``"halt"`` treats it as
    a final state (the lifted sequence simply ends there, mirroring a
    crashed program), ``"raise"`` propagates :class:`StuckError`.

    ``mode`` selects the decomposition engine: ``"refocus"`` (the
    default) drives a :class:`~repro.redex.refocus.RefocusMachine` that
    keeps the evaluation context alive across steps and resumes
    decomposition at the contraction site; ``"naive"`` re-decomposes
    from the root every step.  The two produce byte-identical traces;
    the naive mode is the differential-testing oracle, reached through
    ``with_mode("naive")``.  (Non-ground, uninternable terms need no
    naive mode: the refocusing machine steps them as a plain
    :class:`MachineState`.)
    """

    def __init__(
        self,
        semantics: ReductionSemantics,
        on_stuck: str = "halt",
        mode: str = "refocus",
    ) -> None:
        if on_stuck not in ("halt", "raise"):
            raise ValueError(f"on_stuck must be 'halt' or 'raise', not {on_stuck!r}")
        if mode not in STEPPER_MODES:
            raise ValueError(
                f"mode must be one of {STEPPER_MODES}, not {mode!r}"
            )
        self.semantics = semantics
        self.on_stuck = on_stuck
        self.mode = mode
        if mode == "refocus":
            from repro.redex.refocus import RefocusMachine

            self._machine: Optional["RefocusMachine"] = RefocusMachine(
                semantics
            )
        else:
            self._machine = None

    def with_mode(self, mode: str) -> "RedexStepper":
        """This stepper, or a copy of it running in ``mode``."""
        if mode == self.mode:
            return self
        return RedexStepper(self.semantics, self.on_stuck, mode=mode)

    def load(self, core_term: Pattern):
        if self._machine is not None:
            return self._machine.load(core_term)
        return MachineState(core_term)

    def step(self, state) -> List[MachineState]:
        try:
            if self._machine is not None and not isinstance(
                state, MachineState
            ):
                return self._machine.step(state)
            return self.semantics.step(state)
        except StuckError:
            if self.on_stuck == "halt":
                return []
            raise

    def term(self, state) -> Pattern:
        if self._machine is not None and not isinstance(state, MachineState):
            return self._machine.term(state)
        return state.term
