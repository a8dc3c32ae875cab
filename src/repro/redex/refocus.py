"""Refocusing decomposition: reified contexts and the machine stepper.

The naive stepper re-decomposes the whole program from the root on every
step.  Danvy's refocusing observation ("A Deforestation of Reducts:
Refocusing"; "Generic Reduction-Based Interpreters") is that after
contracting a redex the next decomposition can *resume at the
contraction site*: when the contractum is a value, pop context frames
and rescan the enclosing node's declared evaluation positions; when it
is not, decompose downward from the contractum in place.  Either way the
work per step is proportional to the context the step actually touches,
not to the size of the program — the reduction-based stepper becomes an
abstract-machine-style one.

This module reifies evaluation contexts as zippers.  Three frame
constructors cover every :class:`~repro.redex.strategy.EvalStrategy`
congruence position form (``i``, ``("list", i)``, ``("nth", i, j)``,
``("list_child", i, j)``)::

    C ::= []                            empty context
        | C . Tag(tag)                  origin tag above the hole
        | C . Child(label, left, right) hole at a node child
        | C . Elem(left, right)         hole at a list element

A plain child descent pushes one ``Child`` frame; a list descent pushes
``Child`` + the list's tags + ``Elem``; a ``list_child`` descent pushes
``Child`` + tags + ``Elem`` + tags + ``Child``.  Origin tags are
transparent: tags *above* a descent become ``Tag`` frames, while the
tags directly above the redex travel with it into the rule — the frame
below a redex is therefore never a ``Tag`` frame (the *refocus
invariant*), exactly mirroring the naive decomposition's origin
discipline.

:class:`RefocusMachine` drives the machine: states keep ``(context,
focus, store)`` alive between steps, :func:`refocus` resumes
decomposition from the last contraction, and whole-term snapshots are
materialized by plugging the context.  Frames and contexts are
hash-consed per machine (keyed on the interned identity of their
components), so equal contexts are pointer-identical and plugging a
snapshot costs one intern-table probe per frame — O(context) per step
instead of O(term).

End-of-program refinements and stuck terms are delegated to the
owning :class:`~repro.redex.reduction.ReductionSemantics` (and thus to
any language-specific ``step`` override such as the lambda core's
cell resolution or Pyret's final ``Error`` states), so the machine's
observable behaviour is identical to root-restart stepping.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import LanguageError
from repro.core.intern import (
    intern,
    intern_generation,
    intern_node,
    intern_plist,
    intern_tagged,
    is_interned,
)
from repro.core.recursion import deep_recursion
from repro.core.terms import Node, Pattern, PList, Tagged
from repro.obs import _state as _obs
from repro.obs.metrics import REDEX_DECOMPOSE_DEPTH
from repro.redex.patterns import _tag_wrapper

__all__ = [
    "TagFrame",
    "ChildFrame",
    "ListFrame",
    "Context",
    "RefocusState",
    "RefocusMachine",
    "find_redex",
    "refocus",
    "plug_context",
]


# ---------------------------------------------------------------------------
# Frames and contexts
# ---------------------------------------------------------------------------


class TagFrame:
    """An origin tag above the hole: ``fill(t) = Tagged(tag, t)``."""

    __slots__ = ("tag",)

    def __init__(self, tag) -> None:
        self.tag = tag

    def fill(self, term: Pattern) -> Pattern:
        return Tagged(self.tag, term)

    def fill_interned(self, term: Pattern) -> Pattern:
        return intern_tagged(self.tag, term)

    def key(self) -> tuple:
        return ("t", self.tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TagFrame({self.tag!r})"


class ChildFrame:
    """A node with the hole at one child:
    ``fill(t) = Node(label, left + (t,) + right)``."""

    __slots__ = ("label", "left", "right")

    def __init__(
        self,
        label: str,
        left: Tuple[Pattern, ...],
        right: Tuple[Pattern, ...],
    ) -> None:
        self.label = label
        self.left = left
        self.right = right

    def fill(self, term: Pattern) -> Pattern:
        return Node(self.label, self.left + (term,) + self.right)

    def fill_interned(self, term: Pattern) -> Pattern:
        return intern_node(self.label, self.left + (term,) + self.right)

    def key(self) -> tuple:
        return (
            "n",
            self.label,
            tuple(map(id, self.left)),
            tuple(map(id, self.right)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChildFrame({self.label!r}, {len(self.left)}+[]+{len(self.right)})"


class ListFrame:
    """A list with the hole at one element:
    ``fill(t) = PList(left + (t,) + right)``."""

    __slots__ = ("left", "right")

    def __init__(
        self, left: Tuple[Pattern, ...], right: Tuple[Pattern, ...]
    ) -> None:
        self.left = left
        self.right = right

    def fill(self, term: Pattern) -> Pattern:
        return PList(self.left + (term,) + self.right)

    def fill_interned(self, term: Pattern) -> Pattern:
        return intern_plist(self.left + (term,) + self.right)

    def key(self) -> tuple:
        return ("l", tuple(map(id, self.left)), tuple(map(id, self.right)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ListFrame({len(self.left)}+[]+{len(self.right)})"


class Context:
    """An evaluation context: a linked stack of frames, innermost first.

    The empty context is ``None``.  ``depth`` counts frames to the root.
    """

    __slots__ = ("frame", "parent", "depth")

    def __init__(self, frame, parent: Optional["Context"]) -> None:
        self.frame = frame
        self.parent = parent
        self.depth = 1 if parent is None else parent.depth + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Context(depth={self.depth}, frame={self.frame!r})"


def _push_plain(parent: Optional[Context], frame) -> Context:
    return Context(frame, parent)


def _fill_plain(frame, term: Pattern) -> Pattern:
    return frame.fill(term)


def _fill_interned(frame, term: Pattern) -> Pattern:
    return frame.fill_interned(term)


def plug_context(ctx: Optional[Context], term: Pattern) -> Pattern:
    """Rebuild the whole term with ``term`` in the context's hole."""
    while ctx is not None:
        term = ctx.frame.fill(term)
        ctx = ctx.parent
    return term


# ---------------------------------------------------------------------------
# Decomposition: interpreting congruence declarations into frames
# ---------------------------------------------------------------------------


def _child(node: Node, index: int) -> Pattern:
    try:
        return node.children[index]
    except IndexError:
        raise LanguageError(
            f"congruence position {index} out of range for "
            f"{node.label} with arity {len(node.children)}"
        ) from None


def _child_frame(node: Node, index: int) -> ChildFrame:
    children = node.children
    return ChildFrame(node.label, children[:index], children[index + 1 :])


def _strip_tag_frames(term: Pattern):
    frames: List[TagFrame] = []
    while isinstance(term, Tagged):
        frames.append(TagFrame(term.tag))
        term = term.term
    return frames, term


def _try_position(node: Node, position, is_value):
    """One congruence position of ``node``: ``(frames, target)`` for a
    descent (frames ordered outermost first), or ``None`` when the
    position holds a value (or does not apply)."""
    if isinstance(position, int):
        child = _child(node, position)
        if is_value(child):
            return None
        return (_child_frame(node, position),), child

    kind = position[0]
    if kind == "list":
        return _descend_list(node, position[1], None, is_value, 0)
    if kind == "nth":
        min_len = position[3] if len(position) > 3 else 0
        return _descend_list(node, position[1], position[2], is_value, min_len)
    if kind == "list_child":
        return _descend_list_child(node, position[1], position[2], is_value)
    raise LanguageError(f"unknown evaluation position {position!r}")


def _descend_list(node, child_index, only, is_value, min_len):
    child = _child(node, child_index)
    tag_frames, bare = _strip_tag_frames(child)
    if isinstance(bare, PList) and len(bare.items) < min_len:
        return None
    if not isinstance(bare, PList):
        # Not a list (yet): treat the child as an ordinary position.
        if is_value(child):
            return None
        return (_child_frame(node, child_index),), child
    items = bare.items
    indices = range(len(items)) if only is None else (only,)
    for j in indices:
        if j >= len(items):
            continue
        element = items[j]
        if is_value(element):
            continue
        frames = (
            _child_frame(node, child_index),
            *tag_frames,
            ListFrame(items[:j], items[j + 1 :]),
        )
        return frames, element
    return None


def _descend_list_child(node, child_index, inner_index, is_value):
    child = _child(node, child_index)
    tag_frames, bare = _strip_tag_frames(child)
    if not isinstance(bare, PList):
        return None
    items = bare.items
    for j, element in enumerate(items):
        elem_tag_frames, elem_bare = _strip_tag_frames(element)
        if not isinstance(elem_bare, Node):
            continue
        if inner_index >= len(elem_bare.children):
            continue
        target = elem_bare.children[inner_index]
        if is_value(target):
            continue
        frames = (
            _child_frame(node, child_index),
            *tag_frames,
            ListFrame(items[:j], items[j + 1 :]),
            *elem_tag_frames,
            _child_frame(elem_bare, inner_index),
        )
        return frames, target
    return None


def find_redex(
    strategy,
    ctx: Optional[Context],
    term: Pattern,
    is_value: Callable[[Pattern], bool],
    push=_push_plain,
    fill=_fill_plain,
) -> Tuple[Optional[Context], Pattern, int]:
    """Decompose downward from the non-value focus ``term`` under ``ctx``.

    Returns ``(context, redex, frames_moved)``.  The redex carries its
    own outer tags; contiguous ``Tag`` frames directly above it are
    folded back in (so the frame below a redex is never a tag — the
    refocus invariant).
    """
    moves = 0
    while True:
        bare = term
        while isinstance(bare, Tagged):
            bare = bare.term
        hit = None
        if type(bare) is Node:
            for position in strategy.positions(bare.label):
                hit = _try_position(bare, position, is_value)
                if hit is not None:
                    break
        if hit is None:
            # ``term`` is the redex.  Tags directly above it travel with
            # it into the rule, exactly as in root decomposition.
            while ctx is not None and type(ctx.frame) is TagFrame:
                term = fill(ctx.frame, term)
                ctx = ctx.parent
                moves += 1
            return ctx, term, moves
        frames, target = hit
        if bare is not term:
            inner = term
            while isinstance(inner, Tagged):
                ctx = push(ctx, TagFrame(inner.tag))
                moves += 1
                inner = inner.term
        for frame in frames:
            ctx = push(ctx, frame)
            moves += 1
        term = target


def refocus(
    strategy,
    ctx: Optional[Context],
    term: Pattern,
    is_value: Callable[[Pattern], bool],
    push=_push_plain,
    fill=_fill_plain,
) -> Tuple[Optional[Context], Pattern, bool, int]:
    """Resume decomposition from a contraction site.

    ``term`` is the contractum sitting in ``ctx``.  When it is a value,
    frames are popped and the enclosing node's evaluation positions are
    rescanned; otherwise decomposition proceeds downward in place.

    Returns ``(context, focus, done, frames_moved)``: ``done`` means the
    whole program is a value and ``focus`` is that (fully plugged)
    value; otherwise ``focus`` is the next redex in ``context``.
    """
    moves = 0
    while True:
        if not is_value(term):
            ctx, redex, inner_moves = find_redex(
                strategy, ctx, term, is_value, push, fill
            )
            return ctx, redex, False, moves + inner_moves
        if ctx is None:
            return None, term, True, moves
        # Pop to the nearest enclosing node level: tag frames are
        # transparent and a list is only ever scanned through its node,
        # so only a rebuilt node can change the verdict.
        while True:
            frame = ctx.frame
            ctx = ctx.parent
            term = fill(frame, term)
            moves += 1
            if type(frame) is ChildFrame:
                break
            if ctx is None:
                return None, term, True, moves


# ---------------------------------------------------------------------------
# The machine stepper
# ---------------------------------------------------------------------------


class RefocusState:
    """A machine state between steps: the focused (undecomposed)
    contractum, the reified context it sits in, and the store.

    ``focus`` is interned; the whole-term snapshot is plugged lazily and
    cached (it is itself interned, so downstream identity-keyed caches
    see canonical terms)."""

    __slots__ = ("focus", "context", "store", "_snapshot")

    def __init__(self, focus: Pattern, context: Optional[Context], store) -> None:
        self.focus = focus
        self.context = context
        self.store = store
        self._snapshot: Optional[Pattern] = None


class RefocusMachine:
    """Drive a :class:`~repro.redex.reduction.ReductionSemantics` with
    refocusing: the context stays alive across steps and decomposition
    resumes at the last contraction site.

    Contexts are hash-consed per machine: pushing a frame whose
    components are pointer-identical onto the same parent yields the
    same :class:`Context` object, so contexts are pointer-comparable and
    snapshot plugging is a table probe per frame.  The tables key on
    interned term identity and are wiped whenever
    :func:`repro.core.intern.clear_intern_caches` bumps the generation
    (do not clear intern caches in the middle of a run — the same
    contract as :class:`~repro.core.incremental.ResugarCache`).
    """

    def __init__(self, semantics) -> None:
        self.semantics = semantics
        self._contexts: Dict[tuple, Context] = {}
        self._generation: Optional[int] = None

    # -- bookkeeping ---------------------------------------------------

    def _check_generation(self) -> None:
        generation = intern_generation()
        if generation != self._generation:
            self._contexts.clear()
            self._generation = generation

    def _push(self, parent: Optional[Context], frame) -> Context:
        key = (0 if parent is None else id(parent), *frame.key())
        found = self._contexts.get(key)
        if found is not None:
            return found
        ctx = Context(frame, parent)
        self._contexts[key] = ctx
        return ctx

    def _state(self, contractum: Pattern, context: Optional[Context], store):
        """A successor for ``contractum`` in ``context``.

        Falls back to a plain (naive) :class:`MachineState` for the
        pathological case of a non-ground contractum, which cannot be
        interned and therefore cannot key the hash-consing tables."""
        focus = intern(contractum)
        if is_interned(focus):
            return RefocusState(focus, context, store)
        from repro.redex.reduction import MachineState

        return MachineState(plug_context(context, contractum), store)

    # -- the Stepper-shaped machine interface --------------------------

    def load(self, core_term: Pattern):
        with deep_recursion():
            return self._fresh(core_term, None)

    def _fresh(self, term: Pattern, store):
        from repro.redex.reduction import EMPTY_STORE, MachineState

        store = EMPTY_STORE if store is None else store
        focus = intern(term)
        if is_interned(focus):
            return RefocusState(focus, None, store)
        return MachineState(term, store)

    def term(self, state: RefocusState) -> Pattern:
        snapshot = state._snapshot
        if snapshot is None:
            term = state.focus
            ctx = state.context
            while ctx is not None:
                term = ctx.frame.fill_interned(term)
                ctx = ctx.parent
            state._snapshot = snapshot = term
        return snapshot

    def step(self, state: RefocusState) -> list:
        """All successor states, observably identical to root-restart
        stepping (raises :class:`~repro.core.errors.StuckError` exactly
        when the naive stepper would)."""
        self._check_generation()
        semantics = self.semantics
        with deep_recursion():
            ctx, focus, done, moves = refocus(
                semantics.strategy,
                state.context,
                state.focus,
                semantics.is_value,
                self._push,
                _fill_interned,
            )
            if _obs.enabled:
                REDEX_DECOMPOSE_DEPTH.observe(moves)
            if done:
                # The whole program is a value: hand the final state to
                # the semantics so language-specific end-of-program
                # refinements (cell resolution, tag shedding, final
                # errors) apply exactly as on the naive path.
                state._snapshot = focus
                return self._delegate(focus, state.store)

            for rule, fill in semantics._candidate_rules(focus):
                env: dict = {}
                if not fill(focus, env):
                    continue
                if rule.control:
                    # Control-rule results replace the whole program;
                    # re-decompose them from the root next step.
                    def plug(contractum, _ctx=ctx):
                        return plug_context(_ctx, contractum)

                    return [
                        self._fresh(term, store)
                        for term, store in rule.apply(env, state.store, plug)
                    ]
                rewrap = _tag_wrapper(focus) if rule.preserve_redex_tags else None
                return [
                    self._state(
                        rewrap(term) if rewrap else term, ctx, store
                    )
                    for term, store in rule.apply(env, state.store)
                ]

            # No rule matched the redex: delegate the whole term so the
            # naive path's stuck handling (including any language pre-
            # refinement, e.g. final Error states) decides — and raises
            # the exact same StuckError when the term really is stuck.
            return self._delegate(self.term(state), state.store)

    def _delegate(self, whole_term: Pattern, store) -> list:
        from repro.redex.reduction import MachineState

        successors = self.semantics.step(MachineState(whole_term, store))
        return [self._fresh(s.term, s.store) for s in successors]
