"""The paper's lifting loop, written out directly: the reference oracle.

Section 5.3's algorithm over the whole-term operations of the paper —
:func:`~repro.core.desugar.desugar`, :func:`~repro.core.desugar.resugar`
and :func:`~repro.core.lenses.emulates` — with no resugaring cache, no
interning, no shortcut and no event stream::

    c := desugar(s)
    loop:
        s' := resugar(c)
        if s' and emulates(s', c): show s'     (dedup in sequences)
        c := step(c)

It shares nothing with :mod:`repro.engine.stream` but the result
types, so a differential test that compares the engine against it does
not check the engine against itself.

:func:`lift` (sequences) and :func:`lift_tree` (trees) run one
breadth-first loop, as the engine does, with the same step budget —
core indices ``0..max_steps`` in a sequence, ``max_nodes`` explored
nodes in a tree — the same ``"raise"``/``"truncate"`` policies, and the
same error messages.  There is no wall-clock budget, and results carry
no cache statistics.
"""

from __future__ import annotations

from collections import deque

from repro.core.desugar import desugar, resugar
from repro.core.errors import ReproError
from repro.core.lenses import emulates
from repro.core.lift import (
    EmulationViolation,
    LiftedStep,
    LiftResult,
    SurfaceTree,
)
from repro.core.recursion import deep_recursion

__all__ = ["lift", "lift_tree"]


def _explore(rules, stepper, surface_term, tree, check_emulation, limit,
             on_budget, visit) -> bool:
    """Step ``surface_term``'s core breadth-first.  ``visit(index, term,
    surface, parent)`` records one core state (``surface`` is ``None``
    when it has no surface representation) and returns the parent node
    of its successors.  Returns whether the budget cut the run."""
    kind = "node" if tree else "step"
    stop_at = limit if tree else limit + 1
    with deep_recursion():
        frontier = deque([(stepper.load(desugar(rules, surface_term)), None)])
        index = 0
        while frontier:
            if index >= stop_at:
                if on_budget == "truncate":
                    return True
                if tree:
                    raise ReproError(
                        f"evaluation tree exceeded {limit} core nodes"
                    )
                raise ReproError(
                    f"evaluation did not finish within {limit} steps"
                )
            state, parent = frontier.popleft()
            term = stepper.term(state)
            surface = resugar(rules, term)
            if (
                surface is not None
                and check_emulation
                and not emulates(rules, surface, term)
            ):
                raise EmulationViolation(
                    f"surface {kind} {surface} does not desugar into the "
                    f"core term it represents: {term}"
                )
            parent = visit(index, term, surface, parent)
            successors = stepper.step(state)
            if len(successors) > 1 and not tree:
                raise ReproError(
                    "nondeterministic step during sequence lifting; use "
                    "lift_evaluation_tree for languages with amb"
                )
            frontier.extend((successor, parent) for successor in successors)
            index += 1
    return False


def lift(rules, stepper, surface_term, *, dedup=True, check_emulation=True,
         max_steps=100_000, on_budget="raise") -> LiftResult:
    """The surface evaluation sequence of ``surface_term``: every core
    step's fate, and the surface terms shown (a surface term equal to
    the last one shown is not shown again when ``dedup``)."""
    result = LiftResult()

    def visit(index, term, surface, parent):
        shown = surface is not None and not (
            dedup
            and result.surface_sequence
            and surface == result.surface_sequence[-1]
        )
        if shown:
            result.surface_sequence.append(surface)
        result.steps.append(LiftedStep(index, term, surface, shown))
        return parent

    result.truncated = _explore(
        rules, stepper, surface_term, False, check_emulation, max_steps,
        on_budget, visit,
    )
    return result


def lift_tree(rules, stepper, surface_term, *, check_emulation=True,
              max_nodes=100_000, on_budget="raise") -> SurfaceTree:
    """The surface evaluation tree of ``surface_term``: a node per core
    state with a surface representation, numbered in breadth-first
    order and attached under its nearest shown ancestor."""
    tree = SurfaceTree()

    def visit(index, term, surface, parent):
        tree.core_node_count += 1
        if surface is None:
            tree.skipped_count += 1
            return parent
        node = len(tree.nodes)
        tree.nodes[node] = surface
        if parent is None:
            tree.root = node
        else:
            tree.edges.append((parent, node))
        return node

    tree.truncated = _explore(
        rules, stepper, surface_term, True, check_emulation, max_nodes,
        on_budget, visit,
    )
    return tree
