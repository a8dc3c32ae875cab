"""Shadow-stack instrumentation (section 7).

"Our steppers simply instrument the code to maintain a global stateful
stack onto which they push and pop frames.  In addition, our core
steppers instrument the code so that it pauses at every evaluation step
to emit the representation of the current continuation."

This module applies that technique to the big-step evaluator: an
instrumented evaluation maintains a :class:`ShadowStack` of frames (one
per pending application/conditional/primitive), can reconstruct the
current continuation as a source term at any pause, and counts the work
so the overhead of instrumentation can be measured against the plain
evaluator — the experiment behind the paper's "5-40% overhead" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.errors import StuckError
from repro.core.terms import Const, Node, Pattern, PList, Tagged, untagged
from repro.stepper.bigstep import Closure, Value, _PRIM_TABLE, _lookup

__all__ = [
    "Frame",
    "ShadowStack",
    "InstrumentedEvaluator",
    "measure_overhead",
    "OverheadReport",
]

HOLE = Node("Hole", ())


Frame = tuple
"""One pending computation, stored *lazily* as ``(kind, pieces)``.

Pushing must be cheap — the paper's 5-40% overhead is for frame
bookkeeping, with term reconstruction deferred to the moments a stepper
actually emits — so frames are bare tuples and no term is built until
:meth:`ShadowStack.reconstruct`.
"""


def _frame_term(frame: Frame) -> Pattern:
    kind, pieces = frame
    if kind == "app-fn":
        (arg,) = pieces
        return Node("App", (HOLE, arg))
    if kind == "app-arg":
        (fn_value,) = pieces
        return Node("App", (_value_to_term(fn_value), HOLE))
    if kind == "if-test":
        then, els = pieces
        return Node("If", (HOLE, then, els))
    if kind == "op-arg":
        op, done, rest = pieces
        done_terms = tuple(_value_to_term(v) for v in done)
        return Node("Op", (op, PList(done_terms + (HOLE,) + tuple(rest))))
    raise AssertionError(f"unknown frame kind {kind!r}")


class ShadowStack:
    """The global stateful stack of section 7."""

    def __init__(self) -> None:
        self.frames: List[Frame] = []
        self.max_depth = 0
        self.pushes = 0

    def push(self, kind: str, *pieces) -> None:
        frames = self.frames
        frames.append((kind, pieces))
        self.pushes += 1
        if len(frames) > self.max_depth:
            self.max_depth = len(frames)

    def pop(self) -> Frame:
        return self.frames.pop()

    def reconstruct(self, focus: Pattern) -> Pattern:
        """The current continuation as source: plug the focus into each
        frame, innermost first."""
        term = focus
        for frame in reversed(self.frames):
            term = _plug(_frame_term(frame), term)
        return term


def _plug(context: Pattern, value: Pattern) -> Pattern:
    if isinstance(context, Node):
        if context.label == "Hole" and not context.children:
            return value
        return Node(
            context.label, tuple(_plug(c, value) for c in context.children)
        )
    if isinstance(context, PList):
        return PList(tuple(_plug(c, value) for c in context.items))
    if isinstance(context, Tagged):
        return Tagged(context.tag, _plug(context.term, value))
    return context


def _value_to_term(v: Value) -> Pattern:
    if isinstance(v, Closure):
        return Node("Lam", (Const(v.param), Const("<...>")))
    return Const(v)


class InstrumentedEvaluator:
    """The big-step evaluator plus (optional) shadow stack and pauses.

    The instrumentation dials mirror the paper's cost components:

    * ``shadow_stack=False`` disables everything — the *uninstrumented
      baseline* of the overhead experiment (same code path, so the
      measured difference is the instrumentation, not interpreter
      style);
    * ``shadow_stack=True, reconstruct=False`` maintains frames and
      pauses but never builds terms — the paper's measured 5-40%
      configuration;
    * ``reconstruct=True`` additionally rebuilds the continuation as a
      source term at every step, the cost the paper attributes to
      serialization and notes "can obviously be eliminated" by emitting
      inside the host runtime.

    ``on_step``, when given, receives the reconstructed continuation at
    every step — what a resugarer would consume.
    """

    def __init__(
        self,
        on_step: Optional[Callable[[Pattern], None]] = None,
        reconstruct: bool = True,
        shadow_stack: bool = True,
    ) -> None:
        self.shadow_stack = shadow_stack and True
        self.stack = ShadowStack()
        self.on_step = on_step
        self.reconstruct = reconstruct and shadow_stack
        self.steps = 0

    def _pause(self, focus: Pattern) -> None:
        self.steps += 1
        if self.reconstruct:
            continuation = self.stack.reconstruct(focus)
            if self.on_step is not None:
                self.on_step(continuation)

    def evaluate(self, term: Pattern, env=()) -> Value:
        stack = self.stack if self.shadow_stack else None
        if stack is not None:
            self.steps += 1
            if self.reconstruct:
                self._pause(term)
        t = untagged(term)
        if isinstance(t, Const):
            return t.value
        if not isinstance(t, Node):
            raise StuckError(f"cannot evaluate {t!r}")
        label = t.label
        if label == "Id":
            return _lookup(env, untagged(t.children[0]).value)
        if label == "Lam":
            return Closure(untagged(t.children[0]).value, t.children[1], env)
        if label == "App":
            if stack is not None:
                stack.push("app-fn", t.children[1])
            fn = self.evaluate(t.children[0], env)
            if stack is not None:
                stack.pop()
                stack.push("app-arg", fn)
            arg = self.evaluate(t.children[1], env)
            if stack is not None:
                stack.pop()
            if not isinstance(fn, Closure):
                raise StuckError(f"cannot apply {fn!r}")
            return self.evaluate(fn.body, (fn.param, arg, fn.env))
        if label == "If":
            if stack is not None:
                stack.push("if-test", t.children[1], t.children[2])
            cond = self.evaluate(t.children[0], env)
            if stack is not None:
                stack.pop()
            if cond is True:
                return self.evaluate(t.children[1], env)
            if cond is False:
                return self.evaluate(t.children[2], env)
            raise StuckError(f"if: not a boolean: {cond!r}")
        if label == "Seq":
            body = untagged(t.children[0])
            result = None
            for expr in body.items:
                result = self.evaluate(expr, env)
            return result
        if label == "Op":
            name = untagged(t.children[0]).value
            args = []
            arg_terms = list(untagged(t.children[1]).items)
            for i, a in enumerate(arg_terms):
                if stack is not None:
                    stack.push(
                        "op-arg",
                        t.children[0],
                        tuple(args),
                        tuple(arg_terms[i + 1:]),
                    )
                args.append(self.evaluate(a, env))
                if stack is not None:
                    stack.pop()
            try:
                fn = _PRIM_TABLE[name]
            except KeyError:
                raise StuckError(f"unknown primitive {name!r}") from None
            try:
                return fn(*args)
            except (TypeError, IndexError) as exc:
                raise StuckError(f"{name}: {exc}") from None
        raise StuckError(f"instrumented evaluator does not handle {label!r}")


@dataclass
class OverheadReport:
    """Timings of one workload, plain versus instrumented."""

    workload: str
    plain_seconds: float
    stack_only_seconds: float
    full_seconds: float
    steps: int
    max_stack_depth: int

    @property
    def stack_overhead(self) -> float:
        """Relative overhead of shadow-stack bookkeeping alone."""
        return self.stack_only_seconds / self.plain_seconds - 1.0

    @property
    def full_overhead(self) -> float:
        """Relative overhead including continuation reconstruction."""
        return self.full_seconds / self.plain_seconds - 1.0


def measure_overhead(
    workload: str, term: Pattern, repetitions: int = 5
) -> OverheadReport:
    """Run ``term`` uninstrumented, stack-only-instrumented, and fully
    instrumented; report best-of-N timings (the section 7 experiment).

    The baseline runs the *same* evaluator code with instrumentation
    switched off, so the measured overhead is the instrumentation
    itself — the quantity the paper reports as 5-40%.
    """

    def best(fn) -> float:
        times = []
        for _ in range(repetitions):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def plain_run():
        InstrumentedEvaluator(shadow_stack=False).evaluate(term)

    plain = best(plain_run)

    def stack_only():
        InstrumentedEvaluator(reconstruct=False).evaluate(term)

    stack = best(stack_only)

    probe = InstrumentedEvaluator(reconstruct=True)
    probe.evaluate(term)

    def full():
        InstrumentedEvaluator(reconstruct=True).evaluate(term)

    full_time = best(full)

    return OverheadReport(
        workload=workload,
        plain_seconds=plain,
        stack_only_seconds=stack,
        full_seconds=full_time,
        steps=probe.steps,
        max_stack_depth=probe.stack.max_depth,
    )
