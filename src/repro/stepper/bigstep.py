"""A big-step (environment-based) evaluator for the lambda core.

Section 7 of the paper starts from the observation that "typical
evaluators" do not produce term-per-step traces: they are recursive
interpreters or compiled code.  This module is our stand-in for such a
production evaluator — a plain, fast, environment-passing big-step
interpreter over the pure subset of the lambda core (no tags, no amb).
:mod:`repro.stepper.instrument` then shows how the paper's techniques
(a shadow stack of A-normal frames, pausing at each step) recover a
stepper from it, and at what cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import StuckError
from repro.core.terms import Const, Node, Pattern, untagged

__all__ = ["Closure", "evaluate", "Value"]


@dataclass(frozen=True)
class Closure:
    """A function value: parameter, body, captured environment."""

    param: str
    body: Pattern
    env: "Env"

    def __repr__(self) -> str:
        return f"<closure {self.param}>"


Value = object  # int | float | str | bool | Closure
Env = Tuple  # persistent assoc list: (name, value, rest) or ()

_PRIM_TABLE: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "equal?": lambda a, b: a == b,
    "zero?": lambda a: a == 0,
    "not": lambda a: not a,
    "first": lambda s: s[0],
    "rest": lambda s: s[1:],
    "empty?": lambda s: s == "",
    # A deliberately work-heavy primitive standing in for uninstrumented
    # runtime-library work (the paper's overhead "depends on ... the
    # relative mix of instrumented and uninstrumented calls").
    "heavy-work": lambda n: sum(range(int(n))) % 97,
}


def _lookup(env: Env, name: str):
    while env:
        if env[0] == name:
            return env[1]
        env = env[2]
    raise StuckError(f"unbound variable {name!r}")


def evaluate(
    term: Pattern,
    env: Env = (),
    hook: Optional[Callable[[], None]] = None,
) -> Value:
    """Evaluate a pure lambda-core term to a Python value.

    ``hook``, when given, is invoked once per evaluation step (each
    recursive visit) — the "pause at every evaluation step" of
    section 7, reduced to its cost skeleton so instrumentation overhead
    can be measured against the uninstrumented evaluator.
    """
    if hook is not None:
        hook()
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
        fn = evaluate(t.children[0], env, hook)
        arg = evaluate(t.children[1], env, hook)
        if not isinstance(fn, Closure):
            raise StuckError(f"cannot apply {fn!r}")
        return evaluate(fn.body, (fn.param, arg, fn.env), hook)
    if label == "If":
        cond = evaluate(t.children[0], env, hook)
        if cond is True:
            return evaluate(t.children[1], env, hook)
        if cond is False:
            return evaluate(t.children[2], env, hook)
        raise StuckError(f"if: not a boolean: {cond!r}")
    if label == "Seq":
        body = untagged(t.children[0])
        result = None
        for expr in body.items:
            result = evaluate(expr, env, hook)
        return result
    if label == "Op":
        name = untagged(t.children[0]).value
        args = [
            evaluate(a, env, hook) for a in untagged(t.children[1]).items
        ]
        try:
            fn = _PRIM_TABLE[name]
        except KeyError:
            raise StuckError(f"unknown primitive {name!r}") from None
        try:
            return fn(*args)
        except (TypeError, IndexError) as exc:
            raise StuckError(f"{name}: {exc}") from None
    raise StuckError(f"big-step evaluator does not handle {label!r}")
