"""The reduction semantics of the stateful lambda core (section 8.1).

Built on :mod:`repro.redex`, exactly as the paper built its language in
PLT Redex.  Values are numbers, strings, booleans, unit, undefined,
single-argument functions, ``call/cc``, captured continuations, store
locations, and *named cells*; the reduction rules are call-by-value beta
(with cell allocation for assigned parameters), conditionals over
booleans, sequencing, store reads/writes, primitive delta rules,
nondeterministic ``amb``, and the two context-sensitive control rules
for ``call/cc``.

Mutation design.  A parameter that is ``set!`` somewhere in its body
cannot be substituted by value.  At application time it is allocated a
*named cell*: references become ``Cell("x")`` (a value, displayed as the
bare identifier ``x``) and assignments become ``SetCell("x", e)``.
Cells resolve lazily, one visible step at a time, in elimination
positions (function of an application, argument of an application,
condition of an ``if``, arguments of a primitive) — and ``SetCell``
stores its right-hand side *without* resolving it, so
``(letrec ((x y) (y 2)) (+ x y))`` evaluates to 4 with the surface steps
``(+ x y) -> (+ 2 2) -> 4``, exactly the behaviour section 8.1 reports.
Keeping the variable's name in the running term is also what makes the
Figure 4 automaton trace show ``(apply more "adr")``: the name is a
value until application forces it, and the closure it resolves to is
opaque sugar-constructed code, so resolved states are skipped.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.core.errors import StuckError
from repro.core.terms import (
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
    strip_tags,
)
from repro.lambdacore.ast import HOLE
from repro.lambdacore.prims import apply_primitive
from repro.lambdacore.substitute import (
    Assigned,
    substitute,
    substitute_assigned,
)
from repro.redex import (
    AtomPred,
    EvalStrategy,
    Grammar,
    NTRef,
    RedexStepper,
    ReductionRule,
    ReductionSemantics,
)

__all__ = ["make_semantics", "make_stepper", "plug_hole", "alloc"]


def _grammar() -> Grammar:
    g = Grammar()
    g.define(
        "v",
        AtomPred("number"),
        AtomPred("string"),
        AtomPred("boolean"),
        Node("Unit", ()),
        Node("Undefined", ()),
        Node("Lam", (AtomPred("string"), PVar("_body"))),
        Node("CallCC", ()),
        Node("Cont", (PVar("_k"),)),
        Node("Loc", (AtomPred("integer"),)),
        Node("Cell", (AtomPred("string"),)),
        Node("Pair", (NTRef("v"), NTRef("v"))),
        Node("Nil", ()),
    )
    g.define(
        "e",
        NTRef("v"),
        Node("Id", (AtomPred("string"),)),
        Node("App", (NTRef("e"), NTRef("e"))),
        Node("If", (NTRef("e"), NTRef("e"), NTRef("e"))),
        Node("Seq", (PList((), NTRef("e")),)),
        Node("Set", (AtomPred("string"), NTRef("e"))),
        Node("SetLoc", (NTRef("e"), NTRef("e"))),
        Node("Deref", (NTRef("e"),)),
        Node("Op", (AtomPred("string"), PList((), NTRef("e")))),
        Node("Amb", (PList((), NTRef("e")),)),
        Node("SetCell", (AtomPred("string"), NTRef("e"))),
    )
    return g


def _strategy() -> EvalStrategy:
    return (
        EvalStrategy()
        .congruence("App", 0, 1)
        .congruence("If", 0)
        .congruence("Seq", ("nth", 0, 0, 2))
        .congruence("Set", 1)
        .congruence("SetLoc", 1)
        .congruence("SetCell", 1)
        .congruence("Deref", 0)
        .congruence("Op", ("list", 1))
        .congruence("Amb")  # immediate redex: choices stay unevaluated
    )


def alloc(store, value: Pattern):
    """Allocate a fresh store location holding ``value``."""
    n = max(store.keys(), default=-1) + 1
    updated = dict(store)
    updated[n] = value
    return n, MappingProxyType(updated)


def plug_hole(context: Pattern, value: Pattern) -> Pattern:
    """Replace the hole in a captured continuation with ``value``."""
    if isinstance(context, Node):
        if context.label == "Hole" and not context.children:
            return value
        return Node(
            context.label, tuple(plug_hole(c, value) for c in context.children)
        )
    if isinstance(context, PList):
        ell = (
            plug_hole(context.ellipsis, value)
            if context.ellipsis is not None
            else None
        )
        return PList(tuple(plug_hole(c, value) for c in context.items), ell)
    if isinstance(context, Tagged):
        return Tagged(context.tag, plug_hole(context.term, value))
    return context


def _fresh_cell_name(store, base: str) -> str:
    name = base
    while name in store:
        name += "'"
    return name


def _beta(env, store):
    param = env["x"].value
    body = env["body"]
    arg = env["arg"]
    try:
        return substitute(body, param, arg)
    except Assigned:
        # The body assigns the parameter: give it a named cell instead.
        cell_name = _fresh_cell_name(store, param)
        updated = dict(store)
        updated[cell_name] = arg
        return (
            substitute_assigned(body, param, cell_name),
            MappingProxyType(updated),
        )


def _cell_name(t: Pattern):
    """The cell's name when ``t`` is (a tagged) ``Cell``, else None."""
    while isinstance(t, Tagged):
        t = t.term
    if isinstance(t, Node) and t.label == "Cell" and len(t.children) == 1:
        name = t.children[0]
        while isinstance(name, Tagged):
            name = name.term
        if isinstance(name, Const) and isinstance(name.value, str):
            return name.value
    return None


def resolve_cell(store, term: Pattern) -> Pattern:
    """Follow a chain of cells to a non-cell value (one visible step
    resolves the whole chain, so ``(+ x y)`` goes straight to
    ``(+ 2 2)``)."""
    seen = set()
    while True:
        name = _cell_name(term)
        if name is None:
            return term
        if name in seen:
            raise StuckError(f"cyclic cell chain through {name!r}")
        seen.add(name)
        try:
            term = store[name]
        except KeyError:
            raise StuckError(f"unbound variable {name!r}") from None


def _resolve_app_fn(env, store):
    cell = Node("Cell", (env["cn"],))
    return Node("App", (resolve_cell(store, cell), env["rest"]))


def _resolve_if(env, store):
    cell = Node("Cell", (env["cn"],))
    return Node("If", (resolve_cell(store, cell), env["t"], env["e"]))


def _resolve_id(env, store):
    cell = Node("Cell", (env["cn"],))
    return resolve_cell(store, cell)


def _setcell(env, store):
    updated = dict(store)
    updated[env["name"].value] = env["val"]
    return (Node("Unit", ()), MappingProxyType(updated))


def _callcc(env, store, plug):
    continuation = Node("Cont", (plug(HOLE),))
    return plug(Node("App", (env["f"], continuation)))


def _invoke_cont(env, store, plug):
    return plug_hole(env["k"], env["arg"])


def _setloc(env, store):
    n = env["n"].value
    updated = dict(store)
    updated[n] = env["val"]
    return (Node("Unit", ()), MappingProxyType(updated))


def _deref(env, store):
    n = env["n"].value
    try:
        return store[n]
    except KeyError:
        raise StuckError(f"dereference of unallocated location {n}") from None


def _delta(env, store):
    args_term = env["args"]
    while isinstance(args_term, Tagged):
        args_term = args_term.term
    if not isinstance(args_term, PList):
        raise StuckError("primitive applied to a non-list argument vector")
    if any(_cell_name(a) is not None for a in args_term.items):
        # Resolve every cell argument in one visible step, so that
        # (+ x y) steps to (+ 2 2) before computing 4.
        resolved = tuple(resolve_cell(store, a) for a in args_term.items)
        return Node("Op", (env["op"], PList(resolved)))
    return apply_primitive(env["op"].value, list(args_term.items))


def _amb(env, store):
    choices = env["choices"]
    while isinstance(choices, Tagged):
        choices = choices.term
    if not isinstance(choices, PList) or not choices.items:
        raise StuckError("amb: needs at least one choice")
    return list(choices.items)


def _rules():
    v = NTRef("v", "arg")
    return [
        ReductionRule(
            "id-call/cc",
            Node("Id", (Const("call/cc"),)),
            Node("CallCC", ()),
        ),
        ReductionRule(
            # A free identifier in evaluation position resolves through
            # the named store (global cells created by set! on a free
            # variable; see the Return sugar).  Unbound names are stuck.
            "id-resolve",
            Node("Id", (AtomPred("string", "cn"),)),
            _resolve_id,
        ),
        ReductionRule(
            "app-resolve-fn",
            Node(
                "App",
                (Node("Cell", (AtomPred("string", "cn"),)), PVar("rest")),
            ),
            _resolve_app_fn,
        ),
        ReductionRule(
            "beta",
            Node(
                "App",
                (
                    Node("Lam", (AtomPred("string", "x"), PVar("body"))),
                    v,
                ),
            ),
            _beta,
        ),
        ReductionRule(
            "call/cc",
            Node("App", (Node("CallCC", ()), NTRef("v", "f"))),
            _callcc,
            control=True,
        ),
        ReductionRule(
            "invoke-continuation",
            Node("App", (Node("Cont", (PVar("k"),)), v)),
            _invoke_cont,
            control=True,
        ),
        ReductionRule(
            "if-resolve",
            Node(
                "If",
                (
                    Node("Cell", (AtomPred("string", "cn"),)),
                    PVar("t"),
                    PVar("e"),
                ),
            ),
            _resolve_if,
        ),
        ReductionRule(
            "if-true",
            Node("If", (Const(True), PVar("t"), PVar("e"))),
            PVar("t"),
        ),
        ReductionRule(
            "if-false",
            Node("If", (Const(False), PVar("t"), PVar("e"))),
            PVar("e"),
        ),
        ReductionRule(
            # (begin e) is e, evaluated in tail position -- the begin
            # disappears before e runs, as in Racket.
            "seq-done",
            Node("Seq", (PList((PVar("last"),)),)),
            PVar("last"),
        ),
        ReductionRule(
            "seq-step",
            Node("Seq", (PList((NTRef("v"), PVar("e2")), PVar("rest")),)),
            Node("Seq", (PList((PVar("e2"),), PVar("rest")),)),
            preserve_redex_tags=True,
        ),
        ReductionRule(
            # set! on a variable no binder claimed: a *global* named
            # cell.  (set! on an assigned local becomes SetCell during
            # beta, so any Set alive at run time is on a free name.)
            "set-free-variable",
            Node("Set", (AtomPred("string", "name"), NTRef("v", "val"))),
            _setcell,
        ),
        ReductionRule(
            "set-cell",
            Node(
                "SetCell",
                (AtomPred("string", "name"), NTRef("v", "val")),
            ),
            _setcell,
        ),
        ReductionRule(
            "set-loc",
            Node(
                "SetLoc",
                (Node("Loc", (AtomPred("integer", "n"),)), NTRef("v", "val")),
            ),
            _setloc,
        ),
        ReductionRule(
            "deref",
            Node("Deref", (Node("Loc", (AtomPred("integer", "n"),)),)),
            _deref,
        ),
        ReductionRule(
            "delta",
            Node("Op", (AtomPred("string", "op"), PVar("args"))),
            _delta,
        ),
        ReductionRule(
            "amb",
            Node("Amb", (PVar("choices"),)),
            _amb,
        ),
    ]


class LambdaSemantics(ReductionSemantics):
    """The lambda-core semantics, with two end-of-program refinements:

    * a whole program that has evaluated to a bare cell takes one last
      step resolving it (the value of a mutable variable, not its name,
      is the answer);
    * a whole program that has evaluated to a *tagged* value takes one
      last step shedding the tags — a sugar-constructed constant (e.g.
      ``Or([]) -> false``) is still the value ``false``, and the lifted
      trace should end with it.
    """

    def step(self, state):
        successors = super().step(state)
        if successors:
            return successors
        if _cell_name(state.term) is not None:
            resolved = resolve_cell(state.store, state.term)
            return [state.__class__(resolved, state.store)]
        if isinstance(state.term, Tagged):
            stripped = strip_tags(state.term)
            if self.is_value(stripped) and stripped != state.term:
                return [state.__class__(stripped, state.store)]
        return []


def make_semantics() -> ReductionSemantics:
    """Build the lambda-core reduction semantics (a fresh instance)."""
    return LambdaSemantics(
        _grammar(), _strategy(), _rules(), name="lambdacore"
    )


def make_stepper(on_stuck: str = "halt") -> RedexStepper:
    """A :class:`~repro.core.lift.Stepper` for the lambda core."""
    return RedexStepper(make_semantics(), on_stuck=on_stuck)
