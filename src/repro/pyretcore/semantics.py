"""The Pyret-like core object language (sections 4 and 8.3).

The paper's Pyret case study desugars surface programs into a core with
multi-argument functions, objects, bracket field lookup, method-style
primitives (``1.["_plus"]``), let bindings, blocks, conditionals, and
``raise``.  This module defines that core as a reduction semantics over
the shared term representation, so CONFECTION can lift its traces.

Values: numbers, strings, booleans, ``Nothing`` (Pyret's unit),
multi-argument lambdas, object literals of values, the builtin list
constructors and list values, bound method values (what ``1.["_plus"]``
resolves to — displayed as ``<func>``, the paper's "resolved
functional"), and error values produced by ``raise``.

Function declarations are recursive: ``DefRec`` stores the closure in a
named store and leaves references as ``Id`` nodes, which resolve lazily
— so the first lifted step of the section 4 example reads
``<func>([1, 2])``, exactly as the paper prints it.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.core.errors import StuckError
from repro.core.intern import CANONICAL, PLAIN, Builders, is_interned
from repro.core.terms import (
    Binders,
    Const,
    Node,
    Pattern,
    PList,
    PVar,
    Tagged,
    free_names,
    strip_tags,
    untagged,
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

__all__ = ["make_semantics", "make_stepper", "NUMBER_METHODS", "STRING_METHODS"]


# --- grammar ----------------------------------------------------------

def _grammar() -> Grammar:
    g = Grammar()
    g.define(
        "v",
        AtomPred("number"),
        AtomPred("string"),
        AtomPred("boolean"),
        Node("Nothing", ()),
        Node("Lam", (PVar("_params"), PVar("_body"))),
        Node("Obj", (PList((), Node("Field", (AtomPred("string"), NTRef("v")))),)),
        Node("ListModule", ()),
        Node("LinkCtor", ()),
        Node("ListEmpty", ()),
        Node("ListLink", (NTRef("v"), NTRef("v"))),
        Node("Method", (AtomPred("string"), NTRef("v"))),
        Node("MatchFn", (NTRef("v"),)),
        Node("Error", (NTRef("v"),)),
        # User-datatype values (the paper's future-work extension): a
        # variant tag applied to field values.
        Node("Data", (AtomPred("string"), PList((), NTRef("v")))),
    )
    g.define(
        "e",
        NTRef("v"),
        Node("Id", (AtomPred("string"),)),
        Node("App", (NTRef("e"), PList((), NTRef("e")))),
        Node("Bracket", (NTRef("e"), NTRef("e"))),
        Node("Let", (AtomPred("string"), NTRef("e"), NTRef("e"))),
        Node("DefRec", (AtomPred("string"), NTRef("e"), NTRef("e"))),
        Node("Block", (PList((), NTRef("e")),)),
        Node("If", (NTRef("e"), NTRef("e"), NTRef("e"))),
        Node("Raise", (NTRef("e"),)),
    )
    return g


def _strategy() -> EvalStrategy:
    return (
        EvalStrategy()
        .congruence("App", 0, ("list", 1))
        .congruence("Bracket", 0, 1)
        .congruence("Let", 1)
        .congruence("DefRec", 1)
        .congruence("Block", ("nth", 0, 0, 2))
        .congruence("If", 0)
        .congruence("Raise", 0)
        .congruence("Obj", ("list_child", 0, 1))
        .congruence("Data", ("list", 1))
    )


# --- substitution -----------------------------------------------------

def substitute(term: Pattern, name: str, value: Pattern) -> Pattern:
    """Shadow-respecting substitution of ``value`` for ``Id(name)``.

    A subterm in which nothing was replaced is returned as the same
    object, so the contractum shares (and stays interned on) everything
    the substitution did not touch; a subterm where ``name`` is not
    free (:func:`~repro.core.terms.free_names` under :data:`BINDERS`)
    is not walked at all.
    When ``term`` and ``value`` are canonical, the rebuilt spine is
    built canonical, one intern probe per node."""
    canonical = is_interned(term) and is_interned(value)
    return _subst(term, name, value, CANONICAL if canonical else PLAIN)


def _subst(term: Pattern, name: str, value: Pattern, make: Builders) -> Pattern:
    if term.__class__ is Const or name not in free_names(term, BINDERS):
        return term
    if isinstance(term, Tagged):
        bare = untagged(term)
        if _is_ref(bare, name):
            return value
        inner = _subst(term.term, name, value, make)
        return term if inner is term.term else make.tagged(term.tag, inner)
    if isinstance(term, Node):
        if _is_ref(term, name):
            return value
        if term.label == "Lam" and name in _param_names(term):
            return term
        if term.label in ("Let", "DefRec"):
            bound = untagged(term.children[0])
            if isinstance(bound, Const) and bound.value == name:
                # The bound expression is still open; the body is shadowed.
                rhs = _subst(term.children[1], name, value, make)
                if rhs is term.children[1]:
                    return term
                return make.node(
                    term.label, (term.children[0], rhs, term.children[2])
                )
        children = tuple(_subst(c, name, value, make) for c in term.children)
        if all(a is b for a, b in zip(children, term.children)):
            return term
        return make.node(term.label, children)
    if isinstance(term, PList):
        items = tuple(_subst(c, name, value, make) for c in term.items)
        if all(a is b for a, b in zip(items, term.items)):
            return term
        return make.plist(items)
    return term


def _is_ref(bare: Pattern, name: str) -> bool:
    return (
        isinstance(bare, Node)
        and bare.label == "Id"
        and len(bare.children) == 1
        and untagged(bare.children[0]) == Const(name)
    )


def _param_names(lam_node: Node):
    params = untagged(lam_node.children[0])
    names = []
    if isinstance(params, PList):
        for p in params.items:
            bp = untagged(p)
            if isinstance(bp, Const) and isinstance(bp.value, str):
                names.append(bp.value)
    return names


def _let_name(node: Node):
    bound = untagged(node.children[0])
    return (bound.value,) if isinstance(bound, Const) else ()


# Pyret's binders, as ``_subst`` reads them: a lambda binds its
# parameters in the whole node; ``Let`` and ``DefRec`` bind their name
# in the body (position 2), not in the bound expression.
BINDERS: Binders = {
    "Lam": (_param_names, None),
    "Let": (_let_name, (0, 2)),
    "DefRec": (_let_name, (0, 2)),
}


# --- rules ------------------------------------------------------------

NUMBER_METHODS = {
    "_plus": lambda a, b: a + b,
    "_minus": lambda a, b: a - b,
    "_times": lambda a, b: a * b,
    "_divide": lambda a, b: a / b,
    "_lessthan": lambda a, b: a < b,
    "_greaterthan": lambda a, b: a > b,
    "_lessequal": lambda a, b: a <= b,
    "_greaterequal": lambda a, b: a >= b,
    "_equals": lambda a, b: a == b,
}

STRING_METHODS = {
    "_plus": lambda a, b: a + b,
    "_equals": lambda a, b: a == b,
}


def _beta(env, store):
    lam_node = untagged(env["f"])
    params = _param_names(lam_node)
    args_term = untagged(env["args"])
    if not isinstance(args_term, PList):
        raise StuckError("application with a non-list argument vector")
    args = list(args_term.items)
    if len(params) != len(args):
        raise StuckError(
            f"arity mismatch: function of {len(params)} argument(s) "
            f"applied to {len(args)}"
        )
    body = lam_node.children[1]
    for name, arg in zip(params, args):
        body = substitute(body, name, arg)
    return body


def _field_lookup(env, store):
    obj = untagged(env["o"])
    want = env["name"].value
    assert isinstance(obj, Node) and obj.label == "Obj"
    fields = untagged(obj.children[0])
    for field in fields.items:
        bf = untagged(field)
        fname = untagged(bf.children[0])
        if isinstance(fname, Const) and fname.value == want:
            return bf.children[1]
    raise StuckError(f"field {want!r} not found in object")


def _bracket_builtin(env, store):
    receiver = env["r"]
    name = env["name"].value
    bare = untagged(receiver)
    if isinstance(bare, Const):
        v = bare.value
        if isinstance(v, bool):
            if name == "_not":
                return Node("Method", (Const("_not"), bare))
            raise StuckError(f"booleans have no method {name!r}")
        if isinstance(v, (int, float)):
            if name in NUMBER_METHODS:
                return Node("Method", (Const(name), bare))
            raise StuckError(f"numbers have no method {name!r}")
        if isinstance(v, str):
            if name in STRING_METHODS:
                return Node("Method", (Const(name), bare))
            raise StuckError(f"strings have no method {name!r}")
    if isinstance(bare, Node):
        if bare.label == "ListModule":
            if name == "link":
                return Node("LinkCtor", ())
            if name == "empty":
                return Node("ListEmpty", ())
            raise StuckError(f"the list module has no member {name!r}")
        if bare.label in ("ListLink", "ListEmpty"):
            if name == "_match":
                return Node("MatchFn", (bare,))
            if bare.label == "ListLink":
                if name == "first":
                    return bare.children[0]
                if name == "rest":
                    return bare.children[1]
            raise StuckError(f"lists have no member {name!r}")
        if bare.label == "Data":
            if name == "_match":
                return Node("MatchFn", (bare,))
            raise StuckError(f"data values have no member {name!r}")
    raise StuckError(f"cannot look up {name!r} on {bare}")


def _apply_method(env, store):
    method = untagged(env["m"])
    name = untagged(method.children[0]).value
    receiver = untagged(method.children[1])
    args = untagged(env["args"])
    assert isinstance(args, PList)
    if name == "_not":
        if args.items:
            raise StuckError("_not takes no arguments")
        return Const(not receiver.value)
    if len(args.items) != 1:
        raise StuckError(f"{name} takes exactly one argument")
    other = untagged(args.items[0])
    if not isinstance(other, Const):
        raise StuckError(f"{name}: expected an atomic argument")
    a, b = receiver.value, other.value
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        if not isinstance(b, (int, float)) or isinstance(b, bool):
            raise StuckError(f"{name}: expected a number, got {other}")
        return Const(NUMBER_METHODS[name](a, b))
    if isinstance(a, str):
        if not isinstance(b, str):
            raise StuckError(f"{name}: expected a string, got {other}")
        return Const(STRING_METHODS[name](a, b))
    raise StuckError(f"cannot apply method {name!r} to {receiver}")


def _apply_link(env, store):
    args = untagged(env["args"])
    if len(args.items) != 2:
        raise StuckError("list.link takes exactly two arguments")
    return Node("ListLink", (args.items[0], args.items[1]))


def _apply_match(env, store):
    match_fn = untagged(env["m"])
    scrutinee = untagged(match_fn.children[0])
    args = untagged(env["args"])
    if len(args.items) != 2:
        raise StuckError("_match takes a branch object and an else thunk")
    branches, otherwise = args.items
    if scrutinee.label == "Data":
        tag = untagged(scrutinee.children[0]).value
        fields = tuple(untagged(scrutinee.children[1]).items)
    elif scrutinee.label == "ListEmpty":
        tag, fields = "empty", ()
    else:
        tag = "link"
        fields = (scrutinee.children[0], scrutinee.children[1])
    branch = _lookup_optional(branches, tag)
    if branch is None:
        return Node("App", (otherwise, PList(())))
    return Node("App", (branch, PList(fields)))


def _lookup_optional(obj, want):
    bare = untagged(obj)
    if not (isinstance(bare, Node) and bare.label == "Obj"):
        raise StuckError("_match: branches must be an object")
    fields = untagged(bare.children[0])
    for field in fields.items:
        bf = untagged(field)
        if untagged(bf.children[0]) == Const(want):
            return bf.children[1]
    return None


def _let(env, store):
    return substitute(env["body"], env["name"].value, env["val"])


def _defrec(env, store):
    name = env["name"].value
    updated = dict(store)
    updated[name] = env["val"]
    return (env["body"], MappingProxyType(updated))


def _resolve_id(env, store):
    name = env["name"].value
    if name == "list":
        return Node("ListModule", ())
    try:
        return store[name]
    except KeyError:
        raise StuckError(f"unbound identifier {name!r}") from None


def _raise(env, store, plug):
    # raise aborts the program: the error value replaces everything.
    return Node("Error", (env["val"],))


def _rules():
    v = NTRef("v")
    return [
        ReductionRule(
            "beta",
            Node(
                "App",
                (Node("Lam", (PVar("_p"), PVar("_b"))), PVar("args")),
            ),
            lambda env, store: _beta(
                {"f": Node("Lam", (env["_p"], env["_b"])), "args": env["args"]},
                store,
            ),
        ),
        ReductionRule(
            "apply-method",
            Node("App", (NTRef("v", "m"), PVar("args"))),
            _apply_dispatch,
        ),
        ReductionRule(
            "field-lookup",
            Node(
                "Bracket",
                (NTRef("v", "o"), AtomPred("string", "name")),
            ),
            _bracket_dispatch,
        ),
        ReductionRule(
            "let",
            Node("Let", (AtomPred("string", "name"), NTRef("v", "val"), PVar("body"))),
            _let,
        ),
        ReductionRule(
            "defrec",
            Node(
                "DefRec",
                (AtomPred("string", "name"), NTRef("v", "val"), PVar("body")),
            ),
            _defrec,
        ),
        ReductionRule(
            "id-resolve",
            Node("Id", (AtomPred("string", "name"),)),
            _resolve_id,
        ),
        ReductionRule(
            "block-done",
            Node("Block", (PList((PVar("last"),)),)),
            PVar("last"),
        ),
        ReductionRule(
            "block-step",
            Node("Block", (PList((v, PVar("e2")), PVar("rest")),)),
            Node("Block", (PList((PVar("e2"),), PVar("rest")),)),
            preserve_redex_tags=True,
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
            "raise",
            Node("Raise", (NTRef("v", "val"),)),
            _raise,
            control=True,
        ),
    ]


def _apply_dispatch(env, store):
    fn = untagged(env["m"])
    if isinstance(fn, Node):
        if fn.label == "Method":
            return _apply_method(env, store)
        if fn.label == "LinkCtor":
            return _apply_link(env, store)
        if fn.label == "MatchFn":
            return _apply_match(env, store)
    raise StuckError(f"cannot apply {fn} as a function")


def _bracket_dispatch(env, store):
    obj = untagged(env["o"])
    if isinstance(obj, Node) and obj.label == "Obj":
        return _field_lookup(env, store)
    return _bracket_builtin({"r": env["o"], "name": env["name"]}, store)


class PyretSemantics(ReductionSemantics):
    """Pyret core semantics with end-of-program tag shedding (the same
    refinement as the lambda core: a sugar-constructed final value is
    still the answer)."""

    def step(self, state):
        bare = untagged(state.term)
        if isinstance(bare, Node) and bare.label == "Error":
            return []  # raised errors are final states
        successors = super().step(state)
        if successors:
            return successors
        if isinstance(state.term, Tagged):
            stripped = strip_tags(state.term)
            if self.is_value(stripped) and stripped != state.term:
                return [state.__class__(stripped, state.store)]
        return []


def make_semantics() -> ReductionSemantics:
    """Build the Pyret-core reduction semantics (a fresh instance)."""
    return PyretSemantics(_grammar(), _strategy(), _rules(), name="pyretcore")


def make_stepper(on_stuck: str = "halt") -> RedexStepper:
    """A :class:`~repro.core.lift.Stepper` for the Pyret core."""
    return RedexStepper(make_semantics(), on_stuck=on_stuck)
