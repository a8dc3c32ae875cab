"""Concrete syntax for the lambda language: the ``s->t`` / ``t->s``
bridges of section 5.3.  Reading goes through s-expressions
(:mod:`repro.lang.sexpr`); :func:`pretty` writes a term, tags and all,
straight to text in one pass.

The *surface* language includes every sugar of section 8.1 (let, letrec,
multi-argument ``function``, thunk/force, multi-arm and/or, cond, the
automaton macro) and section 8.2 (``return``); the *core* subset is what
:mod:`repro.lambdacore.semantics` reduces.  One reader handles both,
since the surface is a superset of the core.

Examples::

    (let ((x 1)) (+ x 2))
    (or (not #t) (not #f))
    (function (x y) (+ x y))
    (automaton init (init : ("c" -> more)) (more : ("a" -> more)))
"""

from __future__ import annotations

from typing import List

from repro.core.errors import ParseError
from repro.core.terms import Const, Node, Pattern, PList, Symbol, untagged
from repro.lambdacore.prims import PRIMITIVE_NAMES
from repro.lang.sexpr import SExpr, read_sexpr, write_sexpr
from repro.lang.textmemo import ACTIVE, MAX_MEMO_TEXT, write_with

__all__ = ["from_sexpr", "parse_program", "pretty"]


def parse_program(source: str) -> Pattern:
    """Parse one surface program from s-expression source text."""
    return from_sexpr(read_sexpr(source))


def pretty(term: Pattern, memo=None) -> str:
    """Render a (possibly tagged) term back to s-expression syntax.

    Tags are read through, never copied away: the text is exactly what
    the term's tag-free copy would print.  ``memo``, a dict shared by the
    steps of one sequence, caches each subterm's text across calls
    (:mod:`repro.lang.textmemo`).
    """
    if memo is None:
        return _pp(term)
    return write_with(_pp, term, memo)


# --- s -> t -----------------------------------------------------------

def from_sexpr(expr: SExpr) -> Pattern:
    if isinstance(expr, bool) or isinstance(expr, (int, float, str)):
        return Const(expr)
    if isinstance(expr, Symbol):
        if expr.name == "nil":
            return Node("Nil", ())
        return Node("Id", (Const(expr.name),))
    if not isinstance(expr, list):
        raise ParseError(f"cannot parse {expr!r}")
    if not expr:
        raise ParseError("empty application ()")

    head = expr[0]
    if isinstance(head, Symbol):
        handler = _FORMS.get(head.name)
        if handler is not None:
            return handler(expr)
        if head.name in PRIMITIVE_NAMES:
            return Node(
                "Op",
                (Const(head.name), PList(tuple(from_sexpr(a) for a in expr[1:]))),
            )
    return _application(expr)


def _application(expr: List[SExpr]) -> Pattern:
    if len(expr) < 2:
        raise ParseError(f"application needs an argument: {expr!r}")
    out = from_sexpr(expr[0])
    for arg in expr[1:]:
        out = Node("App", (out, from_sexpr(arg)))
    return out


def _want(expr, n, form):
    if len(expr) != n:
        raise ParseError(f"({form} ...): expected {n - 1} part(s), got {len(expr) - 1}")


def _name_of(part, form) -> str:
    if not isinstance(part, Symbol):
        raise ParseError(f"({form} ...): expected an identifier, got {part!r}")
    return part.name


def _parse_lambda(expr):
    _want(expr, 3, "lambda")
    params = expr[1]
    if not isinstance(params, list) or len(params) != 1:
        raise ParseError(
            "(lambda ...): the core has single-argument functions only; "
            "use (function (x y ...) body) for the multi-argument sugar"
        )
    return Node(
        "Lam", (Const(_name_of(params[0], "lambda")), from_sexpr(expr[2]))
    )


def _parse_function(expr):
    _want(expr, 3, "function")
    params = expr[1]
    if not isinstance(params, list):
        raise ParseError("(function ...): expected a parameter list")
    names = PList(tuple(Const(_name_of(p, "function")) for p in params))
    return Node("Fun", (names, from_sexpr(expr[2])))


def _parse_if(expr):
    _want(expr, 4, "if")
    return Node("If", tuple(from_sexpr(e) for e in expr[1:]))


def _parse_when(expr):
    _want(expr, 3, "when")
    return Node("When", (from_sexpr(expr[1]), from_sexpr(expr[2])))


def _parse_begin(expr):
    if len(expr) < 2:
        raise ParseError("(begin ...): needs at least one expression")
    return Node("Seq", (PList(tuple(from_sexpr(e) for e in expr[1:])),))


def _parse_set(expr):
    _want(expr, 3, "set!")
    return Node("Set", (Const(_name_of(expr[1], "set!")), from_sexpr(expr[2])))


def _parse_amb(expr):
    if len(expr) < 2:
        raise ParseError("(amb ...): needs at least one choice")
    return Node("Amb", (PList(tuple(from_sexpr(e) for e in expr[1:])),))


def _parse_bindings(parts, form):
    if not isinstance(parts, list):
        raise ParseError(f"({form} ...): expected a binding list")
    bindings = []
    for part in parts:
        if not isinstance(part, list) or len(part) != 2:
            raise ParseError(f"({form} ...): bindings have the form (name expr)")
        bindings.append(
            Node("Binding", (Const(_name_of(part[0], form)), from_sexpr(part[1])))
        )
    return PList(tuple(bindings))


def _parse_let(expr):
    _want(expr, 3, "let")
    return Node("Let", (_parse_bindings(expr[1], "let"), from_sexpr(expr[2])))


def _parse_letrec(expr):
    _want(expr, 3, "letrec")
    return Node("Letrec", (_parse_bindings(expr[1], "letrec"), from_sexpr(expr[2])))


def _parse_and(expr):
    return Node("And", (PList(tuple(from_sexpr(e) for e in expr[1:])),))


def _parse_or(expr):
    return Node("Or", (PList(tuple(from_sexpr(e) for e in expr[1:])),))


def _parse_cond(expr):
    clauses = []
    for part in expr[1:]:
        if not isinstance(part, list) or len(part) != 2:
            raise ParseError("(cond ...): clauses have the form (test expr)")
        if isinstance(part[0], Symbol) and part[0].name == "else":
            clauses.append(Node("Else", (from_sexpr(part[1]),)))
        else:
            clauses.append(
                Node("Clause", (from_sexpr(part[0]), from_sexpr(part[1])))
            )
    return Node("Cond", (PList(tuple(clauses)),))


def _parse_thunk(expr):
    _want(expr, 2, "thunk")
    return Node("Thunk", (from_sexpr(expr[1]),))


def _parse_force(expr):
    _want(expr, 2, "force")
    return Node("Force", (from_sexpr(expr[1]),))


def _parse_return(expr):
    _want(expr, 2, "return")
    return Node("Return", (from_sexpr(expr[1]),))


def _parse_list(expr):
    return Node("ListE", (PList(tuple(from_sexpr(e) for e in expr[1:])),))


def _parse_while(expr):
    if len(expr) < 3:
        raise ParseError("(while cond body ...): needs a body")
    body = (
        from_sexpr(expr[2])
        if len(expr) == 3
        else Node("Seq", (PList(tuple(from_sexpr(e) for e in expr[2:])),))
    )
    return Node("While", (from_sexpr(expr[1]), body))


def _parse_apply(expr):
    if len(expr) < 3:
        raise ParseError("(apply f arg ...): needs a function and arguments")
    return _application(expr[1:])


def _parse_automaton(expr):
    if len(expr) < 3:
        raise ParseError("(automaton init state ...): needs states")
    init = Const(_name_of(expr[1], "automaton"))
    states = []
    for part in expr[2:]:
        if (
            not isinstance(part, list)
            or len(part) < 3
            or not isinstance(part[1], Symbol)
            or part[1].name != ":"
        ):
            raise ParseError(
                "(automaton ...): states have the form (name : arm ...)"
            )
        name = Const(_name_of(part[0], "automaton"))
        arms = []
        for arm in part[2:]:
            if arm == "accept" or (
                isinstance(arm, Symbol) and arm.name == "accept"
            ):
                arms.append(Node("Accept", ()))
            elif (
                isinstance(arm, list)
                and len(arm) == 3
                and isinstance(arm[1], Symbol)
                and arm[1].name == "->"
            ):
                if not isinstance(arm[0], str):
                    raise ParseError(
                        "(automaton ...): arm labels are strings"
                    )
                arms.append(
                    Node(
                        "Arm",
                        (Const(arm[0]), Const(_name_of(arm[2], "automaton"))),
                    )
                )
            else:
                raise ParseError(
                    f"(automaton ...): bad arm {arm!r}; expected "
                    f'("label" -> state) or "accept"'
                )
        states.append(Node("State", (name, PList(tuple(arms)))))
    return Node("Automaton", (init, PList(tuple(states))))


_FORMS = {
    "lambda": _parse_lambda,
    "function": _parse_function,
    "if": _parse_if,
    "when": _parse_when,
    "begin": _parse_begin,
    "set!": _parse_set,
    "amb": _parse_amb,
    "let": _parse_let,
    "letrec": _parse_letrec,
    "and": _parse_and,
    "or": _parse_or,
    "cond": _parse_cond,
    "thunk": _parse_thunk,
    "force": _parse_force,
    "return": _parse_return,
    "while": _parse_while,
    "list": _parse_list,
    "apply": _parse_apply,
    "automaton": _parse_automaton,
}


# --- t -> s -----------------------------------------------------------
#
# One recursive writer from term to text.  Every child is read through
# ``untagged``, so a tagged term prints exactly as its tag-free copy
# would, without building that copy or an intermediate s-expression.


def _pp(t: Pattern) -> str:
    memo = ACTIVE.memo  # inside ``pretty(term, memo)`` only
    if memo is not None:
        text = memo.get(t)
        if text is not None:
            return text
    bare = untagged(t)
    cls = bare.__class__
    if cls is Node:
        writer = _WRITERS.get(bare.label)
        if writer is not None:
            text = writer(bare)
        else:
            # Generic fallback: (label child ...).
            text = _form(bare.label.lower(), bare.children)
    elif cls is Const:
        text = write_sexpr(bare.value)
    elif cls is PList:
        text = _paren(map(_pp, bare.items))
    else:
        raise ParseError(f"cannot render {bare!r} as an s-expression")
    if memo is not None and len(text) <= MAX_MEMO_TEXT:
        memo[t] = text
    return text


def _paren(words) -> str:
    return "(" + " ".join(words) + ")"


def _form(head: str, parts) -> str:
    return _paren([head, *map(_pp, parts)])


def _name(t: Pattern) -> str:
    return untagged(t).value


def _items(t: Pattern):
    return untagged(t).items


def _app(t):
    # Flatten curried applications for readability.
    parts = [t.children[1]]
    fn = untagged(t.children[0])
    while fn.__class__ is Node and fn.label == "App":
        parts.append(fn.children[1])
        fn = untagged(fn.children[0])
    parts.append(fn)
    parts.reverse()
    return _paren(map(_pp, parts))


def _pair(t):
    # Print proper list chains as (list 1 2 3); improper pairs as
    # (cons a b).
    items = []
    cursor = t
    while cursor.__class__ is Node and cursor.label == "Pair":
        items.append(cursor.children[0])
        cursor = untagged(cursor.children[1])
    if cursor.__class__ is Node and cursor.label == "Nil":
        return _form("list", items)
    return _form("cons", t.children)


def _binding_form(keyword):
    def write(t):
        bindings = " ".join(
            f"({_name(b.children[0])} {_pp(b.children[1])})"
            for b in map(untagged, _items(t.children[0]))
        )
        return f"({keyword} ({bindings}) {_pp(t.children[1])})"

    return write


def _list_form(keyword):
    return lambda t: _form(keyword, _items(t.children[0]))


def _fixed(text):
    return lambda t: text


def _fun(t):
    params = " ".join(map(_name, _items(t.children[0])))
    return f"(function ({params}) {_pp(t.children[1])})"


def _cond(t):
    clauses = [
        f"(else {_pp(c.children[0])})"
        if c.label == "Else"
        else f"({_pp(c.children[0])} {_pp(c.children[1])})"
        for c in map(untagged, _items(t.children[0]))
    ]
    return _paren(["cond", *clauses])


def _automaton(t):
    states = []
    for state in map(untagged, _items(t.children[1])):
        arms = [
            '"accept"'
            if arm.label == "Accept"
            else f"({_pp(arm.children[0])} -> {_name(arm.children[1])})"
            for arm in map(untagged, _items(state.children[1]))
        ]
        states.append(_paren([_name(state.children[0]), ":", *arms]))
    return _paren(["automaton", _name(t.children[0]), *states])


# Labels missing here print generically, as ``(label child ...)`` with
# the label lower-cased: If, When, While, Thunk, Force, Return, Deref.
_WRITERS = {
    "Id": lambda t: _name(t.children[0]),
    # A named cell displays as the bare variable name: the running term
    # keeps identifiers visible, which is what lets Figure 4's trace
    # read (more "adr") rather than a resolved closure.
    "Cell": lambda t: _name(t.children[0]),
    "Loc": lambda t: f"@{_name(t.children[0])}",
    "Lam": lambda t: f"(lambda ({_name(t.children[0])}) {_pp(t.children[1])})",
    "App": _app,
    "Set": lambda t: f"(set! {_name(t.children[0])} {_pp(t.children[1])})",
    "SetLoc": lambda t: _form("set-loc!", t.children),
    "Pair": _pair,
    "Op": lambda t: _form(_name(t.children[0]), _items(t.children[1])),
    "Seq": _list_form("begin"),
    "ListE": _list_form("list"),
    "Amb": _list_form("amb"),
    "And": _list_form("and"),
    "Or": _list_form("or"),
    "Let": _binding_form("let"),
    "Letrec": _binding_form("letrec"),
    "Fun": _fun,
    "Cond": _cond,
    "Automaton": _automaton,
    "Nil": _fixed("nil"),
    "Unit": _fixed("<void>"),
    "Undefined": _fixed("<undefined>"),
    "CallCC": _fixed("call/cc"),
    "Cont": _fixed("<cont>"),
    "Hole": _fixed("<hole>"),
}
