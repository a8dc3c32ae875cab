"""The stateful lambda-calculus core language of section 8.1.

"It contains only single-argument functions, application, if statements,
mutation, sequencing, and amb (which nondeterministically chooses among
its arguments), and some primitive values and operations" — plus
``call/cc`` for section 8.2's ``return`` sugar.  Defined as a reduction
semantics in :mod:`repro.redex`, exactly as the paper defined it in PLT
Redex, so a single-step function comes for free.

Use :func:`make_stepper` to obtain a CONFECTION-compatible stepper, and
:mod:`repro.sugars.scheme_sugars` for the sugar that the paper layers on
top (Let, Letrec, And, Or, Cond, Thunk/Force, multi-argument functions,
the Automaton macro, and Return).
"""

from repro.lambdacore import ast
from repro.lambdacore.ast import (
    HOLE,
    amb,
    app,
    boolean,
    callcc_val,
    cont,
    deref,
    idref,
    iff,
    lam,
    loc,
    num,
    op,
    seq,
    setloc,
    setvar,
    string,
    undefined,
    unit,
)
from repro.lambdacore.prims import PRIMITIVE_NAMES, apply_primitive
from repro.lambdacore.semantics import (
    alloc,
    make_semantics,
    make_stepper,
    plug_hole,
)
from repro.lambdacore.substitute import substitute, substitute_boxed
from repro.lambdacore.syntax import from_sexpr, parse_program, pretty

__all__ = [
    "ast",
    "make_semantics",
    "make_stepper",
    "parse_program",
    "pretty",
    "from_sexpr",
    "substitute",
    "substitute_boxed",
    "apply_primitive",
    "PRIMITIVE_NAMES",
    "alloc",
    "plug_hole",
    "HOLE",
    # constructors
    "lam", "app", "iff", "seq", "setvar", "setloc", "deref", "loc", "op",
    "amb", "idref", "unit", "undefined", "callcc_val", "cont", "num",
    "string", "boolean",
]


# --- backend registration -----------------------------------------------
#
# Importing this package makes the language available to every
# backend-generic driver (CLI, benchmarks, services) under the name
# "lambda".  Sugar factories take the full option set a driver
# assembles and pick out what they understand (the registry contract).


def _scheme_sugar(**options):
    from repro.sugars.scheme_sugars import make_scheme_rules

    return make_scheme_rules(
        transparent_recursion=options.get("transparent_recursion", False)
    )


def _automaton_sugar(**options):
    from repro.sugars.automaton import make_automaton_rules

    return make_automaton_rules(
        transparent_recursion=options.get("transparent_recursion", False)
    )


def _return_sugar(**options):
    from repro.sugars.returns import make_return_rules

    return make_return_rules(
        transparent_recursion=options.get("transparent_recursion", False)
    )


def _register() -> None:
    from repro.engine.registry import Backend, register_backend

    register_backend(
        Backend(
            name="lambda",
            parse=parse_program,
            pretty=pretty,
            make_stepper=make_stepper,
            sugar_factories={
                "scheme": _scheme_sugar,
                "automaton": _automaton_sugar,
                "return": _return_sugar,
            },
            default_sugar="scheme",
            description="stateful lambda-calculus core (section 8.1)",
        )
    )


_register()
