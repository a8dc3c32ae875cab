"""The ``pretty`` contract every backend keeps.

A backend's ``pretty`` accepts tagged terms and prints them as if their
tags were stripped: ``pretty(t) == pretty(strip_tags(t))``.  It reads
through the tags as it writes, in one pass, so the check matters most
where a tag hides structure a printer inspects (a curried application's
head, a list's tail, a parameter list).  The golden corpus and
``examples/corpus`` supply every core state the bundled sugars produce;
the hand-built cases below pin the structural corners.
"""

from pathlib import Path

import pytest

from repro.confection import Confection
from repro.core.recursion import deep_recursion
from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    PList,
    Tagged,
    strip_tags,
)
from repro.engine.registry import available_backends, get_backend
from tests.test_golden_traces import GOLDEN_FILES, _configs, parse_golden

CORPUS = sorted((Path(__file__).parents[1] / "examples" / "corpus").glob("*.scm"))
MAX_STATES = 400


def _backend_of(sugar):
    return "pyret" if sugar.startswith("pyret") else "lambda"


def _programs():
    for path in GOLDEN_FILES:
        sugar, program, *_ = parse_golden(path)
        yield path.stem, sugar, program
    for path in CORPUS:
        yield f"corpus-{path.stem}", "scheme", path.read_text()


PROGRAMS = list(_programs())


def _core_states(sugar, program):
    """Every core state of ``program``'s evaluation, breadth first (an
    ``amb`` branches), up to ``MAX_STATES``."""
    make_rules, make_stepper, parse, _ = _configs()[sugar]
    confection = Confection(make_rules(), make_stepper())
    stepper = confection.stepper
    frontier = [stepper.load(confection.desugar(parse(program)))]
    states = []
    while frontier and len(states) < MAX_STATES:
        state = frontier.pop(0)
        states.append(stepper.term(state))
        frontier.extend(stepper.step(state))
    return states


def test_every_registered_backend_is_covered():
    assert {_backend_of(sugar) for _, sugar, _ in PROGRAMS} >= set(
        available_backends()
    )


def test_corpus_states_carry_tags():
    with deep_recursion():
        tagged = [
            name
            for name, sugar, program in PROGRAMS
            if any(strip_tags(t) != t for t in _core_states(sugar, program))
        ]
    assert len(tagged) >= len(PROGRAMS) - 1


@pytest.mark.parametrize("sugar,program", [p[1:] for p in PROGRAMS],
                         ids=[p[0] for p in PROGRAMS])
def test_core_states_print_as_if_stripped(sugar, program):
    pretty = _configs()[sugar][3]
    with deep_recursion():
        for term in _core_states(sugar, program):
            assert pretty(term) == pretty(strip_tags(term))


H = HeadTag(0)
B = BodyTag(transparent=False)


def lam_id(name):
    return Node("Id", (Const(name),))


LAMBDA_CASES = {
    # A curried application whose inner applications are tagged.
    "curried_app": Node(
        "App",
        (
            Tagged(H, Node("App", (
                Tagged(B, Node("App", (lam_id("f"), Const(1)))), Const(2)
            ))),
            Tagged(B, Const(3)),
        ),
    ),
    # A pair chain whose tail is tagged still prints as (list ...).
    "pair_tail": Node(
        "Pair",
        (Const(1), Tagged(B, Node("Pair", (Const(2), Tagged(H, Node("Nil", ())))))),
    ),
    # Tagged lists, names and bindings.
    "let_tagged": Node(
        "Let",
        (
            Tagged(B, PList((Tagged(B, Node("Binding", (Tagged(B, Const("x")),
                                                        Const(1)))),))),
            Tagged(H, lam_id("x")),
        ),
    ),
    "op_tagged_args": Node(
        "Op", (Const("+"), Tagged(B, PList((Const(1), Tagged(H, lam_id("y"))))))
    ),
    "lambda_tagged_param": Node(
        "Lam", (Tagged(B, Const("x")), Tagged(B, Node("Seq", (Tagged(B, PList(
            (Node("Unit", ()), lam_id("x")))),))))
    ),
}

PYRET_CASES = {
    # A list value whose tail is tagged still prints as [1, 2].
    "list_link": Node(
        "ListLink",
        (Const(1), Tagged(B, Node("ListLink", (Const(2),
                                               Tagged(H, Node("ListEmpty", ())))))),
    ),
    # An application of a tagged Lam keeps its parentheses.
    "app_of_lam": Node(
        "App",
        (
            Tagged(H, Node("Lam", (PList((Const("x"),)), lam_id("x")))),
            Tagged(B, PList((Const(3), Tagged(B, Const("s"))))),
        ),
    ),
    "dot_tagged_field": Node(
        "Dot", (Tagged(B, lam_id("o")), Tagged(B, Const("double")))
    ),
    "fune_tagged_params": Node(
        "FunE", (Tagged(B, PList((Tagged(B, Const("n")),))), lam_id("n"))
    ),
    "op_tagged_method": Node(
        "Op", (Tagged(B, Const("_plus")), Const(1), Tagged(H, Const(2)))
    ),
}

HAND_BUILT = [("lambda", name, t) for name, t in LAMBDA_CASES.items()] + [
    ("pyret", name, t) for name, t in PYRET_CASES.items()
]


@pytest.mark.parametrize(
    "lang,term", [(lang, t) for lang, _, t in HAND_BUILT],
    ids=[f"{lang}-{name}" for lang, name, _ in HAND_BUILT],
)
def test_hand_built_tagged_terms_print_as_if_stripped(lang, term):
    pretty = get_backend(lang).pretty
    assert pretty(term) == pretty(strip_tags(term))


@pytest.mark.parametrize(
    "lang,name,text",
    [
        ("lambda", "curried_app", "(f 1 2 3)"),
        ("lambda", "pair_tail", "(list 1 2)"),
        ("pyret", "list_link", "[1, 2]"),
        ("pyret", "app_of_lam", '(<func>)(3, "s")'),
    ],
)
def test_hand_built_cases_print_their_structure(lang, name, text):
    cases = LAMBDA_CASES if lang == "lambda" else PYRET_CASES
    assert get_backend(lang).pretty(cases[name]) == text


@pytest.mark.parametrize("lang", ["lambda", "pyret"])
@pytest.mark.parametrize("value", ["a\\", 'a\\"b', "x\\\\y", 'q"'])
def test_string_constants_round_trip(lang, value):
    backend = get_backend(lang)
    assert backend.parse(backend.pretty(Const(value))) == Const(value)
