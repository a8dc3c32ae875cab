"""Resugaring only what a step shows changes no event.

With observability off, the incremental lifting loop takes two
shortcuts: step 0 shows a tag-free program as it stands (Theorem 2,
``resugar . desugar = id``), and a step whose root exposes an opaque
body tag, or a memoized failure or block, is skipped before any
unexpansion (:meth:`~repro.core.incremental.ResugarCache.resugar_shown`).
With observability on, the full walk runs; :mod:`tests.oracle` is the
paper's loop over the naive operations.  Every lift here runs all three
ways: the two engine runs must produce the same events — kinds,
indices, core terms, surface terms, tree ids and terminal — and the
oracle the same batch result, over the golden corpus, the synthesis
regression corpus (candidate rules spliced into the reference rules, as
the fuzzer lifts them) and random programs for both backends.

Also here: the Theorem 2 property the step-0 shortcut rests on, and the
static priority verdict of STRICT rule lists.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.confection import Confection
from repro.core.desugar import desugar
from repro.core.errors import DisjointnessError, ReproError
from repro.core.incremental import ResugarCache
from repro.core.intern import intern
from repro.core.recursion import deep_recursion
from repro.core.rules import RuleList
from repro.core.terms import BodyTag, Tagged
from repro.core.wellformed import DisjointnessMode
from repro.engine.events import BudgetExhausted, Halted
from repro.engine.registry import get_backend
from repro.engine.stream import fold_lift, fold_tree
from repro.lambdacore import make_stepper, parse_program
from repro.pyretcore import make_stepper as pyret_stepper
from repro.pyretcore import parse_program as pyret_parse
from repro.sugars.pyret_sugars import make_pyret_rules
from repro.sugars.scheme_sugars import make_scheme_rules
from repro.synth.filter import check_candidate
from repro.synth.fuzz import candidate_from_json
from tests import oracle
from tests.test_end_to_end_properties import programs as scheme_programs
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)

REGRESSIONS = sorted(
    (Path(__file__).parent.parent / "synth" / "regressions").glob("*.json")
)


def _event_key(event):
    if isinstance(event, Halted):
        # Terminal stats count the work done, which the shortcuts change.
        return ("Halted", event.core_step_count)
    if isinstance(event, BudgetExhausted):
        return ("BudgetExhausted", event.core_step_count, event.budget)
    return (
        type(event).__name__,
        event.core_index,
        event.core_term,
        getattr(event, "surface_term", None),
        getattr(event, "node_id", None),
        getattr(event, "parent_id", None),
    )


def _error(exc):
    return [("error", type(exc).__name__, str(exc))]


def _events(conf, term, tree, observed, **options):
    """The engine's events (as keys) and their batch fold."""
    lift = conf.lift_tree_stream if tree else conf.lift_stream
    try:
        if observed:
            with obs.Observability(reset_metrics=False):
                events = list(lift(term, **options))
        else:
            events = list(lift(term, **options))
    except ReproError as exc:
        return _error(exc), _error(exc)
    folded = (fold_tree if tree else fold_lift)(events)
    if not tree:
        folded.cache_stats = None  # the oracle keeps none
    return [_event_key(e) for e in events], folded


def _oracle(conf, term, tree, **options):
    lift = oracle.lift_tree if tree else oracle.lift
    try:
        return lift(conf.rules, conf.stepper, term, **options)
    except ReproError as exc:
        return _error(exc)


def assert_three_ways_equal(conf, term, tree=False, **options):
    """Shortcut lift == full-walk lift, event for event; both == the
    oracle's lift."""
    shortcut, folded = _events(conf, term, tree, False, **options)
    full, _ = _events(conf, term, tree, True, **options)
    assert shortcut == full
    assert folded == _oracle(conf, term, tree, **options)
    return shortcut


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_golden_corpus_three_ways(path):
    sugar, program, _expected, _stats, options = parse_golden(path)
    make_rules, make_stepper_, parse, _pretty = _configs()[sugar]
    conf = Confection(make_rules(), make_stepper_())
    assert_three_ways_equal(conf, parse(program), **lift_kwargs(options))


@pytest.mark.parametrize("source", [
    "(if (or #f #f #t) 1 2)",
    "(not (and #t #t #f))",
    "(if (and #t (or #f #t)) (or #f 3) 4)",
])
def test_transparent_children_of_the_root_three_ways(source):
    """With transparent recursion, a step can show a transparent-tagged
    direct child of an untagged root: the root-skip rule must not skip
    it."""
    conf = Confection(
        make_scheme_rules(transparent_recursion=True), make_stepper()
    )
    events = assert_three_ways_equal(conf, parse_program(source))
    assert sum(e[0] == "SurfaceEmitted" for e in events) > 2


def test_amb_tree_three_ways():
    program = parse_program("(+ (amb 1 10) (amb 2 (or #f 20)))")
    assert_three_ways_equal(SCHEME, program, tree=True)


def _spliced(candidate, reference):
    """The reference rules with the candidate's rule first, as the
    fuzzer splices it; ``None`` when the rule cannot be built."""
    checked = check_candidate(candidate)
    if checked.rule is None:
        return None
    rules = (checked.rule,) + tuple(reference.rules)
    try:
        return RuleList(rules, reference.disjointness)
    except DisjointnessError:
        return RuleList(rules, DisjointnessMode.OFF)


@pytest.mark.parametrize("path", REGRESSIONS, ids=[p.stem for p in REGRESSIONS])
def test_synth_regressions_three_ways(path):
    record = json.loads(path.read_text())
    backend = get_backend(record["backend"])
    candidate = candidate_from_json(record["candidate"])
    try:
        spliced = _spliced(candidate, backend.make_rules(None))
    except ReproError:
        spliced = None
    if spliced is None:
        pytest.skip("candidate too ill-formed to build a rule")
    conf = Confection(spliced, backend.make_stepper())
    for surface, _core in candidate.examples[:2]:
        assert_three_ways_equal(
            conf, surface, max_steps=200, on_budget="truncate"
        )


SCHEME = Confection(make_scheme_rules(), make_stepper())
PYRET = Confection(make_pyret_rules(), pyret_stepper())


@given(scheme_programs())
@settings(max_examples=60, deadline=None)
def test_random_scheme_programs_three_ways(program):
    assert_three_ways_equal(SCHEME, program)


@st.composite
def pyret_programs(draw, depth: int = 3, kind=None):
    """Source text of a closed Pyret expression over numbers, booleans,
    comparisons, ``and``/``or`` and ``if``."""
    kind = kind or draw(st.sampled_from(["num", "bool"]))
    choice = draw(st.integers(0, 3)) if depth > 0 else 0
    if choice == 0:
        if kind == "num":
            return str(draw(st.integers(0, 9)))
        return draw(st.sampled_from(["true", "false"]))
    sub = lambda k: draw(pyret_programs(depth - 1, k))  # noqa: E731
    if choice == 1:
        if kind == "num":
            return f"({sub('num')} {draw(st.sampled_from('+-'))} {sub('num')})"
        return f"({sub('num')} {draw(st.sampled_from('<>'))} {sub('num')})"
    if choice == 2 and kind == "bool":
        op = draw(st.sampled_from(["and", "or"]))
        return f"({sub('bool')} {op} {sub('bool')})"
    return f"if {sub('bool')}: {sub(kind)} else: {sub(kind)} end"


@given(pyret_programs())
@settings(max_examples=60, deadline=None)
def test_random_pyret_programs_three_ways(source):
    assert_three_ways_equal(PYRET, pyret_parse(source))


# --- Theorem 2 and the shortcuts it licenses ----------------------------


@given(scheme_programs())
@settings(max_examples=80, deadline=None)
def test_theorem_2_scheme(program):
    rules = make_scheme_rules()
    with deep_recursion():
        assert ResugarCache(rules).resugar(desugar(rules, program)) == program


@given(pyret_programs())
@settings(max_examples=80, deadline=None)
def test_theorem_2_pyret(source):
    rules = make_pyret_rules()
    program = pyret_parse(source)
    with deep_recursion():
        assert ResugarCache(rules).resugar(desugar(rules, program)) == program


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_theorem_2_on_golden_programs(path):
    sugar, program, *_ = parse_golden(path)
    make_rules, _stepper, parse, _pretty = _configs()[sugar]
    rules, term = make_rules(), parse(program)
    with deep_recursion():
        assert ResugarCache(rules).resugar(desugar(rules, term)) == term


def test_tagged_program_is_resugared_at_step_0():
    """The step-0 shortcut needs a tag-free program; a tagged one is
    resugared as any other step."""
    program = parse_program("(or #f (and #t #f))")
    for tag in (BodyTag(True), BodyTag(False)):
        assert_three_ways_equal(SCHEME, Tagged(tag, program))


def test_or_chain_unexpands_nothing_with_observability_off():
    """Step 0 is the program and every later step but the value is
    skipped at its root: the lift unexpands nothing."""
    program = parse_program("(or " + "#f " * 40 + "#t)")
    result = SCHEME.lift(program)
    assert result.surface_sequence[0] == program
    assert result.cache_stats.unexpansions == 0
    with obs.Observability(reset_metrics=False):
        observed = SCHEME.lift(program)
    assert observed.surface_sequence == result.surface_sequence
    assert observed.cache_stats.unexpansions == 80


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_strict_priority_verdict_is_static(path):
    """In a STRICT rule list the priority re-match at an unexpansion
    site never finds a rule: skipping it leaves every memo entry as the
    re-matching walk computes it."""
    sugar, program, *_ = parse_golden(path)
    make_rules, make_stepper_, parse, _pretty = _configs()[sugar]
    rules = make_rules()
    if rules.disjointness is not DisjointnessMode.STRICT:
        pytest.skip("rule list is not STRICT")
    conf = Confection(rules, make_stepper_())
    result = conf.lift(parse(program), max_steps=400, on_budget="truncate")
    static, rematched = ResugarCache(rules), ResugarCache(rules)
    rematched._recheck_priority = True
    with deep_recursion():
        for step in result.steps:
            term = intern(step.core_term)
            assert static.resugar(term) == rematched.resugar(term)
    assert static._memo == rematched._memo
