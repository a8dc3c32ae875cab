"""Stepper-mode equivalence over the full golden corpus.

The acceptance bar for the refocusing machine: for every golden trace,
lifting through ``make_stepper()`` (refocus) and through
``make_stepper().with_mode("naive")`` (root restart) produces
*byte-identical* results — same rendered surface sequence, same
per-step bookkeeping (emitted/deduped/skipped and the core terms
themselves), same truncation — both through the engine (``inc``) and
through the reference loop of :mod:`tests.oracle` (``naive-resugar``).
Combined with the golden-trace suite this pins the machine against the
reference engine across every bundled sugar and backend.

A few more programs — sequences on both backends and ``amb`` trees —
are lifted through both steppers too, with the rule options ``repro
lift`` passes.
"""

import pytest

from tests import oracle
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)

from repro.confection import Confection
from repro.engine.registry import get_backend


def _lift_both(make_rules, make_stepper, term, incremental, **kwargs):
    """The lift of ``term`` through the refocusing and the naive
    stepper, by the engine (``incremental``) or by the oracle."""
    results = []
    for stepper in (make_stepper(), make_stepper().with_mode("naive")):
        if incremental:
            results.append(
                Confection(make_rules(), stepper).lift(term, **kwargs)
            )
        else:
            results.append(oracle.lift(make_rules(), stepper, term, **kwargs))
    return results


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
@pytest.mark.parametrize("incremental", [True, False], ids=["inc", "naive-resugar"])
def test_stepper_modes_agree(path, incremental):
    sugar, program, expected_trace, stats, options = parse_golden(path)
    make_rules, make_stepper, parse, pretty = _configs()[sugar]
    refocused, naive = _lift_both(
        make_rules, make_stepper, parse(program), incremental,
        **lift_kwargs(options),
    )

    rendered = [pretty(t) for t in refocused.surface_sequence]
    assert rendered == [pretty(t) for t in naive.surface_sequence]
    assert rendered == expected_trace
    # Byte-identical bookkeeping, core terms included.
    assert refocused.steps == naive.steps
    assert refocused.core_step_count == naive.core_step_count == stats["core"]
    assert refocused.skipped_count == naive.skipped_count == stats["skipped"]
    assert refocused.truncated == naive.truncated


# (backend, ``--op``, program, tree?)
PROGRAMS = [
    ("lambda", "naive", "(or (not #t) (and #t (not #f)))", False),
    ("lambda", "naive", "(let ((x (or #f 2))) (+ x 3))", False),
    ("pyret", "object", "1 + (2 + 3)", False),
    ("lambda", "naive", "(amb 1 2)", True),
    ("lambda", "naive", "(+ (amb 1 2) (amb 10 20))", True),
]


@pytest.mark.parametrize(
    "lang,op,program,tree", PROGRAMS, ids=[p for _, _, p, _ in PROGRAMS]
)
def test_refocus_and_naive_lift_the_same_program(lang, op, program, tree):
    backend = get_backend(lang)
    rules = backend.make_rules(
        None, transparent_recursion=False, op_desugaring=op
    )
    term = backend.parse(program)
    lift = "lift_tree" if tree else "lift"
    refocused, naive = (
        getattr(Confection(rules, stepper), lift)(term)
        for stepper in (
            backend.make_stepper(),
            backend.make_stepper().with_mode("naive"),
        )
    )
    if tree:
        assert refocused == naive
        assert len(refocused.nodes) > 1
    else:
        # Every step's fate, core and surface terms included.
        assert refocused.steps == naive.steps
        assert len(refocused.surface_sequence) > 1
