"""Incremental vs naive lifting: the performance layer's headline numbers.

The engine's perf work (hash-consed terms in :mod:`repro.core.intern`,
the memoized :class:`~repro.core.incremental.ResugarCache`, label-indexed
rule dispatch) exists to make one thing fast: lifting long evaluation
sequences.  This benchmark lifts the same programs through both paths,
asserts the surface sequences are *identical*, and requires the
incremental path to win by the advertised margin on a >= 500-step
evaluation.  The naive path is the paper's loop over the whole-term
operations, :mod:`tests.oracle`.  All measurements land in
``BENCH_lift.json`` via :mod:`benchmarks.reporter`.
"""

import time

from repro.confection import Confection
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER
from tests import oracle

RULES = make_scheme_rules()
MIN_HEADLINE_STEPS = 500
MIN_HEADLINE_SPEEDUP = 3.0


def _or_chain(n: int) -> str:
    return "(or " + " ".join(["#f"] * n) + " #t)"


def _let_nest(n: int) -> str:
    source = "(+ a0 1)"
    for i in range(n):
        source = f"(let ((a{i} {i})) {source})"
    return source


def _timed_lift(confection, program, incremental):
    start = time.perf_counter()
    if incremental:
        result = confection.lift(program)
    else:
        result = oracle.lift(confection.rules, confection.stepper, program)
    return result, time.perf_counter() - start


def _run_workload(name: str, source: str):
    """Lift ``source`` both ways, check equivalence, record measurements.

    Returns ``(naive_seconds, incremental_seconds, incremental_result)``.
    """
    program = parse_program(source)
    confection = Confection(RULES, make_stepper())
    naive, naive_s = _timed_lift(confection, program, incremental=False)
    inc, inc_s = _timed_lift(confection, program, incremental=True)

    assert inc.surface_sequence == naive.surface_sequence, (
        f"{name}: incremental surface sequence diverged from naive"
    )
    assert [s.emitted for s in inc.steps] == [s.emitted for s in naive.steps]

    stats = inc.cache_stats
    steps = inc.core_step_count
    REPORTER.record(
        name,
        core_steps=steps,
        shown_steps=inc.shown_count,
        naive_seconds=round(naive_s, 4),
        incremental_seconds=round(inc_s, 4),
        speedup=round(naive_s / inc_s, 2),
        naive_steps_per_sec=round(steps / naive_s, 1),
        incremental_steps_per_sec=round(steps / inc_s, 1),
        resugar_calls=stats.resugar_calls,
        resugar_calls_saved=stats.resugar_hits,
        resugar_hit_rate=round(stats.resugar_hit_rate, 4),
        desugar_hit_rate=round(stats.desugar_hit_rate, 4),
        unexpansions=stats.unexpansions,
        expansions=stats.expansions,
    )
    report(
        f"Incremental vs naive lift: {name}",
        [
            f"core steps:        {steps}",
            f"naive:             {naive_s:.3f}s ({steps / naive_s:.0f} steps/s)",
            f"incremental:       {inc_s:.3f}s ({steps / inc_s:.0f} steps/s)",
            f"speedup:           {naive_s / inc_s:.2f}x",
            f"resugar hit rate:  {stats.resugar_hit_rate:.1%}"
            f" ({stats.resugar_hits} subtree walks saved)",
        ],
    )
    return naive_s, inc_s, inc


def test_headline_500_step_lift():
    """Acceptance: >= 3x on a >= 500-step evaluation, identical output."""
    naive_s, inc_s, inc = _run_workload("or_chain_256", _or_chain(256))
    assert inc.core_step_count >= MIN_HEADLINE_STEPS
    assert naive_s / inc_s >= MIN_HEADLINE_SPEEDUP, (
        f"incremental lift only {naive_s / inc_s:.2f}x faster "
        f"(need >= {MIN_HEADLINE_SPEEDUP}x)"
    )


def test_medium_or_chain():
    _run_workload("or_chain_128", _or_chain(128))


def test_let_nesting():
    """Every core step emits here, so the emulation-check desugar is the
    hot path; incremental must still not lose to naive."""
    naive_s, inc_s, _ = _run_workload("let_nest_80", _let_nest(80))
    assert inc_s <= naive_s, "incremental path slower than naive on let-nest"


def test_cache_stats_exposed_on_result():
    program = parse_program(_or_chain(8))
    confection = Confection(RULES, make_stepper())
    result = confection.lift(program)
    stats = result.cache_stats
    assert stats is not None
    # One resugar call per core step but step 0, which shows the
    # (tag-free) program itself without resugaring it (Theorem 2).
    assert stats.resugar_calls == result.core_step_count - 1
    assert 0.0 <= stats.resugar_hit_rate <= 1.0
