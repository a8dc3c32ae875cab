"""Shared structure through the lift: desugar once, substitute in place.

Two deterministic counters pin the mechanism, next to the timing:

* **Expansions per lift** on ``or_chain(40)``.  The lift's own desugar
  runs through its :class:`~repro.core.incremental.ResugarCache`, and
  its Emulation checks are decided inside the resugaring walk: they
  expand nothing, and the whole lift expands each head tag of the
  desugared program exactly once.
* **Intern-table work per core step** on ``let_nest(24)`` and
  ``letrec_fact(10)`` (:func:`repro.core.intern.intern_stats`, from an
  empty table).  Substitution returns untouched subterms as the same
  object, so re-interning a contractum stops at its canonical parts:
  ``hits`` (table probes on already-known structure) stay low, while
  ``misses`` count genuinely new nodes.

Each program is lifted ``REPEATS`` times from an empty intern table (the
state of a fresh ``repro lift`` process); the lift wall time is recorded
as median, min and IQR.  Records ``shared_spine_lift`` in
``BENCH_lift.json``.
"""

import time

from repro.confection import Confection
from repro.core.desugar import desugar
from repro.core.intern import clear_intern_caches, intern_stats
from repro.core.terms import HeadTag, Tagged, subterms
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize
from tests import oracle

REPEATS = 7


def _or_chain(n: int) -> str:
    return "(or " + "#f " * n + "#t)"


def _let_nest(depth: int) -> str:
    body = f"(+ x{depth - 1} 1)"
    for i in reversed(range(depth)):
        init = "0" if i == 0 else f"(+ x{i - 1} 1)"
        body = f"(let ((x{i} {init})) {body})"
    return body


def _letrec_fact(n: int) -> str:
    return (
        "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) "
        f"(f {n}))"
    )


PROGRAMS = {
    "or_chain_40": _or_chain(40),
    "let_nest_24": _let_nest(24),
    "letrec_fact_10": _letrec_fact(10),
}


def _head_tags(t) -> int:
    return sum(
        isinstance(s, Tagged) and isinstance(s.tag, HeadTag)
        for s in subterms(t)
    )


def _cold_lift(rules, source, **options):
    """One lift from an empty intern table: (result, seconds, intern
    counters of the lift alone)."""
    clear_intern_caches()
    confection = Confection(rules, make_stepper())
    program = parse_program(source)
    start = time.perf_counter()
    result = confection.lift(program, **options)
    seconds = time.perf_counter() - start
    return result, seconds, intern_stats()


def test_shared_spine_lift():
    rules = make_scheme_rules()
    fields = {"repeats": REPEATS}
    lines = []

    program = parse_program(PROGRAMS["or_chain_40"])
    heads = _head_tags(desugar(rules, program))
    checked, _, _ = _cold_lift(rules, PROGRAMS["or_chain_40"])
    unchecked, _, _ = _cold_lift(
        rules, PROGRAMS["or_chain_40"], check_emulation=False
    )
    # Index 0 only: the initial desugar plus the step-0 Emulation check.
    step0, _, _ = _cold_lift(
        rules, PROGRAMS["or_chain_40"], max_steps=0, on_budget="truncate"
    )
    step0_bare, _, _ = _cold_lift(
        rules, PROGRAMS["or_chain_40"], max_steps=0, on_budget="truncate",
        check_emulation=False,
    )
    step0_emulation = (
        step0.cache_stats.expansions - step0_bare.cache_stats.expansions
    )
    emulation = checked.cache_stats.expansions - unchecked.cache_stats.expansions
    assert step0_emulation == 0
    assert emulation == 0
    assert checked.cache_stats.expansions == heads
    fields.update(
        or_chain_40_head_tags=heads,
        or_chain_40_expansions_per_lift=checked.cache_stats.expansions,
        or_chain_40_emulation_expansions=emulation,
        or_chain_40_step0_emulation_expansions=step0_emulation,
        or_chain_40_desugar_calls=checked.cache_stats.desugar_calls,
    )
    lines.append(
        f"or_chain_40: {heads} head tags, "
        f"{checked.cache_stats.expansions} expansions per lift, "
        f"{step0_emulation} in the step-0 Emulation check"
    )

    for name, source in PROGRAMS.items():
        reference = oracle.lift(rules, make_stepper(), parse_program(source))
        seconds, misses, hits = [], [], []
        for _ in range(REPEATS):
            result, elapsed, counters = _cold_lift(rules, source)
            assert result.surface_sequence == reference.surface_sequence
            seconds.append(elapsed * 1000)
            misses.append(counters["misses"])
            hits.append(counters["hits"])
        # Interning is deterministic: every repeat does the same work.
        assert len(set(misses)) == 1 and len(set(hits)) == 1
        steps = result.core_step_count
        timing = summarize(seconds, digits=3)
        fields.update({
            f"{name}_core_steps": steps,
            f"{name}_intern_misses_per_step": round(misses[0] / steps, 2),
            f"{name}_intern_hits_per_step": round(hits[0] / steps, 2),
            f"{name}_lift_ms_median": timing["median"],
            f"{name}_lift_ms_min": timing["min"],
            f"{name}_lift_ms_iqr": timing["iqr"],
        })
        lines.append(
            f"{name}: {steps} core steps, "
            f"{misses[0] / steps:.1f} intern misses and "
            f"{hits[0] / steps:.1f} hits per step, lift "
            f"{timing['median']:.2f} ms median (IQR {timing['iqr']:.2f})"
        )
    clear_intern_caches()

    REPORTER.record("shared_spine_lift", **fields)
    report("Shared structure through the lift", lines)
