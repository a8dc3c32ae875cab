"""Refocusing machine vs root-restart stepping: the O(redex) win.

Two workloads, both recorded in ``BENCH_lift.json``:

* ``refocus_or_chain_256`` — the full lift of the 513-step or-chain,
  refocusing machine (with the default incremental resugaring) against
  the root-restart stepper (``with_mode("naive")``) on the naive
  resugaring loop of :mod:`tests.oracle` — the engine configuration the
  repo shipped before refocusing.  The acceptance bar is >= 10x
  steps/sec.
* ``refocus_deep_op_chain_256`` — *raw stepping* (no sugar, no lift) of
  a right-nested ``(+ 1 (+ 1 ...))`` chain whose redex sits at depth
  ~256.  Root-restart decomposition walks the whole spine every step
  (O(n) per step, O(n^2) total); the machine pops one frame per step
  (O(1) amortized, O(n) total).  This isolates the decomposition
  asymptotics from resugaring and interning effects.

Both workloads assert the two engines produce identical sequences
before timing is trusted.
"""

import time

from repro.confection import Confection
from repro.core.recursion import deep_recursion
from repro.lambdacore import make_semantics, make_stepper, parse_program
from repro.lang.render import render
from repro.redex.reduction import RedexStepper
from repro.sugars.scheme_sugars import make_scheme_rules

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER
from tests import oracle

RULES = make_scheme_rules()
MIN_LIFT_SPEEDUP = 10.0
MIN_RAW_DEEP_SPEEDUP = 5.0


def _or_chain(n: int) -> str:
    return "(or " + " ".join(["#f"] * n) + " #t)"


def _deep_op_chain(n: int) -> str:
    source = "(+ 1 2)"
    for _ in range(n):
        source = f"(+ 1 {source})"
    return source


def _timed_lift(program, stepper_mode, incremental):
    stepper = make_stepper().with_mode(stepper_mode)
    start = time.perf_counter()
    if incremental:
        result = Confection(RULES, stepper).lift(program)
    else:
        result = oracle.lift(RULES, stepper, program)
    return result, time.perf_counter() - start


def test_refocus_lift_speedup_on_or_chain_256():
    program = parse_program(_or_chain(256))

    # Baseline: the pre-refocusing engine — root-restart stepper, naive
    # resugaring (BENCH's historical naive_steps_per_sec).
    baseline, baseline_s = _timed_lift(program, "naive", incremental=False)
    # Contender: the default engine — refocusing machine + incremental.
    refocused, refocus_s = _timed_lift(program, "refocus", incremental=True)
    # Stepper-only comparison: both on incremental resugaring.
    naive_inc, naive_inc_s = _timed_lift(program, "naive", incremental=True)

    with deep_recursion():
        assert refocused.surface_sequence == baseline.surface_sequence
        assert refocused.surface_sequence == naive_inc.surface_sequence
        assert refocused.steps == baseline.steps

    steps = refocused.core_step_count
    assert steps >= 500
    speedup = baseline_s / refocus_s
    assert speedup >= MIN_LIFT_SPEEDUP, (
        f"refocusing lift only {speedup:.1f}x the naive-stepper lift "
        f"(need >= {MIN_LIFT_SPEEDUP}x)"
    )

    REPORTER.record(
        "refocus_or_chain_256",
        core_steps=steps,
        naive_stepper_seconds=round(baseline_s, 4),
        naive_stepper_steps_per_sec=round(steps / baseline_s, 1),
        naive_stepper_incremental_seconds=round(naive_inc_s, 4),
        refocus_seconds=round(refocus_s, 4),
        refocus_steps_per_sec=round(steps / refocus_s, 1),
        speedup=round(speedup, 2),
        stepper_only_speedup=round(naive_inc_s / refocus_s, 2),
    )
    report(
        "Refocusing machine vs naive stepper: or_chain_256 lift",
        [
            f"core steps:            {steps}",
            f"naive stepper (naive): {baseline_s:.3f}s "
            f"({steps / baseline_s:.1f} steps/s)",
            f"naive stepper (inc):   {naive_inc_s:.3f}s",
            f"refocus (inc):         {refocus_s:.3f}s "
            f"({steps / refocus_s:.1f} steps/s)",
            f"speedup:               {speedup:.1f}x "
            f"(bar: {MIN_LIFT_SPEEDUP:.0f}x)",
        ],
    )


def _raw_sequence(stepper, core):
    rendered = []
    with deep_recursion():
        state = stepper.load(core)
        rendered.append(render(stepper.term(state)))
        while True:
            successors = stepper.step(state)
            if not successors:
                return rendered
            assert len(successors) == 1
            state = successors[0]
            rendered.append(render(stepper.term(state)))


def _raw_step_count(stepper, core):
    with deep_recursion():
        state = stepper.load(core)
        steps = 0
        while True:
            successors = stepper.step(state)
            if not successors:
                return steps
            state = successors[0]
            steps += 1


def test_refocus_raw_stepping_on_deep_context():
    semantics = make_semantics()
    with deep_recursion():
        core = parse_program(_deep_op_chain(256))

    # Verification pass (untimed): identical rendered sequences.
    sequences = {
        mode: _raw_sequence(RedexStepper(semantics, mode=mode), core)
        for mode in ("naive", "refocus")
    }
    assert sequences["refocus"] == sequences["naive"]
    steps = len(sequences["refocus"]) - 1
    del sequences  # keep the timed loops free of a large live graph

    # Timing pass: pure stepping, no per-step snapshot collection (the
    # decomposition asymptotics are the thing under test).
    timings = {}
    for mode in ("naive", "refocus"):
        stepper = RedexStepper(semantics, mode=mode)
        start = time.perf_counter()
        counted = _raw_step_count(stepper, core)
        timings[mode] = time.perf_counter() - start
        assert counted == steps
    assert steps >= 256
    speedup = timings["naive"] / timings["refocus"]
    assert speedup >= MIN_RAW_DEEP_SPEEDUP, (
        f"machine stepping only {speedup:.1f}x root-restart on a deep "
        f"context (need >= {MIN_RAW_DEEP_SPEEDUP}x)"
    )

    REPORTER.record(
        "refocus_deep_op_chain_256",
        core_steps=steps,
        naive_stepper_seconds=round(timings["naive"], 4),
        naive_stepper_steps_per_sec=round(steps / timings["naive"], 1),
        refocus_seconds=round(timings["refocus"], 4),
        refocus_steps_per_sec=round(steps / timings["refocus"], 1),
        speedup=round(speedup, 2),
    )
    report(
        "Refocusing machine vs naive stepper: depth-256 operator chain "
        "(raw stepping)",
        [
            f"core steps:     {steps}",
            f"naive stepper:  {timings['naive']:.3f}s "
            f"({steps / timings['naive']:.0f} steps/s)",
            f"refocus:        {timings['refocus']:.3f}s "
            f"({steps / timings['refocus']:.0f} steps/s)",
            f"speedup:        {speedup:.1f}x "
            f"(bar: {MIN_RAW_DEEP_SPEEDUP:.0f}x)",
        ],
    )
