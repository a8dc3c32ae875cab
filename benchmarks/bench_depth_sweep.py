"""Cost per core step as the redex sinks: the depth sweep.

A lift's per-step layers (step, resugar with its Emulation test,
render) should touch only the nodes a step created, so a step should
cost about the same however deep the redex sits.  This bench lifts two
programs whose redex sinks with ``n`` — ``letrec_fact(n)`` on the lambda
backend and ``pyret_len(n)`` on the Pyret one — at n = 10, 20, 40, 80,
and times every core step from its ``CoreStepped`` event to the next
one: classification (resugar and Emulation), the step itself and, for a
shown step, rendering its text the way ``repro lift`` does (one text
memo for the sequence).  Shown and skipped steps are reported apart:
a skipped step prints nothing.

Each point is ``REPEATS`` lifts, each from an empty intern table (the
state of a fresh ``repro lift`` process); the per-lift mean microseconds
per step are summarized as median, min and IQR
(:func:`benchmarks.reporter.summarize`).  Records ``depth_sweep`` in
``BENCH_lift.json``.
"""

import time

from repro.confection import Confection
from repro.core.intern import clear_intern_caches
from repro.engine import events
from repro.engine.registry import get_backend
from repro.lang.textmemo import memo_printer

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize

REPEATS = 5
SIZES = (10, 20, 40, 80)


def _letrec_fact(n: int) -> str:
    return (
        "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) "
        f"(f {n}))"
    )


def _pyret_len(n: int) -> str:
    items = ", ".join(str(i) for i in range(n))
    return (
        "fun len(x): cases(List) x: | empty() => 0 "
        f"| link(f, tail) => len(tail) + 1 end end len([{items}])"
    )


PROGRAMS = {"letrec_fact": ("lambda", _letrec_fact), "pyret_len": ("pyret", _pyret_len)}


def _timed_lift(backend, source):
    """One cold lift: (core steps, shown-step seconds, skipped-step
    seconds, shown count, skipped count, last text)."""
    clear_intern_caches()
    confection = Confection(backend.make_rules(), backend.make_stepper())
    pretty = memo_printer(backend.pretty)
    spent = {"shown": 0.0, "skipped": 0.0}
    count = {"shown": 0, "skipped": 0}
    text = None
    started = kind = None
    for event in confection.lift_stream(backend.parse(source)):
        now = time.perf_counter()
        if isinstance(event, (events.CoreStepped, events.Halted)):
            if kind is not None:
                spent[kind] += now - started
                count[kind] += 1
            started, kind = now, None
        elif isinstance(event, events.SurfaceEmitted):
            text = pretty(event.surface_term)
            kind = "shown"
        elif isinstance(event, events.Deduped):
            kind = "shown"
        elif isinstance(event, events.StepSkipped):
            kind = "skipped"
    return spent, count, text


def test_depth_sweep():
    fields = {"repeats": REPEATS}
    lines = []
    for name, (lang, program) in PROGRAMS.items():
        backend = get_backend(lang)
        row = []
        for n in SIZES:
            per_step, shown_us, skipped_us = [], [], []
            for _ in range(REPEATS):
                spent, count, text = _timed_lift(backend, program(n))
                steps = count["shown"] + count["skipped"]
                per_step.append(
                    (spent["shown"] + spent["skipped"]) / steps * 1e6
                )
                shown_us.append(spent["shown"] / count["shown"] * 1e6)
                skipped_us.append(
                    spent["skipped"] / count["skipped"] * 1e6
                    if count["skipped"] else 0.0
                )
            assert text is not None
            key = f"{name}_{n}"
            fields[f"{key}_core_steps"] = steps
            fields[f"{key}_shown_steps"] = count["shown"]
            for what, samples in (
                ("us_per_step", per_step),
                ("us_per_shown_step", shown_us),
                ("us_per_skipped_step", skipped_us),
            ):
                timing = summarize(samples, digits=1)
                fields[f"{key}_{what}_median"] = timing["median"]
                fields[f"{key}_{what}_iqr"] = timing["iqr"]
            row.append(
                f"n={n}: {fields[f'{key}_us_per_step_median']:.0f} us/step "
                f"({fields[f'{key}_us_per_shown_step_median']:.0f} shown, "
                f"{fields[f'{key}_us_per_skipped_step_median']:.0f} skipped; "
                f"{steps} steps)"
            )
        lines.append(f"{name}: " + "; ".join(row))
    REPORTER.record("depth_sweep", **fields)
    report("Depth sweep: microseconds per core step", lines)
