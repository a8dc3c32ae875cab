"""Per-step constants of the lift: what one call costs, apart from how
many calls a lift makes.

A lift's time is (calls) x (cost per call) for each per-step operation.
Skipping work lowers the first factor; cheaper code lowers the second.
This bench records both, separately, for three programs:

* **Counts per lift**, which are deterministic: shown steps, ``expand``
  calls and ``unexpand`` calls.  A change that only makes each call
  cheaper leaves them as they were.
* **Cost per call**: ``pretty`` on every shown surface step, every
  ``expand`` call the lift made, and every ``unexpand`` call of a cold
  resugaring walk over the desugared program, replayed on the same
  arguments ``REPEATS`` times.  Replaying outside the lift times the
  calls alone, with no instrumentation on the lift path.  (``unexpand``
  is timed on the cold walk's calls because the lift itself may make
  none: it shows the program at step 0 without resugaring it.)

Records ``per_step_constants`` in ``BENCH_lift.json`` (medians with min
and IQR over the repeats, from :func:`benchmarks.reporter.summarize`).
"""

import time

from repro.confection import Confection
from repro.core.incremental import ResugarCache
from repro.core.intern import clear_intern_caches
from repro.core.recursion import deep_recursion
from repro.core.rules import RuleList
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.sugars.scheme_sugars import make_scheme_rules

from benchmarks.bench_shared_spine import PROGRAMS
from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize

REPEATS = 7

# Counts per lift, pinned: a change that moves them changes how much
# work a lift does, not what each call costs, and must say so here.
# ``expand`` calls are the program's desugar alone (they were 201, 236
# and 431): Emulation is decided inside the resugaring walk, which
# re-desugars nothing, and the desugar asks only sugar-labelled nodes.
# ``unexpand`` calls were 80, 70 and 2 while step 0 resugared the
# program; it is now shown as it stands (Theorem 2), and or_chain's
# skipped steps are decided at their roots, before any unexpansion.
COUNTS = {
    "or_chain_40": (2, 80, 0),
    "let_nest_24": (49, 24, 68),
    "letrec_fact_10": (66, 2, 0),
}


class _RecordingRules(RuleList):
    """A rule list that keeps the arguments of every expand/unexpand."""

    def __init__(self, rules: RuleList) -> None:
        super().__init__(rules.rules, rules.disjointness)
        self.expand_calls = []
        self.unexpand_calls = []

    def expand(self, term):
        self.expand_calls.append(term)
        return super().expand(term)

    def unexpand(self, index, term, stand_in=()):
        self.unexpand_calls.append((index, term, stand_in))
        return super().unexpand(index, term, stand_in)


def _per_call_us(calls, fn, total_calls):
    """Median/min/IQR microseconds per call over ``REPEATS`` replays."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        samples.append((time.perf_counter() - start) / total_calls * 1e6)
    return summarize(samples, digits=3)


def _cold_walk_unexpands(rules, program):
    """The ``unexpand`` calls of one resugaring walk over the whole
    desugared program, from an empty memo."""
    recorder = _RecordingRules(rules)
    cache = ResugarCache(recorder)
    with deep_recursion():
        core = cache.desugar(program)
        cache.resugar(core)
    return recorder.unexpand_calls


def test_per_step_constants():
    rules = make_scheme_rules()
    fields = {"repeats": REPEATS}
    lines = []
    for name, source in PROGRAMS.items():
        clear_intern_caches()
        recorder = _RecordingRules(rules)
        with deep_recursion():
            result = Confection(recorder, make_stepper()).lift(
                parse_program(source)
            )
        shown = result.surface_sequence
        expands = [(t,) for t in recorder.expand_calls]
        assert (
            len(shown), len(expands), len(recorder.unexpand_calls)
        ) == COUNTS[name]
        unexpands = _cold_walk_unexpands(rules, parse_program(source))

        with deep_recursion():
            render = _per_call_us([(t,) for t in shown], pretty, len(shown))
            expand = _per_call_us(expands, rules.expand, len(expands))
            unexpand = _per_call_us(unexpands, rules.unexpand, len(unexpands))
        fields.update({
            f"{name}_shown_steps": len(shown),
            f"{name}_expand_calls": len(expands),
            f"{name}_unexpand_calls": len(recorder.unexpand_calls),
            f"{name}_cold_walk_unexpand_calls": len(unexpands),
        })
        for what, timing in (
            ("render_us_per_step", render),
            ("expand_us_per_call", expand),
            ("unexpand_us_per_call", unexpand),
        ):
            fields.update({
                f"{name}_{what}_median": timing["median"],
                f"{name}_{what}_min": timing["min"],
                f"{name}_{what}_iqr": timing["iqr"],
            })
        lines.append(
            f"{name}: {len(shown)} shown steps, {len(expands)} expand and "
            f"{len(recorder.unexpand_calls)} unexpand calls per lift "
            f"({len(unexpands)} in a cold walk); render "
            f"{render['median']:.1f} us/step, expand {expand['median']:.1f} "
            f"us/call, unexpand {unexpand['median']:.1f} us/call"
        )
    clear_intern_caches()

    REPORTER.record("per_step_constants", **fields)
    report("Per-step constants", lines)
