"""Cache-miss cost against cache size: a miss costs the same however
much the directory already holds.

A miss runs the cacheless lift and then stores one whole-lift entry, so
its time must not grow with the number of programs already cached.
This benchmark fills three cache directories with 1, 100 and 1,000
distinct halting programs, then times the miss lifts of fresh salted
40-arm ``or`` programs (the shape of ``repro serve`` traffic re-running
edited programs) against each directory and against no cache, in
``REPEATS`` interleaved rounds so that load on the machine hits every
column alike.  Each timed lift starts like a fresh
``repro lift --cache DIR`` process: an empty intern table and a new
:class:`~repro.cache.LiftCache` handle.

It asserts that the median miss after 1,000 cached programs is within
``MAX_GROWTH`` of the median after 1, and records ``cache_growth`` in
``BENCH_lift.json`` (medians, minima and IQRs in milliseconds, plus
the same programs lifted with no cache attached).
"""

import gc
import itertools
import time

from repro.cache import LiftCache
from repro.confection import Confection
from repro.core.intern import clear_intern_caches
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize

CHECKPOINTS = (1, 100, 1000)
REPEATS = 7
MAX_GROWTH = 1.25
ARMS = 40


def _filler(i: int) -> str:
    """A distinct small halting program: every suffix of its ``or``
    spine ends in ``i``, so no two fillers share those subterms."""
    return f"(or #f (not #t) (and #t #f) #f (not (not #f)) {i})"


def _salted(salt: int) -> str:
    """A 40-arm ``or`` chain behind an unused binder: distinct from
    every other salt, sharing everything below the binder."""
    chain = "(or " + "#f " * ARMS + "#t)"
    return f"((lambda (s{salt}) {chain}) 0)"


def _timed_lift(confection, source, cache_dir):
    clear_intern_caches()
    gc.collect()
    confection.cache = None if cache_dir is None else LiftCache(cache_dir)
    term = parse_program(source)
    start = time.perf_counter()
    confection.lift(term)
    seconds = time.perf_counter() - start
    if confection.cache is not None:
        assert confection.cache.lift_misses == 1
    return seconds * 1e3


def test_miss_cost_does_not_grow_with_the_cache(tmp_path):
    confection = Confection(make_scheme_rules(), make_stepper())
    start = time.perf_counter()
    columns = {}
    for checkpoint in CHECKPOINTS:
        columns[checkpoint] = tmp_path / f"cached-{checkpoint}"
        confection.cache = LiftCache(columns[checkpoint])
        for i in range(checkpoint):
            confection.lift(parse_program(_filler(i)))
    columns[None] = None  # no cache attached
    salts = itertools.count(1)
    samples = {column: [] for column in columns}
    order = list(columns)
    for _ in range(REPEATS):
        for column in order:
            samples[column].append(
                _timed_lift(confection, _salted(next(salts)), columns[column])
            )
        order = order[1:] + order[:1]
    run_seconds = time.perf_counter() - start
    cacheless = summarize(samples.pop(None), digits=2)
    misses = {column: summarize(ms, digits=2) for column, ms in samples.items()}

    first, last = CHECKPOINTS[0], CHECKPOINTS[-1]
    growth = misses[last]["median"] / misses[first]["median"]
    fields = {}
    for checkpoint, summary in misses.items():
        fields[f"miss_ms_after_{checkpoint}"] = summary["median"]
        fields[f"miss_ms_after_{checkpoint}_min"] = summary["min"]
        fields[f"miss_ms_after_{checkpoint}_iqr"] = summary["iqr"]
    REPORTER.record(
        "cache_growth",
        repeats=REPEATS,
        or_arms=ARMS,
        **fields,
        cacheless_ms=cacheless["median"],
        cacheless_ms_iqr=cacheless["iqr"],
        growth_ratio=round(growth, 3),
        max_growth=MAX_GROWTH,
        run_seconds=round(run_seconds, 2),
    )
    report(
        f"Miss-lift cost vs cache size (salted {ARMS}-arm or, median of "
        f"{REPEATS})",
        [
            *(
                f"after {checkpoint:>4} cached programs: "
                f"{summary['median']:.2f} ms (IQR {summary['iqr']:.2f})"
                for checkpoint, summary in misses.items()
            ),
            f"no cache attached:           {cacheless['median']:.2f} ms",
            f"growth {first} -> {last}: {growth:.2f}x "
            f"(bound {MAX_GROWTH}x); whole run {run_seconds:.1f} s",
        ],
    )
    assert growth <= MAX_GROWTH, (
        f"miss lift after {last} cached programs is {growth:.2f}x the "
        f"miss after {first} (bound {MAX_GROWTH}x)"
    )
