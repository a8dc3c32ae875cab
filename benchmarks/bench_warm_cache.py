"""Warm-cache relift: repeated corpora skip stepping entirely.

The persistent lift cache's throughput claim: lifting a corpus a second
time through the same cache directory replays recorded event streams
instead of stepping, so the relift runs an order of magnitude faster —
while remaining byte-identical to the cold run.  This benchmark measures
that on a mixed or-chain corpus under both stepper modes (the refocusing
stepper sets the harder bar: its cold lifts are already fast), as the
median over ``REPEATS`` cold/warm pairs that each start from an empty
cache directory (no memo tier either).  It then sweeps the entire
golden corpus — every bundled sugar on both backends, both stepper
modes — asserting the warm relift of every single trace is
byte-identical to its cold lift and was served from the cache.

Records ``warm_cache_relift`` in ``BENCH_lift.json``.
"""

import time

from repro.cache import LiftCache
from repro.confection import Confection
from repro.lambdacore import make_stepper, parse_program
from repro.lang.render import render
from repro.sugars.scheme_sugars import make_scheme_rules

import tests.test_golden_traces as golden

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize

CORPUS_ARMS = (256, 192, 128, 256, 224)
STEPPER_MODES = ("refocus", "naive")
MIN_WARM_SPEEDUP = 10.0
REPEATS = 5


def _or_chain(n: int) -> str:
    return "(or " + " ".join(["#f"] * n) + " #t)"


def _rendered(result):
    return [render(t) for t in result.surface_sequence]


def _relift(corpus, cache_dir, mode):
    """Cold corpus lift into an empty ``cache_dir``, then a warm relift
    through it: (cold results, cold seconds, warm seconds)."""
    cold_engine = Confection(
        make_scheme_rules(), make_stepper(), cache=LiftCache(cache_dir)
    )
    start = time.perf_counter()
    cold = [cold_engine.lift(t, stepper_mode=mode) for t in corpus]
    cold_seconds = time.perf_counter() - start

    warm_cache = LiftCache(cache_dir)
    warm_engine = Confection(
        make_scheme_rules(), make_stepper(), cache=warm_cache
    )
    start = time.perf_counter()
    warm = [warm_engine.lift(t, stepper_mode=mode) for t in corpus]
    warm_seconds = time.perf_counter() - start

    assert warm_cache.lift_hits == len(corpus), mode
    assert warm_cache.store.counters["corrupt"] == 0
    for a, b in zip(cold, warm):
        assert _rendered(a) == _rendered(b), mode
    return cold, cold_seconds, warm_seconds


def test_warm_cache_relift(tmp_path):
    corpus = [parse_program(_or_chain(n)) for n in CORPUS_ARMS]

    # --- throughput: cold corpus lift vs warm relift, per stepper mode,
    # as the median of REPEATS pairs.  Every pair gets its own empty
    # directory: a cold pass that could hydrate the memo tier another
    # pass wrote would not be cold.
    cold_seconds = {}
    warm_seconds = {}
    speedups = {}
    core_steps = 0
    for mode in STEPPER_MODES:
        colds, warms, ratios = [], [], []
        for repeat in range(REPEATS):
            cold, cold_s, warm_s = _relift(
                corpus, tmp_path / f"{mode}-{repeat}", mode
            )
            colds.append(cold_s)
            warms.append(warm_s)
            ratios.append(cold_s / warm_s)
        corpus_steps = sum(r.core_step_count for r in cold)
        core_steps += corpus_steps
        cold_seconds[mode] = summarize(colds)
        warm_seconds[mode] = summarize(warms)
        speedups[mode] = summarize(ratios, digits=2)
        assert speedups[mode]["median"] >= MIN_WARM_SPEEDUP, (
            f"warm relift only {speedups[mode]['median']:.1f}x cold "
            f"(median of {REPEATS}) under stepper_mode={mode} "
            f"(need >= {MIN_WARM_SPEEDUP}x)"
        )

    # --- correctness sweep: every golden trace, both backends, both
    # stepper modes — warm must be byte-identical to cold, and every
    # trace must actually come back as a hit.  Only complete lifts are
    # recorded, so a cold pass cut by its budget is followed by an
    # untimed priming lift without the budget; its warm pass is then a
    # cut replay.
    configs = golden._configs()
    golden_cold = golden_warm = 0.0
    traces = hits = 0
    golden_dir = tmp_path / "golden"
    for path in golden.GOLDEN_FILES:
        sugar, program, _trace, _stats, options = golden.parse_golden(path)
        make_rules, make_golden_stepper, parse, pretty = configs[sugar]
        kwargs = golden.lift_kwargs(options)
        for mode in STEPPER_MODES:
            term = parse(program)
            cold_engine = Confection(
                make_rules(), make_golden_stepper(),
                cache=LiftCache(golden_dir),
            )
            start = time.perf_counter()
            cold_result = cold_engine.lift(term, stepper_mode=mode, **kwargs)
            golden_cold += time.perf_counter() - start
            if cold_result.truncated:
                Confection(
                    make_rules(), make_golden_stepper(),
                    cache=LiftCache(golden_dir),
                ).lift(term, stepper_mode=mode)

            warm_cache = LiftCache(golden_dir)
            warm_engine = Confection(
                make_rules(), make_golden_stepper(), cache=warm_cache
            )
            start = time.perf_counter()
            warm_result = warm_engine.lift(term, stepper_mode=mode, **kwargs)
            golden_warm += time.perf_counter() - start

            assert [pretty(t) for t in cold_result.surface_sequence] == [
                pretty(t) for t in warm_result.surface_sequence
            ], (path.stem, mode)
            assert warm_cache.lift_hits == 1, (path.stem, mode)
            hits += 1
            traces += 1

    fields = {}
    for mode, prefix in (("refocus", ""), ("naive", "naive_")):
        fields.update({
            f"{prefix}cold_seconds": cold_seconds[mode]["median"],
            f"{prefix}warm_seconds": warm_seconds[mode]["median"],
            f"{prefix}warm_seconds_iqr": warm_seconds[mode]["iqr"],
            f"{prefix}warm_us_per_core_step": round(
                warm_seconds[mode]["median"] / corpus_steps * 1e6, 2
            ),
            f"{prefix}speedup": speedups[mode]["median"],
            f"{prefix}speedup_min": speedups[mode]["min"],
            f"{prefix}speedup_iqr": speedups[mode]["iqr"],
        })
    REPORTER.record(
        "warm_cache_relift",
        corpus_programs=len(corpus),
        core_steps=core_steps,
        repeats=REPEATS,
        **fields,
        golden_configs_checked=traces,
        golden_warm_hits=hits,
        golden_speedup=round(golden_cold / golden_warm, 2),
    )
    report(
        f"Warm-cache relift: {len(corpus)} programs, {core_steps} core "
        f"steps, median of {REPEATS}",
        [
            *(
                f"{mode:8s} cold {cold_seconds[mode]['median']:.3f}s -> "
                f"warm {warm_seconds[mode]['median']:.3f}s  "
                f"({speedups[mode]['median']:.1f}x, IQR "
                f"{speedups[mode]['iqr']:.1f})"
                for mode in STEPPER_MODES
            ),
            f"golden sweep: {traces} trace configs byte-identical, "
            f"{hits} warm hits ({golden_cold / golden_warm:.1f}x)",
        ],
    )
