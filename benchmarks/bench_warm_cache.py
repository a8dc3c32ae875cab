"""Warm-cache relift: repeated corpora skip stepping entirely.

The persistent lift cache's throughput claim: lifting a corpus a second
time through the same cache directory replays recorded event streams
instead of stepping, so the relift runs an order of magnitude faster —
while remaining byte-identical to the cold run.  This benchmark measures
that on a mixed or-chain corpus under both stepper modes (the refocusing
stepper sets the harder bar: its cold lifts are already fast), then
sweeps the entire golden corpus — every bundled sugar on both backends,
both stepper modes — asserting the warm relift of every single trace is
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
from benchmarks.reporter import REPORTER

CORPUS_ARMS = (256, 192, 128, 256, 224)
STEPPER_MODES = ("refocus", "naive")
MIN_WARM_SPEEDUP = 10.0


def _or_chain(n: int) -> str:
    return "(or " + " ".join(["#f"] * n) + " #t)"


def _rendered(result):
    return [render(t) for t in result.surface_sequence]


def test_warm_cache_relift(tmp_path):
    corpus = [parse_program(_or_chain(n)) for n in CORPUS_ARMS]

    # --- throughput: cold corpus lift vs warm relift, per stepper mode
    cold_seconds = {}
    warm_seconds = {}
    speedups = {}
    core_steps = 0
    for mode in STEPPER_MODES:
        cold_engine = Confection(
            make_scheme_rules(), make_stepper(), cache=LiftCache(tmp_path)
        )
        start = time.perf_counter()
        cold = [cold_engine.lift(t, stepper_mode=mode) for t in corpus]
        cold_seconds[mode] = time.perf_counter() - start

        warm_cache = LiftCache(tmp_path)
        warm_engine = Confection(
            make_scheme_rules(), make_stepper(), cache=warm_cache
        )
        start = time.perf_counter()
        warm = [warm_engine.lift(t, stepper_mode=mode) for t in corpus]
        warm_seconds[mode] = time.perf_counter() - start

        assert warm_cache.lift_hits == len(corpus), mode
        assert warm_cache.store.counters["corrupt"] == 0
        for a, b in zip(cold, warm):
            assert _rendered(a) == _rendered(b), mode
        core_steps += sum(r.core_step_count for r in cold)
        speedups[mode] = cold_seconds[mode] / warm_seconds[mode]
        assert speedups[mode] >= MIN_WARM_SPEEDUP, (
            f"warm relift only {speedups[mode]:.1f}x cold under "
            f"stepper_mode={mode} (need >= {MIN_WARM_SPEEDUP}x)"
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

    REPORTER.record(
        "warm_cache_relift",
        corpus_programs=len(corpus),
        core_steps=core_steps,
        cold_seconds=round(cold_seconds["refocus"], 4),
        warm_seconds=round(warm_seconds["refocus"], 4),
        speedup=round(speedups["refocus"], 2),
        naive_cold_seconds=round(cold_seconds["naive"], 4),
        naive_warm_seconds=round(warm_seconds["naive"], 4),
        naive_speedup=round(speedups["naive"], 2),
        golden_configs_checked=traces,
        golden_warm_hits=hits,
        golden_speedup=round(golden_cold / golden_warm, 2),
    )
    report(
        f"Warm-cache relift: {len(corpus)} programs, {core_steps} core steps",
        [
            *(
                f"{mode:8s} cold {cold_seconds[mode]:.3f}s -> warm "
                f"{warm_seconds[mode]:.3f}s  ({speedups[mode]:.1f}x)"
                for mode in STEPPER_MODES
            ),
            f"golden sweep: {traces} trace configs byte-identical, "
            f"{hits} warm hits ({golden_cold / golden_warm:.1f}x)",
        ],
    )
