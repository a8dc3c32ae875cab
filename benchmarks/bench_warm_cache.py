"""Warm-cache relift: repeated corpora skip stepping entirely.

The persistent lift cache's throughput claim: lifting a corpus a second
time through the same cache directory replays recorded event streams
instead of stepping, while remaining byte-identical to the cold run.
This benchmark measures that on a mixed or-chain corpus under both
stepper modes, as the median over ``REPEATS`` cold/warm pairs that each
start from an empty cache directory.  A warm relift through a fresh
:class:`LiftCache` reads every recording from disk (``warm_*``); a
third pass through that same instance is served from the recordings it
keeps in memory (``memo_*``).  The bar is absolute: a warm relift costs
at most ``MAX_WARM_US_PER_CORE_STEP`` per replayed core step, well
under what re-stepping costs.  The cold/warm ratio is recorded but not
asserted: every cold-path speedup lowers it while replay stays put.

For two deep programs, ``letrec_fact(20)`` and ``pyret_len(40)``, it
records a memory hit's and a disk hit's cost as a ratio to a cold lift
from an empty intern table (the state of a fresh ``repro lift``); a
memory hit must cost at most ``MAX_MEMO_HIT_RATIO`` of the cold lift.
It then sweeps the entire
golden corpus — every bundled sugar on both backends, both stepper
modes — asserting the warm relift of every single trace is
byte-identical to its cold lift and was served from the cache.

Records ``warm_cache_relift`` in ``BENCH_lift.json``.
"""

import time

from repro.cache import LiftCache
from repro.confection import Confection
from repro.core.intern import clear_intern_caches
from repro.engine.registry import get_backend
from repro.lambdacore import make_stepper, parse_program
from repro.lang.render import render
from repro.sugars.scheme_sugars import make_scheme_rules

import tests.test_golden_traces as golden

from benchmarks.bench_depth_sweep import PROGRAMS
from benchmarks.conftest import report
from benchmarks.reporter import REPORTER, summarize

CORPUS_ARMS = (256, 192, 128, 256, 224)
STEPPER_MODES = ("refocus", "naive")
MAX_WARM_US_PER_CORE_STEP = 100.0
MAX_MEMO_HIT_RATIO = 0.2
REPEATS = 5
HIT_RATIO_PROGRAMS = (("letrec_fact", 20), ("pyret_len", 40))


def _or_chain(n: int) -> str:
    return "(or " + " ".join(["#f"] * n) + " #t)"


def _rendered(result):
    return [render(t) for t in result.surface_sequence]


def _relift(corpus, cache_dir, mode):
    """Cold corpus lift into an empty ``cache_dir``, a warm relift
    reading every recording from disk (a fresh handle per program), and
    a relift from the recordings one handle keeps in memory: (cold
    results, cold seconds, warm seconds, memory seconds)."""
    stepper = make_stepper().with_mode(mode)
    cold_engine = Confection(
        make_scheme_rules(), stepper, cache=LiftCache(cache_dir)
    )
    start = time.perf_counter()
    cold = [cold_engine.lift(t) for t in corpus]
    cold_seconds = time.perf_counter() - start

    engine = Confection(make_scheme_rules(), stepper)
    handles = [LiftCache(cache_dir) for _ in corpus]
    warm = []
    start = time.perf_counter()
    for term, handle in zip(corpus, handles):
        engine.cache = handle
        warm.append(engine.lift(term))
    warm_seconds = time.perf_counter() - start

    engine.cache = memo_cache = LiftCache(cache_dir)
    for term in corpus:  # read each recording once, into memory
        engine.lift(term)
    start = time.perf_counter()
    memo = [engine.lift(t) for t in corpus]
    memo_seconds = time.perf_counter() - start

    assert all(h.stats()["disk_hits"] == 1 for h in handles), mode
    assert memo_cache.memo_hits >= len(corpus), mode
    assert all(h.store.counters["corrupt"] == 0 for h in handles)
    for a, b, c in zip(cold, warm, memo):
        assert _rendered(a) == _rendered(b) == _rendered(c), mode
    return cold, cold_seconds, warm_seconds, memo_seconds


def _hit_ratios(family, n, root):
    """Cold lift, disk hit and memory hit of one program, ``REPEATS``
    times: {"cold_ms", "disk_ms", "memo_ms", "disk_ratio",
    "memo_ratio"} summaries."""
    lang, source = PROGRAMS[family]
    backend = get_backend(lang)
    rules = backend.make_rules()
    samples = {k: [] for k in ("cold_ms", "disk_ms", "memo_ms")}
    for repeat in range(REPEATS):
        clear_intern_caches()
        term = backend.parse(source(n))
        start = time.perf_counter()
        cold = Confection(rules, backend.make_stepper()).lift(term)
        samples["cold_ms"].append((time.perf_counter() - start) * 1e3)
        cache_dir = root / f"{family}-{n}-{repeat}"
        Confection(
            rules, backend.make_stepper(), cache=LiftCache(cache_dir)
        ).lift(term)
        cache = LiftCache(cache_dir)
        engine = Confection(rules, backend.make_stepper(), cache=cache)
        hits = []
        for key in ("disk_ms", "memo_ms"):
            start = time.perf_counter()
            hits.append(engine.lift(term))
            samples[key].append((time.perf_counter() - start) * 1e3)
        assert (cache.stats()["disk_hits"], cache.memo_hits) == (1, 1)
        assert _rendered(cold) == _rendered(hits[0]) == _rendered(hits[1])
    for key in ("disk", "memo"):
        samples[f"{key}_ratio"] = [
            hit / cold
            for hit, cold in zip(samples[f"{key}_ms"], samples["cold_ms"])
        ]
    return {
        key: summarize(values, digits=4 if key.endswith("ratio") else 3)
        for key, values in samples.items()
    }


def test_warm_cache_relift(tmp_path):
    corpus = [parse_program(_or_chain(n)) for n in CORPUS_ARMS]

    # --- throughput: cold corpus lift vs warm relift, per stepper mode,
    # as the median of REPEATS pairs.  Every pair gets its own empty
    # directory, so each cold pass really steps.
    cold_seconds = {}
    warm_seconds = {}
    memo_seconds = {}
    speedups = {}
    warm_us = {}
    memo_us = {}
    core_steps = 0
    for mode in STEPPER_MODES:
        colds, warms, memos, ratios = [], [], [], []
        for repeat in range(REPEATS):
            cold, cold_s, warm_s, memo_s = _relift(
                corpus, tmp_path / f"{mode}-{repeat}", mode
            )
            colds.append(cold_s)
            warms.append(warm_s)
            memos.append(memo_s)
            ratios.append(cold_s / warm_s)
        corpus_steps = sum(r.core_step_count for r in cold)
        core_steps += corpus_steps
        cold_seconds[mode] = summarize(colds)
        warm_seconds[mode] = summarize(warms)
        memo_seconds[mode] = summarize(memos)
        speedups[mode] = summarize(ratios, digits=2)
        warm_us[mode] = round(
            warm_seconds[mode]["median"] / corpus_steps * 1e6, 2
        )
        memo_us[mode] = round(
            memo_seconds[mode]["median"] / corpus_steps * 1e6, 2
        )
        assert warm_us[mode] <= MAX_WARM_US_PER_CORE_STEP, (
            f"warm relift costs {warm_us[mode]:.1f} us per core step "
            f"(median of {REPEATS}) under the {mode} stepper "
            f"(bar {MAX_WARM_US_PER_CORE_STEP} us)"
        )

    # --- hit-to-cold ratios on two deep programs.
    ratios = {
        f"{family}_{n}": _hit_ratios(family, n, tmp_path / "ratios")
        for family, n in HIT_RATIO_PROGRAMS
    }
    for program, summary in ratios.items():
        assert summary["memo_ratio"]["median"] <= MAX_MEMO_HIT_RATIO, (
            f"{program}: a memory hit costs "
            f"{summary['memo_ratio']['median']:.3f} of a cold lift "
            f"(bar {MAX_MEMO_HIT_RATIO})"
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
            stepper = make_golden_stepper().with_mode(mode)
            cold_engine = Confection(
                make_rules(), stepper, cache=LiftCache(golden_dir),
            )
            start = time.perf_counter()
            cold_result = cold_engine.lift(term, **kwargs)
            golden_cold += time.perf_counter() - start
            if cold_result.truncated:
                Confection(
                    make_rules(), stepper, cache=LiftCache(golden_dir),
                ).lift(term)

            warm_cache = LiftCache(golden_dir)
            warm_engine = Confection(make_rules(), stepper, cache=warm_cache)
            start = time.perf_counter()
            warm_result = warm_engine.lift(term, **kwargs)
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
            f"{prefix}warm_us_per_core_step": warm_us[mode],
            f"{prefix}memo_seconds": memo_seconds[mode]["median"],
            f"{prefix}memo_seconds_iqr": memo_seconds[mode]["iqr"],
            f"{prefix}memo_us_per_core_step": memo_us[mode],
            f"{prefix}speedup": speedups[mode]["median"],
            f"{prefix}speedup_min": speedups[mode]["min"],
            f"{prefix}speedup_iqr": speedups[mode]["iqr"],
        })
    for program, summary in ratios.items():
        for key, values in summary.items():
            fields[f"{program}_{key}"] = values["median"]
            if key.endswith("ratio"):
                fields[f"{program}_{key}_iqr"] = values["iqr"]
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
                f"disk {warm_seconds[mode]['median']:.3f}s  "
                f"({warm_us[mode]:.1f} us/step, {speedups[mode]['median']:.1f}x, "
                f"IQR {speedups[mode]['iqr']:.1f}) -> "
                f"memory {memo_seconds[mode]['median']:.4f}s "
                f"({memo_us[mode]:.2f} us/step)"
                for mode in STEPPER_MODES
            ),
            *(
                f"{program}: cold {s['cold_ms']['median']:.2f} ms, "
                f"disk hit {s['disk_ms']['median']:.2f} ms "
                f"({s['disk_ratio']['median']:.3f}), memory hit "
                f"{s['memo_ms']['median']:.3f} ms "
                f"({s['memo_ratio']['median']:.4f})"
                for program, s in ratios.items()
            ),
            f"golden sweep: {traces} trace configs byte-identical, "
            f"{hits} warm hits ({golden_cold / golden_warm:.1f}x)",
        ],
    )
