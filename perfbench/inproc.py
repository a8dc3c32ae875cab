"""The in-process workloads: ``lift_cold`` and ``batch_cold``.

``lift_cold`` is one closed-loop caller doing what ``repro lift`` does:
parse, consume ``Confection.lift_stream`` to its terminal event, and
render every shown step with the backend's ``pretty``.  No cache, pool
or server is involved.

``batch_cold`` pushes seeded corpora through one ``WarmPool`` with the
``rendered`` payload, which is what ``repro lift-batch`` does.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from perfbench import gate, programs
from perfbench.common import (
    SAMPLE_PROGRAMS,
    SRC,
    TRACE_PROGRAMS,
    Clock,
    Outcomes,
    Result,
    latency_metrics,
    median,
    metric,
    p90_supported,
    proc_peak_rss_mib,
    self_peak_rss_mib,
)

LANGS = ("lambda", "pyret")


def make_engines():
    """One Confection per backend, built as ``repro lift`` builds it."""
    from repro.engine.registry import get_backend

    return {lang: get_backend(lang).make_confection() for lang in LANGS}


def fresh_engines():
    """``make_engines`` from the engine state of a fresh ``repro lift``
    process: intern tables cleared, then garbage collected."""
    import gc

    from repro.core.intern import clear_intern_caches

    clear_intern_caches()
    engines = make_engines()
    gc.collect()
    return engines


@dataclass
class LiftRecord:
    start: float
    first: Optional[float] = None
    end: float = 0.0
    core: int = 0
    texts: List[str] = field(default_factory=list)
    terminal: object = None
    events: Optional[list] = None


def lift_op(confection, backend, program, keep_events=False, **kwargs):
    """One timed ``repro lift``: parse, lift, render every shown step."""
    from repro.engine.events import CoreStepped, Halted, SurfaceEmitted

    record = LiftRecord(start=time.perf_counter())
    events = [] if keep_events else None
    for event in confection.lift_stream(backend.parse(program.text), **kwargs):
        if events is not None:
            events.append(event)
        if isinstance(event, SurfaceEmitted):
            record.texts.append(backend.pretty(event.surface_term))
            if record.first is None:
                record.first = time.perf_counter()
        elif isinstance(event, CoreStepped):
            record.core += 1
        elif isinstance(event, Halted):
            record.terminal = event
    record.end = time.perf_counter()
    record.events = events
    return record


def check_record(record: LiftRecord, program, outcomes: Outcomes) -> bool:
    return outcomes.check(
        record.terminal is not None
        and record.core == program.core_steps
        and bool(record.texts)
        and record.texts[-1] == program.expected,
        f"{program.family}: wrong outcome for {program.text[:60]} "
        f"(core {record.core}, last {record.texts[-1:]})",
    )


# Set-up probes run in a fresh interpreter, which prints "ready" once it
# could start its first timed operation.
ENGINE_READY = f"""
from repro.engine.registry import get_backend
[get_backend(lang).make_confection() for lang in {LANGS!r}]
"""
POOL_READY = """
import os
from repro.engine.registry import get_backend
from repro.parallel import LiftJob, WarmPool
backend = get_backend("lambda")
pool = WarmPool((backend.make_rules(), backend.make_stepper()),
                jobs=os.cpu_count() or 1, payload="rendered",
                pretty=backend.pretty)
list(pool.run([LiftJob(backend.parse("(or #f #t)"))] * (2 * pool.jobs)))
"""


def ready_s(body: str) -> float:
    """Process start to ready: spawn an interpreter that imports the
    engine and runs ``body``; the time until it reports ready."""
    code = (
        "import sys\nsys.path.insert(0, sys.argv[1])\n" + body
        + "print('ready', flush=True)\n"
    )
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.stdout.close()
    proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


def probe_due(
    clock: Clock, seconds: float, setups: list, repeats: int
) -> bool:
    """Whether the next set-up probe is due.  The probes are spread evenly
    over the run, between its windows, so that their median sees the same
    stretch of machine time as the other metrics rather than its first
    second."""
    due = len(setups) * seconds / repeats
    return len(setups) < repeats and clock.elapsed() >= due


def closed_loop_metrics(
    setup_s, lift_s, first_s, windows, rss_mib, batch_s=None
) -> dict:
    """End-to-end metrics of a closed loop.  ``windows`` holds one
    ``(programs, core steps, seconds)`` per deck or batch; throughput is
    the median over them, so a burst of machine noise in part of the run
    moves it less.  Without a batch path a batch is one program; a closed
    loop has no offered rate, so its highest rate is the rate it
    sustained."""
    programs_per_s = median(n / s for n, _, s in windows)
    out = {"setup_s": metric(setup_s, "s")}
    out["steps_per_s"] = metric(median(k / s for _, k, s in windows), "steps/s")
    out["programs_per_s"] = metric(programs_per_s, "programs/s")
    out["rate_max_rps"] = metric(programs_per_s, "sessions/s")
    out.update(latency_metrics("lift_ms", lift_s))
    out.update(latency_metrics("first_step_ms", first_s))
    out.update(latency_metrics("batch_ms", batch_s or lift_s))
    out["peak_rss_mb"] = metric(rss_mib, "MiB")
    return out


def lift_cold(cfg, seed: int, seconds: float, trace: bool) -> Result:
    from repro.engine.registry import get_backend

    wl = cfg["workloads"]["lift_cold"]
    result = Result()
    repeats = cfg["setup_repeats"]
    setups: List[float] = []
    backends = {lang: get_backend(lang) for lang in LANGS}

    rng = random.Random(seed)
    decks = programs.Decks(rng, wl["deck"])
    lift_s, first_s, windows = [], [], []
    by_family: dict = {}
    clock = Clock(seconds)
    # Whole decks only, so every run measures the same program mix.
    while clock.left() > 0:
        if probe_due(clock, seconds, setups, repeats):
            setups.append(ready_s(ENGINE_READY))
        deck = decks.next()
        steps, busy = 0, 0.0
        for program in deck:
            # Each lift starts from the engine state of a fresh ``repro
            # lift`` process, outside the timed window.  Otherwise the
            # intern tables grow over the run, a lift's time depends on
            # which programs the seed happened to put before it, and times
            # track the machine's cache contention more (run-to-run spread
            # on a shared 2-vCPU VM, interleaved 20 s runs: 0.29 with no
            # reset, 0.16 with one per deck, as steady with one per lift).
            engines = fresh_engines()
            record = lift_op(
                engines[program.lang], backends[program.lang], program
            )
            busy += record.end - record.start
            if check_record(record, program, result.outcomes):
                lift_s.append(record.end - record.start)
                first_s.append(record.first - record.start)
                steps += record.core
                by_family.setdefault(program.family, []).append(
                    record.end - record.start
                )
            if len(result.replay) < TRACE_PROGRAMS:
                result.replay.append((program, {}))
        windows.append((len(deck), steps, busy))
    wall = clock.elapsed()
    setups += [ready_s(ENGINE_READY) for _ in range(repeats - len(setups))]
    if not p90_supported(lift_s):
        result.lines.append(
            f"WARNING: only {len(lift_s)} lifts: p90 unsupported"
        )
    result.metrics = closed_loop_metrics(
        median(setups), lift_s, first_s, windows, self_peak_rss_mib()
    )
    gate.golden_in_process(result.outcomes)
    result.lines.append(
        f"lift_cold: {len(lift_s)} lifts in {wall:.1f}s; per family "
        + ", ".join(
            f"{family} n={len(v)} p50={median(v) * 1000:.1f}ms"
            for family, v in sorted(by_family.items())
        )
    )
    if trace:
        result.lines.extend(gate.known_defect())
    return result


def batch_cold(cfg, seed: int, seconds: float, trace: bool) -> Result:
    import pickle

    from repro.engine.events import JobError
    from repro.engine.registry import get_backend
    from repro.parallel import LiftJob, WarmPool

    wl = cfg["workloads"]["batch_cold"]
    result = Result()
    backend = get_backend("lambda")
    jobs = os.cpu_count() or 1

    # set-up: what ``repro lift-batch`` pays before its first batch, up
    # to a warm pool (a job per worker has run), probed during the run
    repeats = cfg["setup_repeats"]
    setups: List[float] = []
    pool = WarmPool(
        (backend.make_rules(), backend.make_stepper()), jobs=jobs,
        payload="rendered", pretty=backend.pretty,
    )
    started = time.perf_counter()
    list(pool.run([LiftJob(backend.parse("(or #f #t)"))] * (2 * jobs)))
    warm_s = time.perf_counter() - started
    try:
        decks = programs.Decks(random.Random(seed), wl["deck"])
        batch_s, lift_s, windows, run_s = [], [], [], 0.0
        job_bytes = result_bytes = job_errors = 0
        workers = set()
        samples = []
        clock = Clock(seconds)
        while clock.left() > 0:
            if probe_due(clock, seconds, setups, repeats):
                setups.append(ready_s(POOL_READY))
            corpus = decks.next()
            started, steps = time.perf_counter(), 0
            batch = [LiftJob(backend.parse(p.text)) for p in corpus]
            submitted = time.perf_counter()
            outcomes = []
            for program, outcome in zip(corpus, pool.run(batch)):
                done = time.perf_counter()
                outcomes.append(outcome)
                if isinstance(outcome, JobError):
                    job_errors += 1
                    result.outcomes.fail(
                        f"batch job {outcome.error_type}: {outcome.error_message}"
                    )
                    continue
                workers.add(outcome.worker)
                if result.outcomes.check(
                    bool(outcome.rendered)
                    and outcome.rendered[-1] == program.expected,
                    f"batch: wrong outcome for {program.text[:60]}",
                ):
                    lift_s.append(done - started)
                    steps += program.core_steps
            batch_s.append(time.perf_counter() - started)
            run_s += time.perf_counter() - submitted
            windows.append((len(corpus), steps, batch_s[-1]))
            if trace:
                job_bytes += len(pickle.dumps(batch))
                result_bytes += len(pickle.dumps(outcomes))
            if len(samples) < SAMPLE_PROGRAMS and outcomes:
                outcome = outcomes[0]
                if not isinstance(outcome, JobError):
                    samples.append((corpus[0], outcome.rendered))
            if len(result.replay) < TRACE_PROGRAMS:
                result.replay.extend((p, {}) for p in corpus)
        wall = clock.elapsed()
        setups += [ready_s(POOL_READY) for _ in range(repeats - len(setups))]
        rss = self_peak_rss_mib() + sum(proc_peak_rss_mib(pid) for pid in workers)
        if not p90_supported(batch_s):
            result.lines.append(
                f"WARNING: only {len(batch_s)} batches: p90 unsupported"
            )
        result.metrics = closed_loop_metrics(
            median(setups), lift_s, lift_s, windows, rss, batch_s=batch_s
        )
        gate.golden_pool(pool, backend, "scheme", result.outcomes)
    finally:
        pool.shutdown()
    gate.same_as_in_process(make_engines(), samples, result.outcomes, "pool")
    result.lines.append(
        f"batch_cold: {len(batch_s)} batches of {len(corpus)} on {jobs} "
        f"workers in {wall:.1f}s"
    )
    if trace:
        n = len(batch_s)
        result.lines.append(
            f"  parallel: pool.warm_s={warm_s:.4f} "
            f"pool.run_s={run_s / n:.4f}/batch "
            f"pool.job_bytes={job_bytes // n}/batch "
            f"pool.result_bytes={result_bytes // n}/batch "
            f"pool.job_errors={job_errors}"
        )
    return result
