"""The traced run: every layer timed from outside, through its public
functions, on the programs the workload itself ran.

Nothing inside the program is wrapped or switched on: the stepper handed
to a ``Confection`` is never proxied (a proxy would change the cache's
stepper fingerprint) and ``repro.obs`` stays off.  Instead the replay
re-does the engine's loop by hand — parse, desugar, load, then per core
step ``term``/``resugar``/``emulates``/``pretty``/``step`` — and times
each call.  Beside it, each program is also lifted untraced (what the
workload measures), so the replay's own overhead and the engine time no
layer accounts for are reported, not hidden.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from typing import Dict, List

from perfbench.common import fresh_dir, metric

# Per-layer metric name -> unit, in report order.  Times are seconds
# summed over the replayed programs.
UNITS = {
    "parse.s": "s",
    "desugar.s": "s",
    "desugar.core_nodes": "count",
    "step.s": "s",
    "step.calls": "count",
    "resugar.s": "s",
    "resugar.calls": "count",
    "resugar.skip_ratio": "ratio",
    "resugar.hit_rate": "ratio",
    "emulation.s": "s",
    "emulation.calls": "count",
    "render.s": "s",
    "render.bytes": "bytes",
    "engine.self_s": "s",
    "engine.shown_ratio": "ratio",
    "cache.key_s": "s",
    "cache.refused": "count",
    "cache.lift_tier_s": "s",
    "cache.hydrate_s": "s",
    "cache.persist_s": "s",
    "cache.lift_hits": "count",
    "cache.lift_misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.memo_hydrated": "count",
    "cache.memo_bytes": "bytes",
    "pool.pickle_s": "s",
    "pool.job_bytes": "bytes",
    "pool.result_bytes": "bytes",
    "server.frame_s": "s",
    "server.frames": "count",
    "server.bytes": "bytes",
    "trace.untraced_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

LAYER_TIMES = (
    "parse.s", "desugar.s", "step.s", "resugar.s", "emulation.s", "render.s"
)


def _count_nodes(term) -> int:
    from repro.core.terms import Node, PList, Tagged

    count, stack = 0, [term]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, Node):
            stack.extend(t.children)
        elif isinstance(t, PList):
            stack.extend(t.items)
        elif isinstance(t, Tagged):
            stack.append(t.term)
    return count


class Timer:
    """Accumulates seconds per layer around calls made by the replay."""

    def __init__(self) -> None:
        self.s: Dict[str, float] = defaultdict(float)
        self.n: Dict[str, float] = defaultdict(float)

    def __call__(self, layer: str, fn, *args):
        started = time.perf_counter()
        value = fn(*args)
        self.s[layer] += time.perf_counter() - started
        return value


def _replay_one(confection, backend, program, timer: Timer):
    """The engine's sequence loop by hand (``engine.stream``), each layer
    call timed.  Returns the rendered steps it would print."""
    from repro.core.desugar import desugar
    from repro.core.incremental import ResugarCache

    rules = confection.rules
    stepper = backend.make_stepper()
    term = timer("parse.s", backend.parse, program.text)
    core = timer("desugar.s", desugar, rules, term)
    timer.n["desugar.core_nodes"] += _count_nodes(core)
    state = timer("step.s", stepper.load, core)
    cache = ResugarCache(rules)
    texts, last = [], None
    while True:
        core_term = timer("step.s", stepper.term, state)
        surface = timer("resugar.s", cache.resugar, core_term)
        timer.n["resugar.calls"] += 1
        if surface is None:
            timer.n["skipped"] += 1
        else:
            if not timer("emulation.s", cache.emulates, surface, core_term):
                raise AssertionError("replay: emulation check failed")
            timer.n["emulation.calls"] += 1
            if surface != last:
                last = surface
                text = timer("render.s", backend.pretty, surface)
                timer.n["render.bytes"] += len(text.encode())
                texts.append(text)
        successors = timer("step.s", stepper.step, state)
        timer.n["step.calls"] += 1
        if not successors:
            break
        state = successors[0]
    timer.n["resugar.visits"] += cache.stats.resugar_visits
    timer.n["resugar.hits"] += cache.stats.resugar_hits
    return texts, cache


def _cache_layer(lift_cache, confection, backend, program, kwargs, events,
                 learned, timer: Timer) -> None:
    """The cache calls the engine makes around one lift, with this
    workload's own lift arguments (``engine.stream``): a key refused
    (today, any wall-clock budget) is a miss with no lookup and no
    store; the memo tier is hydrated and persisted either way."""
    from repro.core.incremental import ResugarCache

    rules, stepper = confection.rules, confection.stepper
    term = backend.parse(program.text)
    key = timer(
        "cache.key_s", lambda: lift_cache.lift_key(
            rules, stepper, term, mode="sequence", dedup=True,
            check_emulation=True, incremental=True,
            on_budget=kwargs.get("on_budget", "raise"),
            max_steps=kwargs.get("max_steps", 100_000),
            max_seconds=kwargs.get("max_seconds"),
        )
    )
    if key is None:
        timer.n["cache.refused"] += 1
        timer.n["cache.lift_misses"] += 1
    elif timer("cache.lookup_s", lift_cache.lookup_lift, key) is None:
        timer.n["cache.lift_misses"] += 1
        timer("cache.store_s", lift_cache.store_lift, key, tuple(events))
    else:
        timer.n["cache.lift_hits"] += 1
    fresh = ResugarCache(rules)
    timer.n["cache.memo_hydrated"] += timer(
        "cache.hydrate_s", lift_cache.hydrate, fresh
    )
    timer("cache.persist_s", lift_cache.persist_memo, learned)


def _transport_layers(backend, program, events, texts, timer: Timer) -> None:
    """What the pool pickles and the server frames for this program."""
    from repro.engine.events import BatchLifted
    from repro.parallel import LiftJob
    from repro.server.protocol import FrameBuilder, encode_frame

    job = LiftJob(backend.parse(program.text))
    outcome = BatchLifted(job_index=0, result=None, rendered=tuple(texts))
    started = time.perf_counter()
    job_blob = pickle.dumps(job)
    result_blob = pickle.dumps(outcome)
    pickle.loads(job_blob)
    pickle.loads(result_blob)
    timer.s["pool.pickle_s"] += time.perf_counter() - started
    timer.n["pool.job_bytes"] += len(job_blob)
    timer.n["pool.result_bytes"] += len(result_blob)

    builder = FrameBuilder(backend.pretty)
    started = time.perf_counter()
    for event in events:
        for frame in builder.frames_for(event):
            blob = encode_frame(frame)
            timer.n["server.frames"] += 1
            timer.n["server.bytes"] += len(blob)
    timer.s["server.frame_s"] += time.perf_counter() - started


def replay(replay_programs, outcomes, lines: List[str], workload: str) -> dict:
    """Run the traced replay; returns the per-layer metrics and appends
    the per-layer table (with per-family rows) to ``lines``."""
    from repro.cache import LiftCache
    from repro.cache.lift import MEMO_TIER
    from repro.core.recursion import deep_recursion
    from repro.engine.registry import get_backend
    from perfbench.inproc import fresh_engines, lift_op

    engines = fresh_engines()
    lift_cache = LiftCache(fresh_dir(f"trace-cache-{workload}"))
    total = Timer()
    families: Dict[str, Timer] = defaultdict(Timer)
    with deep_recursion():
        for program, kwargs in replay_programs:
            # Both lifts of a program start from the same fresh engine
            # state, so neither runs on terms the other interned.
            backend = get_backend(program.lang)
            record = lift_op(fresh_engines()[program.lang], backend, program,
                             keep_events=True, **kwargs)
            untraced = record.end - record.start
            engines = fresh_engines()
            confection = engines[program.lang]
            timer = Timer()
            started = time.perf_counter()
            texts, learned = _replay_one(confection, backend, program, timer)
            traced = time.perf_counter() - started
            outcomes.check(
                texts == record.texts,
                f"replay differs from the engine for {program.text[:60]}",
            )
            timer.s["trace.untraced_s"] += untraced
            timer.s["trace.traced_s"] += traced
            timer.n["core_steps"] += record.core
            timer.n["shown"] += len(record.texts)
            _cache_layer(lift_cache, confection, backend, program, kwargs,
                         record.events, learned, timer)
            _transport_layers(backend, program, record.events, record.texts,
                              timer)
            for target in (total, families[program.family]):
                for key, value in timer.s.items():
                    target.s[key] += value
                for key, value in timer.n.items():
                    target.n[key] += value
    memo_paths = (
        lift_cache.store.path_for(MEMO_TIER, lift_cache.memo_key(c.rules))
        for c in engines.values()
    )
    memo_bytes = sum(path.stat().st_size for path in memo_paths if path.exists())
    values = _derive(total, memo_bytes)
    lines.extend(_table(workload, values, families, len(replay_programs)))
    return {name: metric(values[name], unit) for name, unit in UNITS.items()}


def _derive(timer: Timer, memo_bytes: int = 0) -> Dict[str, float]:
    values = {name: timer.s.get(name, 0.0) for name, unit in UNITS.items()
              if unit == "s"}
    values.update({name: int(timer.n.get(name, 0))
                   for name, unit in UNITS.items() if unit in ("count", "bytes")})
    calls = timer.n["resugar.calls"]
    values["resugar.skip_ratio"] = timer.n["skipped"] / calls if calls else 0.0
    walked = timer.n["resugar.visits"] + timer.n["resugar.hits"]
    values["resugar.hit_rate"] = timer.n["resugar.hits"] / walked if walked else 0.0
    steps = timer.n["core_steps"]
    values["engine.shown_ratio"] = timer.n["shown"] / steps if steps else 0.0
    lookups = timer.n["cache.lift_hits"] + timer.n["cache.lift_misses"]
    attributed = sum(timer.s[name] for name in LAYER_TIMES)
    values["engine.self_s"] = timer.s["trace.untraced_s"] - attributed
    values["trace.unattributed_s"] = timer.s["trace.traced_s"] - attributed
    values["trace.overhead_s"] = (
        timer.s["trace.traced_s"] - timer.s["trace.untraced_s"]
    )
    values["cache.hit_ratio"] = (
        timer.n["cache.lift_hits"] / lookups if lookups else 0.0
    )
    values["cache.memo_bytes"] = memo_bytes
    # The whole-lift tier as the engine uses it: key, then lookup and
    # store unless the key was refused (when they are not called at all).
    values["cache.lookup_s"] = timer.s["cache.lookup_s"]
    values["cache.store_s"] = timer.s["cache.store_s"]
    values["cache.lift_tier_s"] = (
        timer.s["cache.key_s"] + values["cache.lookup_s"]
        + values["cache.store_s"]
    )
    return values


def _table(workload, values, families, count) -> List[str]:
    """The per-layer table: one row per program family and a total, then
    every per-layer metric with its unit."""
    columns = LAYER_TIMES + ("engine.self_s", "trace.untraced_s")
    head = f"{'family':<12}" + "".join(f"{c:>17}" for c in columns)
    rows = [f"per-layer table for {workload} ({count} programs, seconds):", head]
    for family, timer in sorted(families.items()):
        derived = _derive(timer)
        rows.append(
            f"{family:<12}" + "".join(f"{derived[c]:>17.4f}" for c in columns)
        )
    rows.append(
        f"{'total':<12}" + "".join(f"{values[c]:>17.4f}" for c in columns)
    )
    rows.append(
        "unattributed remainder (traced replay minus the layers above): "
        f"{values['trace.unattributed_s']:.4f}s; tracing overhead (traced "
        f"minus untraced): {values['trace.overhead_s']:.4f}s"
    )
    rows.extend(
        f"  {name:<22} {values[name]:>14.6g} {unit}"
        for name, unit in UNITS.items()
    )
    rows.append(
        "  of cache.lift_tier_s: "
        f"cache.lookup_s={values['cache.lookup_s']:.6g} s "
        f"cache.store_s={values['cache.store_s']:.6g} s "
        f"({values['cache.refused']} keys refused, so never looked up)"
    )
    return rows
