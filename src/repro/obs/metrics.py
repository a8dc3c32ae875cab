"""A process-wide metrics registry for the lift pipeline.

Three instrument kinds, modelled on the Prometheus vocabulary but kept
dependency-free:

* :class:`Counter` — a monotonically increasing count (``inc``);
* :class:`Gauge` — a value that can move both ways (``set``);
* :class:`Histogram` — observations bucketed against *fixed* boundaries
  chosen at registration time, plus a running count and sum.

All instruments live in a :class:`MetricsRegistry`; the module-level
:data:`REGISTRY` is the one the pipeline's instrumentation writes to.
:func:`snapshot` freezes the registry into a plain dict (JSON-safe),
:func:`reset` zeroes every instrument in place — instruments are
interned by name, so references held by hot code stay valid across
resets.

Snapshots also *merge*: :meth:`MetricsRegistry.merge` adds a
snapshot-shaped dict into a registry (counters and histogram buckets
add, gauges accumulate), and :func:`merge_snapshots` folds many
snapshots into one.  This is how :mod:`repro.parallel` aggregates
per-worker measurements into a single registry — each pool worker is
its own process with its own :data:`REGISTRY`, so cross-process metrics
travel as snapshots and are summed on arrival.  Merging is exact for
the pipeline's instruments: every one is a counter or a fixed-boundary
histogram, both of which sum losslessly.

The pipeline's metric names (see ``docs/observability.md``):

============================  =========  =====================================
name                          kind       meaning
============================  =========  =====================================
``lift.steps_total``          counter    core steps walked by lift streams
``lift.steps_emitted``        counter    steps shown to the user
``lift.steps_skipped``        counter    steps with no surface representation
``lift.steps_deduped``        counter    steps hidden as duplicates
``lift.runs``                 counter    lift streams started
``match.attempts``            counter    pattern-match calls
``match.successes``           counter    pattern-match calls that bound
``match.attempts_per_step``   histogram  match attempts spent per core step
``resugar.calls``             counter    resugar entry points taken
``resugar.unexpand_attempts`` counter    rule unexpansions tried at HeadTags
``resugar.fail_propagations`` counter    subtree failures propagated upward
``resugar.tag_blocked``       counter    resugarings blocked by opaque tags
``resugar.cache_hits``        counter    ResugarCache subtree walks saved
``resugar.cache_misses``      counter    ResugarCache subtree walks done
``desugar.cache_hits``        counter    desugar memo hits
``desugar.cache_misses``      counter    desugar memo misses
``desugar.depth``             histogram  expansion nesting depth per expansion
``redex.decompose.depth``     histogram  context frames moved per decomposition
``trace.truncated_lines``     counter    partial JSONL trace lines dropped
``server.sessions_started``   counter    lift sessions the server accepted
``server.sessions_rejected``  counter    sessions refused at the cap
``server.sessions_errored``   counter    sessions ended by an error frame
``server.sessions_cancelled`` counter    sessions cancelled (disconnects)
``server.sessions_active``    gauge      sessions currently streaming
``server.sessions_peak``      gauge      high-water mark of active sessions
``server.frames_sent``        counter    protocol frames written to clients
``server.writes``             counter    socket writes carrying those frames
``server.replays``            counter    sessions the loop answered from frames
``server.requests``           counter    HTTP/WebSocket requests handled
``server.ttfs_seconds``       histogram  per-session time to first step
``synth.examples_harvested``  counter    (surface, core) example pairs mined
``synth.candidates``          counter    candidate rules anti-unification built
``synth.accepted``            counter    candidates passing the filter gauntlet
``synth.rejected``            counter    candidates the filter rejected
``synth.rules_installed``     counter    rules admitted into a synthesized set
``synth.fuzz_trials``         counter    perturbed candidates pushed through
``synth.fuzz_crashes``        counter    engine crashes the fuzzer surfaced
``cache.lift_hits``           counter    whole-lift results replayed (any tier)
``cache.lift_memo_hits``      counter    of those, served from memory
``cache.lift_misses``         counter    whole-lift lookups that came up cold
``cache.stores``              counter    entries written to a persistent store
``cache.corrupt``             counter    damaged cache entries detected+evicted
``cache.errors``              counter    cache I/O failures contained as misses
============================  =========  =====================================

Counters only move when observability is enabled (the instrumentation
sites are guarded); reading them is always safe.  Three exceptions move
unconditionally: ``trace.truncated_lines``, which
:func:`repro.obs.export.read_trace` bumps because a silently dropped
line should never go unrecorded; the ``server.*`` family, which
:mod:`repro.server` maintains because serving bookkeeping is not on the
per-step hot path and a ``/metrics`` scrape must see traffic whether or
not any lift ran with observability on; the ``synth.*`` family,
which :mod:`repro.synth` maintains for the same reason — synthesis runs
batch-scale, not step-scale, and its counters summarize each run; and
the ``cache.*`` family, which :mod:`repro.cache` maintains because
persistent-cache traffic is per-lift (not per-step) and corruption
events must be visible whether or not observability was on.

:func:`render_prometheus` renders a registry in the Prometheus text
exposition format (version 0.0.4) for scrape endpoints: counters gain
the conventional ``_total`` suffix, histograms become *cumulative*
``_bucket{le=...}`` series plus ``_sum``/``_count``, and the per-rule
``rule.<event>.<i>:<name>`` instruments become one metric per event
kind with ``rule``/``index`` labels.

Per-rule attribution (``rule.expansions.<i>:<name>`` and friends) is
pre-bound lazily by :func:`per_rule_counters`, one counter triple per
rule of a :class:`~repro.core.desugar.RuleList`, cached per rule list so
hot loops index a tuple instead of formatting metric names.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "snapshot",
    "reset",
    "merge_snapshots",
    "DEFAULT_DEPTH_BUCKETS",
    "LIFT_STEPS_TOTAL",
    "LIFT_STEPS_EMITTED",
    "LIFT_STEPS_SKIPPED",
    "LIFT_STEPS_DEDUPED",
    "LIFT_RUNS",
    "MATCH_ATTEMPTS",
    "MATCH_SUCCESSES",
    "RESUGAR_CACHE_HITS",
    "RESUGAR_CACHE_MISSES",
    "DESUGAR_CACHE_HITS",
    "DESUGAR_CACHE_MISSES",
    "DESUGAR_DEPTH",
    "REDEX_DECOMPOSE_DEPTH",
    "RESUGAR_CALLS",
    "UNEXPAND_ATTEMPTS",
    "RESUGAR_FAIL_PROPAGATIONS",
    "RESUGAR_TAG_BLOCKED",
    "TRACE_TRUNCATED_LINES",
    "MATCH_ATTEMPTS_PER_STEP",
    "per_rule_counters",
    "RuleCounters",
    "render_prometheus",
    "SERVER_TIME_BUCKETS",
    "SERVER_SESSIONS_STARTED",
    "SERVER_SESSIONS_REJECTED",
    "SERVER_SESSIONS_ERRORED",
    "SERVER_SESSIONS_CANCELLED",
    "SERVER_SESSIONS_ACTIVE",
    "SERVER_SESSIONS_PEAK",
    "SERVER_FRAMES_SENT",
    "SERVER_WRITES",
    "SERVER_REPLAYS",
    "SERVER_REQUESTS",
    "SERVER_TTFS_SECONDS",
    "SYNTH_EXAMPLES_HARVESTED",
    "SYNTH_CANDIDATES",
    "SYNTH_ACCEPTED",
    "SYNTH_REJECTED",
    "SYNTH_RULES_INSTALLED",
    "SYNTH_FUZZ_TRIALS",
    "SYNTH_FUZZ_CRASHES",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that can move both ways (e.g. a backlog size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> Number:
        return self.value


class Histogram:
    """Observations bucketed against fixed upper boundaries.

    ``boundaries`` are inclusive upper edges in strictly increasing
    order; an implicit ``+inf`` bucket catches the rest.  Bucket counts
    are *non-cumulative* (each observation lands in exactly one bucket).
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "sum")

    def __init__(self, name: str, boundaries: Sequence[Number]) -> None:
        edges = tuple(boundaries)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one boundary")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing: "
                f"{edges}"
            )
        self.name = name
        self.boundaries: Tuple[Number, ...] = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    def _reset(self) -> None:
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0

    def _snapshot(self) -> Dict[str, object]:
        buckets = {
            f"le_{edge:g}": n
            for edge, n in zip(self.boundaries, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}

    def _merge(self, snap: Dict[str, object]) -> None:
        """Add a histogram snapshot into this histogram (boundaries must
        match — bucketed observations cannot be re-binned)."""
        buckets = snap["buckets"]
        expected = [f"le_{edge:g}" for edge in self.boundaries] + ["le_inf"]
        if list(buckets) != expected:
            raise ValueError(
                f"histogram {self.name!r} snapshot has boundaries "
                f"{list(buckets)}, expected {expected}"
            )
        for i, key in enumerate(expected):
            self.bucket_counts[i] += buckets[key]
        self.count += snap["count"]
        self.sum += snap["sum"]


Instrument = Union[Counter, Gauge, Histogram]

DEFAULT_DEPTH_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class MetricsRegistry:
    """Interns instruments by name and snapshots them as one dict."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, kind: type, **kwargs) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = kind(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, boundaries: Optional[Sequence[Number]] = None
    ) -> Histogram:
        if name in self._instruments:
            return self._get(name, Histogram)
        return self._get(
            name,
            Histogram,
            boundaries=tuple(boundaries or DEFAULT_DEPTH_BUCKETS),
        )

    def instruments(self) -> Dict[str, Instrument]:
        """The live instruments, keyed by name (a copy; the instruments
        themselves are the registry's own)."""
        return dict(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """Freeze every instrument into a plain, JSON-safe dict, keyed
        by metric name (sorted for stable output)."""
        return {
            name: inst._snapshot()
            for name, inst in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        for inst in self._instruments.values():
            inst._reset()

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add a :meth:`snapshot`-shaped dict into this registry.

        Histogram entries (dicts) merge bucket-by-bucket into a
        histogram with the same boundaries (reconstructed from the
        bucket keys when the instrument does not exist yet).  Numeric
        entries add into the instrument registered under that name — a
        counter (created on demand) or an existing gauge.  Merging the
        per-worker snapshots of a :mod:`repro.parallel` batch therefore
        reproduces exactly the registry a single-process run of the
        same corpus would have produced.
        """
        for name, value in snapshot.items():
            if isinstance(value, dict):
                edges = tuple(
                    float(key[3:])
                    for key in value["buckets"]
                    if key != "le_inf"
                )
                self.histogram(name, boundaries=edges)._merge(value)
            else:
                existing = self._instruments.get(name)
                if isinstance(existing, Gauge):
                    existing.set(existing.value + value)
                else:
                    self.counter(name).inc(value)


REGISTRY = MetricsRegistry()


def snapshot() -> Dict[str, object]:
    """Snapshot the process-wide registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero the process-wide registry."""
    REGISTRY.reset()


def merge_snapshots(snapshots) -> Dict[str, object]:
    """Fold snapshot dicts into one aggregated snapshot (a fresh
    registry is used, so the process-wide one is untouched)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge(snap)
    return registry.snapshot()


# The pipeline's instruments, pre-bound so hot paths pay an attribute
# load rather than a dict lookup per increment.
LIFT_STEPS_TOTAL = REGISTRY.counter("lift.steps_total")
LIFT_STEPS_EMITTED = REGISTRY.counter("lift.steps_emitted")
LIFT_STEPS_SKIPPED = REGISTRY.counter("lift.steps_skipped")
LIFT_STEPS_DEDUPED = REGISTRY.counter("lift.steps_deduped")
LIFT_RUNS = REGISTRY.counter("lift.runs")
MATCH_ATTEMPTS = REGISTRY.counter("match.attempts")
MATCH_SUCCESSES = REGISTRY.counter("match.successes")
RESUGAR_CACHE_HITS = REGISTRY.counter("resugar.cache_hits")
RESUGAR_CACHE_MISSES = REGISTRY.counter("resugar.cache_misses")
DESUGAR_CACHE_HITS = REGISTRY.counter("desugar.cache_hits")
DESUGAR_CACHE_MISSES = REGISTRY.counter("desugar.cache_misses")
DESUGAR_DEPTH = REGISTRY.histogram("desugar.depth", DEFAULT_DEPTH_BUCKETS)
REDEX_DECOMPOSE_DEPTH = REGISTRY.histogram(
    "redex.decompose.depth", DEFAULT_DEPTH_BUCKETS
)
RESUGAR_CALLS = REGISTRY.counter("resugar.calls")
UNEXPAND_ATTEMPTS = REGISTRY.counter("resugar.unexpand_attempts")
RESUGAR_FAIL_PROPAGATIONS = REGISTRY.counter("resugar.fail_propagations")
RESUGAR_TAG_BLOCKED = REGISTRY.counter("resugar.tag_blocked")
TRACE_TRUNCATED_LINES = REGISTRY.counter("trace.truncated_lines")
MATCH_ATTEMPTS_PER_STEP = REGISTRY.histogram(
    "match.attempts_per_step", DEFAULT_DEPTH_BUCKETS
)

# Serving instruments (repro.server).  These move unconditionally — see
# the module docstring — and their latency buckets are in seconds,
# scaled for interactive time-to-first-step targets.
SERVER_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
SERVER_SESSIONS_STARTED = REGISTRY.counter("server.sessions_started")
SERVER_SESSIONS_REJECTED = REGISTRY.counter("server.sessions_rejected")
SERVER_SESSIONS_ERRORED = REGISTRY.counter("server.sessions_errored")
SERVER_SESSIONS_CANCELLED = REGISTRY.counter("server.sessions_cancelled")
SERVER_SESSIONS_ACTIVE = REGISTRY.gauge("server.sessions_active")
SERVER_SESSIONS_PEAK = REGISTRY.gauge("server.sessions_peak")
SERVER_FRAMES_SENT = REGISTRY.counter("server.frames_sent")
SERVER_WRITES = REGISTRY.counter("server.writes")
SERVER_REPLAYS = REGISTRY.counter("server.replays")
SERVER_REQUESTS = REGISTRY.counter("server.requests")
SYNTH_EXAMPLES_HARVESTED = REGISTRY.counter("synth.examples_harvested")
SYNTH_CANDIDATES = REGISTRY.counter("synth.candidates")
SYNTH_ACCEPTED = REGISTRY.counter("synth.accepted")
SYNTH_REJECTED = REGISTRY.counter("synth.rejected")
SYNTH_RULES_INSTALLED = REGISTRY.counter("synth.rules_installed")
SYNTH_FUZZ_TRIALS = REGISTRY.counter("synth.fuzz_trials")
SYNTH_FUZZ_CRASHES = REGISTRY.counter("synth.fuzz_crashes")

# Persistent-cache instruments (repro.cache).  Unconditional, like the
# synth family: cache traffic is per-lift, and a corrupt-entry eviction
# must be recorded whether or not observability was enabled.
CACHE_LIFT_HITS = REGISTRY.counter("cache.lift_hits")
CACHE_LIFT_MEMO_HITS = REGISTRY.counter("cache.lift_memo_hits")
CACHE_LIFT_MISSES = REGISTRY.counter("cache.lift_misses")
CACHE_STORES = REGISTRY.counter("cache.stores")
CACHE_CORRUPT = REGISTRY.counter("cache.corrupt")
CACHE_ERRORS = REGISTRY.counter("cache.errors")
SERVER_TTFS_SECONDS = REGISTRY.histogram(
    "server.ttfs_seconds", SERVER_TIME_BUCKETS
)


class RuleCounters:
    """The pre-bound per-rule instruments of one rule list.

    ``expansions[i]`` / ``unexpansions[i]`` / ``unexpand_failures[i]``
    are the counters of rule ``i``, named
    ``rule.<event>.<i>:<rule name>`` in :data:`REGISTRY` so snapshots
    (and cross-process merges, which key by name) attribute work to the
    sugar that caused it.
    """

    __slots__ = ("expansions", "unexpansions", "unexpand_failures")

    def __init__(self, names: Sequence[str]) -> None:
        self.expansions: Tuple[Counter, ...] = tuple(
            REGISTRY.counter(f"rule.expansions.{i}:{name}")
            for i, name in enumerate(names)
        )
        self.unexpansions: Tuple[Counter, ...] = tuple(
            REGISTRY.counter(f"rule.unexpansions.{i}:{name}")
            for i, name in enumerate(names)
        )
        self.unexpand_failures: Tuple[Counter, ...] = tuple(
            REGISTRY.counter(f"rule.unexpand_failures.{i}:{name}")
            for i, name in enumerate(names)
        )


# --- Prometheus text exposition -----------------------------------------

# rule.<event>.<index>:<rule name> — rendered as labels, not as a
# per-rule metric name, so dashboards can aggregate across rules.
_PER_RULE_NAME = re.compile(
    r"^rule\.(expansions|unexpansions|unexpand_failures)\.(\d+):(.*)$"
)
_PROM_UNSAFE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """``lift.steps_total`` -> ``repro_lift_steps_total``."""
    return "repro_" + _PROM_UNSAFE.sub("_", name)


def _prom_counter_name(name: str) -> str:
    """Counter names carry the conventional ``_total`` suffix."""
    prom = _prom_name(name)
    return prom if prom.endswith("_total") else prom + "_total"


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_number(value: Number) -> str:
    """Render a sample value (integers stay integral)."""
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _render_histogram(prom: str, hist: Histogram, out: List[str]) -> None:
    out.append(f"# TYPE {prom} histogram")
    cumulative = 0
    for edge, count in zip(hist.boundaries, hist.bucket_counts):
        cumulative += count
        out.append(f'{prom}_bucket{{le="{edge:g}"}} {cumulative}')
    out.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
    out.append(f"{prom}_sum {_prom_number(hist.sum)}")
    out.append(f"{prom}_count {hist.count}")


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render ``registry`` (default: the process-wide :data:`REGISTRY`)
    in the Prometheus text exposition format.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``,
    histograms the standard cumulative ``_bucket``/``_sum``/``_count``
    triple, and the per-rule counters one labelled series per rule:
    ``repro_rule_expansions_total{index="0",rule="Or"} 3``.  The result
    is what the server's ``/metrics`` endpoint serves.
    """
    registry = REGISTRY if registry is None else registry
    out: List[str] = []
    per_rule: Dict[str, List[Tuple[int, str, int]]] = {}
    for name, inst in sorted(registry.instruments().items()):
        match = _PER_RULE_NAME.match(name)
        if match is not None:
            event, index, rule = match.groups()
            per_rule.setdefault(event, []).append(
                (int(index), rule, inst.value)
            )
            continue
        if isinstance(inst, Counter):
            prom = _prom_counter_name(name)
            out.append(f"# TYPE {prom} counter")
            out.append(f"{prom} {_prom_number(inst.value)}")
        elif isinstance(inst, Gauge):
            prom = _prom_name(name)
            out.append(f"# TYPE {prom} gauge")
            out.append(f"{prom} {_prom_number(inst.value)}")
        else:
            _render_histogram(_prom_name(name), inst, out)
    for event in sorted(per_rule):
        prom = f"repro_rule_{event}_total"
        out.append(f"# TYPE {prom} counter")
        for index, rule, value in sorted(per_rule[event]):
            out.append(
                f'{prom}{{index="{index}",rule="{_prom_label_value(rule)}"}}'
                f" {_prom_number(value)}"
            )
    return "\n".join(out) + "\n"


_rule_counters: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def per_rule_counters(rules) -> RuleCounters:
    """The :class:`RuleCounters` for ``rules`` (a
    :class:`~repro.core.desugar.RuleList`), built once per rule list and
    cached on a weak key so dead rule lists do not pin instruments
    alive in the cache (the instruments themselves stay interned in
    :data:`REGISTRY`, as all instruments do)."""
    counters = _rule_counters.get(rules)
    if counters is None:
        counters = RuleCounters([rule.name for rule in rules.rules])
        _rule_counters[rules] = counters
    return counters
