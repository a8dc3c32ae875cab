"""The process-pool batch-lift engine.

:func:`lift_corpus_stream` shards a list of :class:`~repro.parallel.jobs.LiftJob`
across ``jobs`` worker processes and yields one
:class:`~repro.engine.events.BatchLifted` or
:class:`~repro.engine.events.JobError` per job, **in submission order**,
regardless of which worker finishes first.  :func:`lift_corpus` is the
eager list of the same.

Worker protocol
---------------

Each worker is warmed exactly once (pool initializer): the engine spec —
a :class:`~repro.confection.Confection`, a ``(rules, stepper)`` pair, or
a zero-argument factory returning either — is resolved into a private
Confection whose rule tables live for the worker's whole life.  The
warm workers belong to a :class:`WarmPool`, which is *reusable*: a
long-lived service creates one per engine configuration and runs many
batches through it, paying the worker warmup once instead of once per
batch (:func:`lift_corpus_stream` accepts one via ``pool=``; without it
an ephemeral pool is built and torn down around the call, the
historical behaviour).  Jobs
cross the boundary as small pickled :class:`LiftJob` records, and
each job runs the ordinary :meth:`Confection.lift
<repro.confection.Confection.lift>` (that is, the streaming engine's
:func:`~repro.engine.stream.lift_stream` under the job's config).  The
per-run :class:`~repro.core.incremental.ResugarCache` is created fresh
per job, exactly as the sequential path does, so per-job results —
surface sequences, step bookkeeping, and cache statistics — are
bit-for-bit what a sequential loop computes; the worker's *intern table*
stays warm across its jobs, which is pure sharing and never observable
in results.  Terms re-intern as they are unpickled
(:mod:`repro.core.intern`), so programs arriving in a worker and results
arriving back in the parent keep identity-fast equality.

Determinism
-----------

Job outcomes are buffered per-future and yielded strictly in submission
order, and each job's lift is a deterministic function of (rules,
program, options).  The ``tests/parallel`` determinism suite pins this:
batch output at ``jobs=1,2,4`` is byte-identical to the sequential
:func:`repro.core.lift.lift_evaluation` loop, including per-step event
ordering.

Fault isolation
---------------

A job whose stepper raises, whose emulation check fails, or whose
budget runs out under ``on_budget="raise"`` yields a structured
:class:`JobError` carrying the original exception type, message, and
worker-side traceback — the batch continues.  A *worker process* dying
outright (hard crash) surfaces as a ``JobError`` for every job that was
in flight on the broken pool rather than an exception in the consumer.

Graceful shutdown
-----------------

Abandoning a batch early — the consumer ``close()``-ing the stream, a
``KeyboardInterrupt`` (SIGINT) landing mid-batch, or any exception
escaping the consumer loop — never orphans workers: the queued-but-
unstarted tail of the in-flight window is cancelled, the jobs already
running drain to completion, and the worker processes are joined before
control returns.  Outcomes yielded before the interruption remain valid
partial results (the ``lift-batch`` CLI prints them, reports the batch
as interrupted, and exits 130 on SIGINT).

Metrics and traces
------------------

With ``collect_metrics=True`` each job runs under a fresh
:class:`repro.obs.Observability` scope and its event carries a per-job
metrics snapshot; :func:`aggregate_metrics` merges them into one
snapshot equal to what a single-process run of the corpus would have
recorded (see :meth:`repro.obs.metrics.MetricsRegistry.merge`).

With ``collect_spans=True`` span trees travel the same road: every job
runs with a process-level :class:`repro.obs.TraceContext` carrying the
batch's shared trace id plus this job's submission index and worker
pid, its spans are gathered by a per-job
:class:`repro.obs.SpanCollector`, and the picklable record tuples ride
back on the outcome events (``BatchLifted.spans`` / partial
``JobError.spans``).  :func:`aggregate_trace` merges them into one
coherent multi-process trace — structurally identical, modulo
ids/timings/attribution, to what ``jobs=1`` records, because both
paths run the very same :func:`_execute_job`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback as _traceback
import uuid
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.engine.events import BatchLifted, JobError
from repro.lang.textmemo import memo_printer
from repro.parallel.jobs import LiftJob, as_job

__all__ = [
    "PAYLOADS",
    "WarmPool",
    "lift_corpus",
    "lift_corpus_stream",
    "aggregate_metrics",
    "aggregate_trace",
    "default_worker_count",
]

PAYLOADS = ("result", "rendered", "both")

BatchOutcome = Union[BatchLifted, JobError]

# Per-worker engine state, populated once by the pool initializer.
_WORKER_ENGINE = None
_WORKER_PRETTY: Optional[Callable] = None
_WORKER_PAYLOAD = "result"
_WORKER_METRICS = False
_WORKER_SPANS = False

# Largest job batch one chunked submission will carry (see
# :func:`_auto_chunk`); chosen so a chunk's pickled results stay small.
MAX_AUTO_CHUNK = 8


def _auto_chunk(n_jobs: int, workers: int) -> int:
    """Jobs per pool submission when the caller did not choose.

    Chunking amortizes per-submission pickling and future overhead,
    which dominates when jobs are small and plentiful; but oversized
    chunks serialize work that could balance across workers.  The
    heuristic only batches once the corpus is several windows deep
    (``n_jobs // (workers * 4)``), so modest corpora keep today's
    one-job-per-submission behaviour, and caps at
    :data:`MAX_AUTO_CHUNK`.
    """
    return max(1, min(MAX_AUTO_CHUNK, n_jobs // (workers * 4)))


def _attach_cache(engine, cache_dir):
    """Open this process's :class:`~repro.cache.LiftCache` against the
    shared store directory.  Live cache objects never cross the process
    boundary — only the path does, so every worker re-opens its own
    handle and the on-disk store is the shared state."""
    if cache_dir is not None:
        from repro.cache import LiftCache

        engine.cache = LiftCache(cache_dir)
    return engine


def default_worker_count() -> int:
    """The worker count used when ``jobs`` is not given: one per CPU."""
    return max(1, os.cpu_count() or 1)


def _default_start_method() -> str:
    """``fork`` where available (cheap warmup: workers inherit already-
    built rule tables and the warm intern table), ``spawn`` elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _resolve_engine(engine):
    """Resolve an engine spec into a private Confection for one process.

    Accepted specs: a ``Confection`` (its rules and stepper are reused,
    but not its observability configuration — workers manage their own),
    a ``(rules, stepper)`` pair, or a zero-argument factory returning
    either.  The result is always a fresh Confection so no parent-side
    state rides along.
    """
    from repro.confection import Confection

    if isinstance(engine, Confection):
        return Confection(engine.rules, engine.stepper)
    if isinstance(engine, tuple) and len(engine) == 2:
        rules, stepper = engine
        return Confection(rules, stepper)
    if callable(engine):
        return _resolve_engine(engine())
    raise TypeError(
        "engine must be a Confection, a (rules, stepper) pair, or a "
        f"zero-argument factory returning one; got {type(engine).__name__}"
    )


def _execute_job(
    engine,
    index: int,
    job: LiftJob,
    payload: str,
    pretty: Optional[Callable],
    collect_metrics: bool,
    collect_spans: bool = False,
    trace_id: Optional[str] = None,
) -> BatchOutcome:
    """Run one job to an outcome event.  Never raises for job-level
    failures — that is the fault-isolation contract (only interpreter
    teardown exceptions like ``KeyboardInterrupt`` propagate).

    This is the one job path for every worker count: the poolless
    ``jobs=1`` loop and every pool worker call exactly this function,
    which is what makes batch traces structurally identical across
    worker counts.
    """
    worker = os.getpid()
    collector = None
    try:
        if collect_metrics or collect_spans:
            from repro.obs import (
                Observability,
                SpanCollector,
                TraceContext,
                set_trace_context,
            )

            sinks = []
            previous_context = None
            if collect_spans:
                collector = SpanCollector()
                sinks.append(collector)
                previous_context = set_trace_context(
                    TraceContext(trace_id, job=index, worker=worker)
                )
            obs = Observability(sinks=sinks, reset_metrics=collect_metrics)
            try:
                with obs:
                    result = engine.lift(job.program, config=job.config)
            finally:
                if collect_spans:
                    set_trace_context(previous_context)
            metrics = obs.snapshot() if collect_metrics else None
        else:
            result = engine.lift(job.program, config=job.config)
            metrics = None
        rendered = None
        if payload in ("rendered", "both"):
            rendered = tuple(map(memo_printer(pretty), result.surface_sequence))
        return BatchLifted(
            job_index=index,
            result=None if payload == "rendered" else result,
            rendered=rendered,
            worker=worker,
            metrics=metrics,
            spans=tuple(collector.records) if collector is not None else None,
        )
    except Exception as exc:
        return JobError(
            job_index=index,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=_traceback.format_exc(),
            worker=worker,
            spans=tuple(collector.records) if collector is not None else None,
        )


def _warm_worker(
    engine, payload, pretty, collect_metrics, collect_spans,
    cache_dir=None,
) -> None:
    """Pool initializer: build this worker's engine once (rule tables,
    stepper, and — given ``cache_dir`` — a persistent lift cache over
    the shared store) and stash the pool configuration in module
    globals.  The batch trace id is *not* baked here — a warm pool
    outlives any one batch, so it rides along per job
    (:func:`_pool_run`)."""
    global _WORKER_ENGINE, _WORKER_PRETTY, _WORKER_PAYLOAD, _WORKER_METRICS
    global _WORKER_SPANS
    _WORKER_ENGINE = _attach_cache(_resolve_engine(engine), cache_dir)
    _WORKER_PRETTY = pretty
    _WORKER_PAYLOAD = payload
    _WORKER_METRICS = collect_metrics
    _WORKER_SPANS = collect_spans


def _pool_run(
    index: int, job: LiftJob, trace_id: Optional[str] = None
) -> BatchOutcome:
    """Worker-side job entry: delegate to the shared executor against
    the warmed engine."""
    return _execute_job(
        _WORKER_ENGINE, index, job, _WORKER_PAYLOAD, _WORKER_PRETTY,
        _WORKER_METRICS, _WORKER_SPANS, trace_id,
    )


def _pool_run_chunk(
    start_index: int,
    jobs_chunk: Sequence[LiftJob],
    trace_id: Optional[str] = None,
) -> tuple:
    """Worker-side chunk entry: run a contiguous batch of jobs in one
    submission (one pickle round-trip for N jobs), preserving the
    per-job indices and the per-job fault-isolation contract."""
    return tuple(
        _execute_job(
            _WORKER_ENGINE, start_index + offset, job, _WORKER_PAYLOAD,
            _WORKER_PRETTY, _WORKER_METRICS, _WORKER_SPANS, trace_id,
        )
        for offset, job in enumerate(jobs_chunk)
    )


def _check_options(payload: str, pretty: Optional[Callable]) -> None:
    if payload not in PAYLOADS:
        raise ValueError(f"payload must be one of {PAYLOADS}, got {payload!r}")
    if payload != "result" and pretty is None:
        raise ValueError(f"payload={payload!r} requires a pretty function")


class WarmPool:
    """A reusable batch-lift engine: warm workers shared across batches.

    The pool owns one :class:`~concurrent.futures.ProcessPoolExecutor`
    (built lazily on the first batch) whose workers were warmed once
    with ``engine`` and this pool's payload configuration; every
    subsequent :meth:`run` reuses them, so a long-lived service pays
    rule-table construction and interpreter start-up once, not once per
    request.  ``jobs=1`` is the poolless in-process path, with the
    resolved engine likewise cached across runs.

    :meth:`run` streams one outcome per job in submission order with
    the same windowing, determinism, and fault-isolation contract as
    :func:`lift_corpus_stream` (which is now a thin ephemeral-pool
    wrapper over this class).  Abandoning a run mid-stream cancels the
    queued tail of its window; the pool itself stays warm for the next
    batch.  :meth:`shutdown` drains in-flight jobs and joins the
    workers; the pool is also a context manager doing exactly that.

    The pool is safe to share across threads (the server runs batch
    producers on executor threads): lazy warm-up is locked, so a racy
    first use cannot build two executors, and ``jobs=1`` runs are
    serialized — the resolved in-process engine holds one *mutable*
    stepper, and interleaving two batches on it would corrupt both.
    Serialization is exactly the one-worker semantics ``jobs=1``
    promises; concurrent batches queue just as they would on a
    one-worker process pool.

    ``cache_dir`` gives every worker (and the ``jobs=1`` in-process
    engine) a persistent :class:`~repro.cache.LiftCache` over one
    shared store directory, and ``chunk`` fixes the jobs-per-submission
    batch size (default: :func:`_auto_chunk`); see
    :func:`lift_corpus_stream` for both contracts.
    """

    def __init__(
        self,
        engine,
        *,
        jobs: Optional[int] = None,
        payload: str = "result",
        pretty: Optional[Callable] = None,
        collect_metrics: bool = False,
        collect_spans: bool = False,
        mp_context: Optional[str] = None,
        cache_dir=None,
        chunk: Optional[int] = None,
    ) -> None:
        _check_options(payload, pretty)
        n_workers = default_worker_count() if jobs is None else jobs
        if n_workers < 1:
            raise ValueError(f"jobs must be >= 1, got {n_workers!r}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk!r}")
        self.engine = engine
        self.jobs = n_workers
        self.payload = payload
        self.pretty = pretty
        self.collect_metrics = collect_metrics
        self.collect_spans = collect_spans
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.chunk = chunk
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._local = None  # resolved engine for the jobs=1 path
        self._init_lock = threading.Lock()  # lazy warm-up / shutdown
        self._run_lock = threading.Lock()  # serializes jobs=1 runs

    @property
    def warm(self) -> bool:
        """Has a batch already built (and warmed) the executor?"""
        return self._executor is not None or self._local is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._init_lock:
            if self._executor is None:
                context = multiprocessing.get_context(
                    self._mp_context or _default_start_method()
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=context,
                    initializer=_warm_worker,
                    initargs=(
                        self.engine, self.payload, self.pretty,
                        self.collect_metrics, self.collect_spans,
                        self.cache_dir,
                    ),
                )
            return self._executor

    def run(
        self, corpus: Sequence, *, window: Optional[int] = None
    ) -> Iterator[BatchOutcome]:
        """Lift ``corpus``, yielding outcomes in submission order (the
        :func:`lift_corpus_stream` contract).  Each run gets its own
        batch trace id when the pool collects spans."""
        jobs_list: List[LiftJob] = [as_job(entry) for entry in corpus]
        trace_id = uuid.uuid4().hex[:16] if self.collect_spans else None

        if self.jobs == 1:
            # The in-process engine's stepper is mutable; concurrent
            # runs take turns on it (released on exhaustion *and* when
            # an abandoned generator is closed).
            with self._run_lock:
                if self._local is None:
                    self._local = _attach_cache(
                        _resolve_engine(self.engine), self.cache_dir
                    )
                for index, job in enumerate(jobs_list):
                    yield _execute_job(
                        self._local, index, job, self.payload, self.pretty,
                        self.collect_metrics, self.collect_spans, trace_id,
                    )
            return

        if window is None:
            window = 4 * self.jobs
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")

        pool = self._ensure_executor()
        chunk = (
            self.chunk
            if self.chunk is not None
            else _auto_chunk(len(jobs_list), self.jobs)
        )
        pending: deque = deque()
        upcoming = iter(
            (start, jobs_list[start : start + chunk])
            for start in range(0, len(jobs_list), chunk)
        )

        def submit_next() -> bool:
            try:
                start, chunk_jobs = next(upcoming)
            except StopIteration:
                return False
            if len(chunk_jobs) == 1:
                future = pool.submit(_pool_run, start, chunk_jobs[0], trace_id)
            else:
                future = pool.submit(
                    _pool_run_chunk, start, chunk_jobs, trace_id
                )
            pending.append((start, len(chunk_jobs), future))
            return True

        try:
            for _ in range(window):
                if not submit_next():
                    break
            while pending:
                start, count, future = pending.popleft()
                submit_next()
                try:
                    result = future.result()
                    outcomes = (result,) if count == 1 else result
                except Exception as exc:
                    # The job function never raises; reaching here means
                    # the pool itself broke (a worker died, or a payload
                    # failed to pickle).  Contain it as a failure for
                    # every job the submission carried.
                    tb = _traceback.format_exc()
                    outcomes = tuple(
                        JobError(
                            job_index=start + offset,
                            error_type=type(exc).__name__,
                            error_message=str(exc),
                            traceback=tb,
                            worker=None,
                        )
                        for offset in range(count)
                    )
                yield from outcomes
        finally:
            # Early exit — the consumer closed the stream, SIGINT landed
            # in future.result(), or an exception escaped the loop.
            # Cancel the queued-but-unstarted tail so the batch stops at
            # the in-flight window instead of running the whole corpus.
            while pending:
                *_, future = pending.popleft()
                future.cancel()

    def shutdown(
        self, wait: bool = True, cancel_pending: bool = True
    ) -> None:
        """Stop the pool: cancel queued jobs (``cancel_pending``), let
        in-flight jobs drain, and join the worker processes.  The pool
        can warm up again afterwards (a fresh executor on next use)."""
        with self._init_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True, cancel_pending=True)


def lift_corpus_stream(
    engine,
    corpus: Sequence,
    *,
    jobs: Optional[int] = None,
    payload: str = "result",
    pretty: Optional[Callable] = None,
    collect_metrics: bool = False,
    collect_spans: bool = False,
    mp_context: Optional[str] = None,
    window: Optional[int] = None,
    pool: Optional[WarmPool] = None,
    cache_dir=None,
    chunk: Optional[int] = None,
) -> Iterator[BatchOutcome]:
    """Lift every program in ``corpus``, streaming outcomes back in
    submission order.

    ``engine`` is an engine spec (see :func:`_resolve_engine`'s
    docstring: a Confection, a ``(rules, stepper)`` pair, or a factory).
    ``corpus`` entries are :class:`LiftJob`, terms, or DSL source
    strings.  ``jobs`` is the worker-process count (default: CPU
    count); ``jobs=1`` runs in-process with no pool, bit-identical
    semantics.  ``payload`` selects what a :class:`BatchLifted` carries:
    the full ``result`` (default), just the ``rendered`` surface lines
    (smallest cross-process payload; requires ``pretty``), or ``both``.
    ``collect_spans`` additionally records each job's span tree under a
    batch-wide trace id (see the module docstring); merge the outcomes'
    ``spans`` with :func:`aggregate_trace`.  ``window`` bounds how many
    jobs are in flight at once (default ``4 * jobs``), so a long corpus
    never piles up in the call queue.

    ``cache_dir`` points every worker at one shared persistent
    :class:`~repro.cache.LiftCache` directory (only the path crosses
    the process boundary; each worker opens its own handle against the
    shared store).  ``chunk`` batches that many contiguous jobs per
    pool submission to amortize pickling and future overhead; the
    default is an automatic heuristic (:func:`_auto_chunk`) that keeps
    one-job submissions until the corpus is several windows deep.
    Chunking is invisible in results: outcomes still arrive one per
    job, in submission order, with per-job fault isolation.

    ``pool`` reuses an already-warm :class:`WarmPool` instead of
    building an ephemeral one: the pool's own engine and payload
    configuration govern the batch (``engine``/``jobs``/``payload``/
    ``pretty``/``collect_*``/``mp_context`` are ignored), and the pool
    stays warm afterwards.  Without it, workers are torn down — after
    draining the in-flight window and joining them, even on an early
    exit (see *Graceful shutdown* in the module docstring) — before the
    generator finishes.
    """
    if pool is not None:
        yield from pool.run(corpus, window=window)
        return
    owned = WarmPool(
        engine,
        jobs=jobs,
        payload=payload,
        pretty=pretty,
        collect_metrics=collect_metrics,
        collect_spans=collect_spans,
        mp_context=mp_context,
        cache_dir=cache_dir,
        chunk=chunk,
    )
    try:
        yield from owned.run(corpus, window=window)
    finally:
        owned.shutdown(wait=True, cancel_pending=True)


def lift_corpus(engine, corpus: Sequence, **options) -> List[BatchOutcome]:
    """Eagerly lift ``corpus`` and return outcomes in submission order
    (the list form of :func:`lift_corpus_stream`; same options)."""
    return list(lift_corpus_stream(engine, corpus, **options))


def aggregate_metrics(outcomes) -> dict:
    """Merge the per-job metrics snapshots of a batch into one snapshot
    (equal to a single-process run's registry for the same corpus)."""
    from repro.obs.metrics import merge_snapshots

    return merge_snapshots(
        outcome.metrics
        for outcome in outcomes
        if isinstance(outcome, BatchLifted) and outcome.metrics is not None
    )


def aggregate_trace(outcomes) -> List[dict]:
    """Merge the per-job span records of a batch (collected with
    ``collect_spans=True``) into one coherent trace, in job-submission
    order — failed jobs contribute their partial spans too.  The result
    is a list of JSONL-schema record dicts, ready for
    :func:`repro.obs.export.write_trace` or
    :func:`repro.obs.export.build_tree`."""
    from repro.obs.export import merge_traces

    return merge_traces(
        outcome.spans
        for outcome in outcomes
        if getattr(outcome, "spans", None) is not None
    )
