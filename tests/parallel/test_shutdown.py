"""WarmPool reuse and graceful shutdown.

Pins the serving-layer contract on the batch engine: a warm pool is
reusable across batches (workers warmed once), abandoning a batch
mid-stream cancels its queued tail while the pool stays warm, shutdown
reaps every worker process, and a SIGINT in ``lift-batch`` exits 130
with the partial results already streamed.
"""

import multiprocessing
import time

from repro.engine.events import BatchLifted, JobError
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.parallel import LiftJob, WarmPool, lift_corpus_stream
from repro.sugars.scheme_sugars import make_scheme_rules

PROGRAMS = ["(or #f #t)", "(not #t)", "(or (not #t) (not #f))", "(not #f)"]


def _engine():
    return (make_scheme_rules(), make_stepper())


def _jobs(programs=PROGRAMS):
    return [
        LiftJob(parse_program(p), name=f"job{i}")
        for i, p in enumerate(programs)
    ]


def _steps(outcome):
    assert isinstance(outcome, BatchLifted)
    return list(outcome.rendered)


def _wait_for_no_children(timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(
        f"orphaned workers: {multiprocessing.active_children()}"
    )


class TestWarmPoolReuse:
    def test_pool_survives_across_batches(self):
        with WarmPool(
            _engine(), jobs=2, payload="rendered", pretty=pretty
        ) as pool:
            first = [_steps(o) for o in pool.run(_jobs())]
            assert pool.warm
            executor = pool._executor
            second = [_steps(o) for o in pool.run(_jobs())]
            # Same outcomes, same executor — no per-batch teardown.
            assert second == first
            assert pool._executor is executor
        _wait_for_no_children()

    def test_jobs_1_path_caches_resolved_engine(self):
        pool = WarmPool(_engine(), jobs=1, payload="rendered", pretty=pretty)
        first = [_steps(o) for o in pool.run(_jobs())]
        assert pool.warm
        assert [_steps(o) for o in pool.run(_jobs())] == first
        assert first[1] == ["(not #t)", "#f"]

    def test_lift_corpus_stream_routes_through_given_pool(self):
        with WarmPool(
            _engine(), jobs=2, payload="rendered", pretty=pretty
        ) as pool:
            direct = [_steps(o) for o in pool.run(_jobs())]
            # The pool's own config governs; engine/jobs args are the
            # ephemeral-path fallback and must be ignored here.
            routed = [
                _steps(o)
                for o in lift_corpus_stream(
                    None, _jobs(), jobs=99, pool=pool
                )
            ]
            assert routed == direct
            assert pool.warm

    def test_abandoned_run_leaves_pool_warm(self):
        with WarmPool(
            _engine(), jobs=2, payload="rendered", pretty=pretty
        ) as pool:
            stream = pool.run(_jobs())
            first = next(stream)
            assert isinstance(first, (BatchLifted, JobError))
            stream.close()  # abandon mid-batch: cancels the queued tail
            # The pool is still warm and a fresh run works end to end.
            outcomes = list(pool.run(_jobs()))
            assert len(outcomes) == len(PROGRAMS)
        _wait_for_no_children()


class TestGracefulShutdown:
    def test_shutdown_reaps_workers(self):
        pool = WarmPool(_engine(), jobs=2, payload="rendered", pretty=pretty)
        list(pool.run(_jobs()))
        assert multiprocessing.active_children()
        pool.shutdown()
        _wait_for_no_children()
        assert not pool.warm

    def test_ephemeral_stream_reaps_workers_on_early_exit(self):
        stream = lift_corpus_stream(
            _engine(),
            _jobs(PROGRAMS * 4),
            jobs=2,
            payload="rendered",
            pretty=pretty,
        )
        next(stream)
        stream.close()
        _wait_for_no_children()


class TestCliInterrupt:
    def _patch_stream(self, monkeypatch, outcomes_then_interrupt):
        import repro.parallel as parallel

        def fake_stream(engine, corpus, **kwargs):
            yield from outcomes_then_interrupt[:-1]
            raise outcomes_then_interrupt[-1]

        monkeypatch.setattr(parallel, "lift_corpus_stream", fake_stream)

    def test_sigint_exits_130_with_partial_results(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        source = tmp_path / "corpus.scm"
        source.write_text("(or #f #t)\n(not #t)\n")
        self._patch_stream(
            monkeypatch,
            [
                BatchLifted(job_index=0, rendered=("(or #f #t)", "#t")),
                KeyboardInterrupt(),
            ],
        )
        code = main(
            ["lift-batch", "--lang", "lambda", "--per-line", str(source)]
        )
        out = capsys.readouterr().out
        assert code == 130
        # The partial results already streamed stay on stdout.
        assert "== job 0: " in out
        assert "#t" in out

    def test_sigint_summary_reports_partial_count(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        source = tmp_path / "corpus.scm"
        source.write_text("(or #f #t)\n(not #t)\n(not #f)\n")
        self._patch_stream(
            monkeypatch,
            [
                BatchLifted(job_index=0, rendered=("#t",)),
                BatchLifted(job_index=1, rendered=("#f",)),
                KeyboardInterrupt(),
            ],
        )
        code = main(
            ["lift-batch", "--lang", "lambda", "--per-line", str(source)]
        )
        captured = capsys.readouterr()
        assert code == 130
        assert "[2/3 jobs, 0 failed" in captured.err
        assert "interrupted" in captured.err

    def test_uninterrupted_batch_keeps_exit_semantics(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "corpus.scm"
        source.write_text("(or #f #t)\n")
        code = main(
            [
                "lift-batch",
                "--lang",
                "lambda",
                "--per-line",
                "--jobs",
                "1",
                str(source),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[1/1 jobs, 0 failed, jobs=1]" in captured.err


class TestThreadSafety:
    """A WarmPool is shared across server request threads: lazy warm-up
    must not double-build executors, and the jobs=1 in-process path must
    not interleave concurrent runs on its one mutable stepper."""

    def test_racy_first_use_builds_one_executor(self, monkeypatch):
        import threading

        from repro.parallel import pool as pool_module

        created = []

        class FakeExecutor:
            def __init__(self, **kwargs):
                created.append(self)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", FakeExecutor
        )
        pool = WarmPool(_engine(), jobs=2, payload="rendered", pretty=pretty)
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            pool._ensure_executor()

        threads = [threading.Thread(target=race) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(created) == 1
        pool.shutdown()

    def test_jobs1_concurrent_runs_stay_deterministic(self):
        import threading

        pool = WarmPool(_engine(), jobs=1, payload="rendered", pretty=pretty)
        expected = [_steps(o) for o in pool.run(_jobs())]
        results = [None] * 6

        def run(slot):
            results[slot] = [_steps(o) for o in pool.run(_jobs())]

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 6
