"""Cold == warm, byte for byte, over the whole golden corpus.

The cache's correctness statement is metamorphic: attaching a cache —
empty or warm — must never change a single rendered byte of any lifted
trace.  This suite replays the entire golden-trace corpus (every bundled
sugar on both backends) through a shared cache directory under both
stepper modes (the refocusing stepper and its ``with_mode("naive")``),
then again warm, and compares the rendered output of every run against
the pinned golden trace.  A parallel batch with a shared
cache directory must agree too, at every worker count.
"""

from __future__ import annotations

import pytest

from repro.cache import LiftCache
from repro.confection import Confection

from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)

STEPPER_MODES = ("refocus", "naive")


def _run(path, cache, stepper_mode, budgeted=True):
    sugar, program, expected, stats, options = parse_golden(path)
    make_rules, make_stepper, parse, pretty = _configs()[sugar]
    stepper = make_stepper().with_mode(stepper_mode)
    confection = Confection(make_rules(), stepper, cache=cache)
    result = confection.lift(
        parse(program), **(lift_kwargs(options) if budgeted else {})
    )
    rendered = [pretty(t) for t in result.surface_sequence]
    return rendered, expected, stats, options, result


def _lift_entries(root):
    return len(list((root / "lift").rglob("*.bin")))


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_cold_equals_warm_across_engine_grid(path, tmp_path):
    """One shared cache directory, two engine configurations, two
    passes each: every pass must reproduce the pinned golden trace
    exactly, and every warm pass must come from the cache.  The cold
    pass always steps.  Only complete lifts are recorded, so a cold pass
    cut by its budget stores nothing, and its complete lift is primed
    before the warm pass, which is then a cut replay."""
    for stepper_mode in STEPPER_MODES:
        entries = _lift_entries(tmp_path)
        cold_cache = LiftCache(tmp_path)
        cold, expected, stats, options, cold_result = _run(
            path, cold_cache, stepper_mode
        )
        assert cold == expected
        assert cold_result.truncated == bool(stats.get("truncated", 0))
        assert cold_cache.lift_misses == 1
        if cold_result.truncated:
            assert _lift_entries(tmp_path) == entries
            _run(path, LiftCache(tmp_path), stepper_mode, budgeted=False)
        assert _lift_entries(tmp_path) == entries + 1

        warm_cache = LiftCache(tmp_path)
        warm, _, _, _, warm_result = _run(path, warm_cache, stepper_mode)
        assert warm == cold
        assert warm_result.core_step_count == cold_result.core_step_count
        assert warm_result.skipped_count == cold_result.skipped_count
        assert warm_result.truncated == cold_result.truncated

        # Wall-clock budgets included: a complete recording answers
        # any budget, so every warm pass is a hit.
        assert warm_cache.lift_hits == 1, (
            f"{path.stem}: warm run missed the cache "
            f"(stepper={stepper_mode})"
        )
        assert warm_cache.store.counters["corrupt"] == 0


def test_engine_grid_entries_do_not_collide(tmp_path):
    """The two grid configurations of one program land in two distinct
    whole-lift entries: a hit under one configuration can never replay a
    stream recorded under another."""
    path = GOLDEN_FILES[0]
    for stepper_mode in STEPPER_MODES:
        _run(path, LiftCache(tmp_path), stepper_mode)
    entries = list((tmp_path / "lift").rglob("*.bin"))
    assert len(entries) == len(STEPPER_MODES)


class TestBatchWarmEquivalence:
    """lift-batch through a shared cache directory: jobs=1 vs jobs=4,
    cold vs warm — all four byte-identical."""

    def _corpus(self):
        from repro.engine.registry import get_backend

        backend = get_backend("lambda")
        programs = [
            "(or (not #t) (not #f))",
            "(and #t (or #f #t))",
            "(let ((x 1) (y 2)) (+ x y))",
            "(cond ((not #t) 1) (#t 2))",
            "(+ 1 (* 2 3))",
            "(if (not #f) (or #t #f) #f)",
        ]
        spec = (backend.make_rules(None), backend.make_stepper())
        return backend, spec, [backend.parse(p) for p in programs]

    def _render(self, outcomes):
        return [list(o.rendered) for o in outcomes]

    def test_jobs1_vs_jobs4_shared_cache(self, tmp_path):
        from repro.parallel import lift_corpus

        backend, spec, corpus = self._corpus()
        runs = {}
        for label, jobs in (("seq", 1), ("par", 4)):
            for phase in ("cold", "warm"):
                outcomes = lift_corpus(
                    spec,
                    corpus,
                    jobs=jobs,
                    payload="rendered",
                    pretty=backend.pretty,
                    cache_dir=tmp_path / label,
                )
                runs[(label, phase)] = self._render(outcomes)
        baseline = runs[("seq", "cold")]
        assert all(r == baseline for r in runs.values())

    def test_parallel_workers_share_one_store(self, tmp_path):
        """jobs=4 warm pass over a directory warmed by jobs=1: every job
        is served from the store the sequential pass populated."""
        from repro.parallel import lift_corpus

        backend, spec, corpus = self._corpus()
        cold = lift_corpus(
            spec, corpus, jobs=1, payload="rendered",
            pretty=backend.pretty, cache_dir=tmp_path,
        )
        stores_after_cold = len(list((tmp_path / "lift").rglob("*.bin")))
        assert stores_after_cold == len(corpus)
        warm = lift_corpus(
            spec, corpus, jobs=4, payload="rendered",
            pretty=backend.pretty, cache_dir=tmp_path,
        )
        assert self._render(warm) == self._render(cold)
        # No new entries: every job hit.
        assert (
            len(list((tmp_path / "lift").rglob("*.bin")))
            == stores_after_cold
        )
