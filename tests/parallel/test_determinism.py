"""Batch-lift determinism over the golden corpus.

The parallel engine's headline guarantee: lifting the whole golden
corpus at ``jobs=1`` (in-process), ``jobs=2``, and ``jobs=4`` (process
pools) produces output byte-identical to the sequential
:func:`repro.core.lift.lift_evaluation` path — the rendered surface
sequence, the per-step event ordering (every
:class:`~repro.core.lift.LiftedStep`, emitted/deduped/skipped flags
included), truncation status, and even the per-run cache statistics —
and to the paper's loop of :mod:`tests.oracle` (the ``naive`` cases),
all but the statistics, which only the engine keeps.  Worker scheduling
must be completely invisible.
"""

from __future__ import annotations

import pytest

from repro.core.lift import lift_evaluation
from repro.parallel import BatchLifted, LiftJob, lift_corpus

from tests import oracle
from tests.test_golden_traces import (
    GOLDEN_FILES,
    _configs,
    lift_kwargs,
    parse_golden,
)


def _grouped_corpus():
    """The golden corpus grouped by sugar configuration: one batch per
    rule table, mirroring how a worker is warmed once per pool."""
    groups = {}
    for path in GOLDEN_FILES:
        sugar, program, trace, stats, options = parse_golden(path)
        groups.setdefault(sugar, []).append(
            (path.stem, program, trace, lift_kwargs(options))
        )
    return groups


GROUPS = _grouped_corpus()


@pytest.mark.parametrize(
    "incremental", [True, False], ids=["incremental", "naive"]
)
@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_batch_lift_matches_sequential(n_jobs, incremental):
    configs = _configs()
    for sugar, entries in GROUPS.items():
        make_rules, make_stepper, parse, pretty = configs[sugar]
        rules = make_rules()
        stepper = make_stepper()
        jobs = [
            LiftJob(parse(program), name=name, **kw)
            for name, program, _trace, kw in entries
        ]
        sequential_lift = lift_evaluation if incremental else oracle.lift
        sequential = [
            sequential_lift(rules, stepper, parse(program), **kw)
            for _name, program, _trace, kw in entries
        ]

        outcomes = lift_corpus((rules, stepper), jobs, jobs=n_jobs)

        assert [o.job_index for o in outcomes] == list(range(len(jobs)))
        for (name, _program, trace, _kw), outcome, expected in zip(
            entries, outcomes, sequential
        ):
            assert isinstance(outcome, BatchLifted), (sugar, name, outcome)
            got = outcome.result
            # Rendered output is byte-identical to the sequential lift
            # (and therefore to the golden trace file itself).
            rendered = [pretty(t) for t in got.surface_sequence]
            assert rendered == [
                pretty(t) for t in expected.surface_sequence
            ], (sugar, name)
            assert rendered == trace, (sugar, name)
            # Event ordering: the full per-step record matches, flag
            # for flag, term for term.
            assert got.steps == expected.steps, (sugar, name)
            assert got.truncated == expected.truncated, (sugar, name)
            # Fresh per-job caches make even the work counters
            # deterministic.
            if incremental:
                assert (
                    got.cache_stats.as_dict()
                    == expected.cache_stats.as_dict()
                ), (sugar, name)
            else:
                assert expected.cache_stats is None


def test_stream_order_is_submission_order_with_skewed_durations():
    """Jobs with wildly different run times still come back in
    submission order: the longest job first in, first out."""
    configs = _configs()
    make_rules, make_stepper, parse, pretty = configs["scheme"]
    long_program = "(or " + " ".join(["(not #t)"] * 24) + " (not #f))"
    corpus = [parse(long_program)] + [parse("(or #f #t)")] * 5

    outcomes = lift_corpus(
        (make_rules(), make_stepper()),
        corpus,
        jobs=2,
        payload="both",
        pretty=pretty,
    )

    assert [o.job_index for o in outcomes] == list(range(len(corpus)))
    assert outcomes[0].rendered[0] == pretty(corpus[0])
    for late in outcomes[1:]:
        assert late.rendered == outcomes[1].rendered
