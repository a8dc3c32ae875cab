"""Candidate-checking throughput: the synthesis filter, in-process.

The filter stage is the synthesis pipeline's hot loop — every
enumerated candidate runs well-formedness, its own-example expansion,
and the GetPut/PutGet lens laws.  This benchmark checks the full
lambdacore candidate population and records throughput in
``BENCH_lift.json``, with ``cpu_count`` so the report says what
hardware produced it.  (Checking on pool workers was removed: the
whole check takes well under a second, so pickling never paid.)
"""

import os
import time

from repro.engine.registry import get_backend
from repro.synth.filter import check_candidates
from repro.synth.harvest import SEED_PROGRAMS, harvest_examples
from repro.synth.pipeline import enumerate_candidates

from benchmarks.conftest import report
from benchmarks.reporter import REPORTER


def test_candidate_checking_throughput():
    backend = get_backend("lambda")
    rules = backend.make_rules(None)
    programs = [backend.parse(s) for s in SEED_PROGRAMS["lambda"]]
    buckets = harvest_examples(rules, programs, max_list_len=4)
    candidates = enumerate_candidates(buckets)
    assert len(candidates) >= 100

    start = time.perf_counter()
    inprocess = check_candidates(candidates)
    inprocess_s = time.perf_counter() - start

    accepted = sum(1 for c in inprocess if c.ok)
    assert accepted >= 20

    report(
        "synth candidate checking (lambdacore)",
        [
            f"candidates      {len(candidates)}",
            f"accepted        {accepted}",
            f"in-process      {inprocess_s:.3f}s "
            f"({len(candidates) / inprocess_s:.0f}/s)",
        ],
    )
    REPORTER.record(
        "synth_candidates",
        candidates=len(candidates),
        accepted=accepted,
        inprocess_seconds=round(inprocess_s, 4),
        inprocess_checked_per_sec=round(len(candidates) / inprocess_s, 1),
        cpu_count=os.cpu_count() or 1,
    )
