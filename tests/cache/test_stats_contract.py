"""``CacheStats`` sit outside the byte-identity contract.

Terminal events carry the run's :class:`~repro.core.incremental.CacheStats`
(resugaring work counters).  A cut cache replay cannot know the counters
a cold run would have had at the cut, so it carries the recorded run's
terminal stats instead.  That is sound because the counters are not
observable output, and this suite pins why:

* they never reach ``repro lift`` output or server wire bytes;
* a *cold* lift's counters already differ with and without a hydrated
  memo tier, while its output does not — they were never a function of
  the request alone;
* a cut replay carries the recorded run's terminal stats, exactly as a
  full hit does.
"""

from __future__ import annotations

import dataclasses
import shutil

from repro.cache import LiftCache
from repro.cli import main
from repro.confection import Confection
from repro.core.incremental import CacheStats
from repro.engine.events import BudgetExhausted, Halted
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.server.protocol import FrameBuilder, encode_frame
from repro.sugars.scheme_sugars import make_scheme_rules

PROGRAM = "(or #f #f (not #t) (and #t #f) #t)"


def _terminal(cache=None, **budget):
    confection = Confection(make_scheme_rules(), make_stepper(), cache=cache)
    return list(confection.lift_stream(parse_program(PROGRAM), **budget))[-1]


def _memo_only_cache(root):
    """A cache directory whose memo tier is hydrated from an earlier run
    of :data:`PROGRAM` but whose whole-lift tier is empty, so the next
    lift is a cold miss that starts with every subterm memoized."""
    _terminal(LiftCache(root))
    shutil.rmtree(root / "lift")
    return LiftCache(root)


def _cli(capsys, *argv):
    assert main(["lift", "--lang", "lambda", *argv, PROGRAM]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_cold_stats_already_depend_on_the_memo_tier(tmp_path):
    plain = _terminal()
    hydrated_cache = _memo_only_cache(tmp_path)
    hydrated = _terminal(hydrated_cache)
    assert hydrated_cache.lift_hits == 0  # both runs really stepped
    assert isinstance(plain, Halted) and isinstance(hydrated, Halted)
    assert plain.core_step_count == hydrated.core_step_count
    assert plain.cache_stats != hydrated.cache_stats


def test_stats_never_reach_cli_output(tmp_path, capsys):
    """Streaming and table output are byte-identical across runs whose
    stats differ: cacheless, memo-hydrated cold, full hit, and cut
    replay against a cacheless cut."""
    cache_dir = tmp_path / "cache"
    _memo_only_cache(cache_dir)
    for extra in ([], ["--table"]):
        plain = _cli(capsys, *extra)
        hydrated = _cli(capsys, "--cache", str(cache_dir), *extra)
        replayed = _cli(capsys, "--cache", str(cache_dir), *extra)
        assert plain == hydrated == replayed
    budget = ["--max-steps", "2", "--on-budget", "truncate"]
    assert _cli(capsys, *budget) == _cli(
        capsys, "--cache", str(cache_dir), *budget
    )


def test_stats_never_reach_wire_bytes():
    """Swapping every terminal's stats for arbitrary counters leaves the
    encoded frames unchanged, for ``halted`` and ``budget`` terminals."""
    bogus = CacheStats(resugar_calls=10**6, resugar_hits=7, expansions=3)
    for budget in ({}, {"max_steps": 2, "on_budget": "truncate"}):
        confection = Confection(make_scheme_rules(), make_stepper())
        events = list(confection.lift_stream(parse_program(PROGRAM), **budget))
        assert isinstance(events[-1], BudgetExhausted if budget else Halted)
        swapped = events[:-1] + [
            dataclasses.replace(events[-1], cache_stats=bogus)
        ]

        def wire(stream):
            builder = FrameBuilder(pretty, include_all=True)
            return b"".join(
                encode_frame(frame)
                for event in stream
                for frame in builder.frames_for(event)
            )

        assert wire(events) == wire(swapped)


def test_cut_replay_carries_the_recorded_terminal_stats(tmp_path):
    """A cut replay's ``BudgetExhausted`` carries the complete recorded
    run's ``cache_stats``, as a full hit's ``Halted`` does."""
    recorded = _terminal(LiftCache(tmp_path))
    full = _terminal(LiftCache(tmp_path))
    cut = _terminal(LiftCache(tmp_path), max_steps=1, on_budget="truncate")
    assert isinstance(full, Halted) and isinstance(cut, BudgetExhausted)
    assert cut.cache_stats == full.cache_stats == recorded.cache_stats
