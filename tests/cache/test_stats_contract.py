"""``CacheStats`` sit outside the byte-identity contract.

Terminal events carry the run's :class:`~repro.core.incremental.CacheStats`
(resugaring work counters).  A cut cache replay cannot know the counters
a cold run would have had at the cut, so it carries the recorded run's
terminal stats instead.  That is sound because the counters are not
observable output, and this suite pins why:

* they never reach ``repro lift`` output or server wire bytes;
* a *cold* lift's counters are a function of the request alone: no
  cache, an empty directory, and a directory full of other programs'
  entries (or a leftover memo blob of the removed memo tier) give equal
  terminal stats;
* a cut replay carries the recorded run's terminal stats, exactly as a
  full hit does.
"""

from __future__ import annotations

import dataclasses

from repro.cache import CacheStore, LiftCache, ruleset_fingerprint
from repro.cli import main
from repro.confection import Confection
from repro.core.desugar import desugar, resugar_raw
from repro.core.incremental import CacheStats
from repro.core.tags import has_head_tags, has_opaque_body_tags
from repro.core.terms import strip_body_tags, strip_tags
from repro.engine.events import BudgetExhausted, Halted
from repro.lambdacore import make_stepper, parse_program, pretty
from repro.server.protocol import FrameBuilder, encode_frame
from repro.sugars.scheme_sugars import make_scheme_rules

PROGRAM = "(or #f #f (not #t) (and #t #f) #t)"
# Other programs sharing most of PROGRAM's subterms.
NEIGHBOURS = ("(not #t)", "(and #t #f)", "(or #f (not #t) #t)", "(or #f #f #t)")


def _terminal(cache=None, **budget):
    confection = Confection(make_scheme_rules(), make_stepper(), cache=cache)
    return list(confection.lift_stream(parse_program(PROGRAM), **budget))[-1]


def _populated_cache(root):
    """A cache directory holding the whole-lift entries of
    :data:`NEIGHBOURS` but not of :data:`PROGRAM`."""
    for source in NEIGHBOURS:
        confection = Confection(
            make_scheme_rules(), make_stepper(), cache=LiftCache(root)
        )
        confection.lift(parse_program(source))
    return LiftCache(root)


def _legacy_memo_blob(root):
    """Write the memo snapshot the removed memo tier would have written
    after a lift of :data:`PROGRAM`: its ``memo/`` path, key and table
    layout, with real entries (each table's pairs computed by the pure
    functions the old resugar cache memoized)."""
    rules = make_scheme_rules()
    program = parse_program(PROGRAM)
    cores = [
        step.core_term
        for step in Confection(rules, make_stepper()).lift(program).steps
    ]
    raws = [(core, resugar_raw(rules, core)) for core in cores]
    kept = [raw for _core, raw in raws if raw is not None]
    blob = {
        "raw": raws,
        "bad": [
            (raw, has_opaque_body_tags(raw) or has_head_tags(raw))
            for raw in kept
        ],
        "strip": [(raw, strip_body_tags(raw)) for raw in kept],
        "desugar": [(program, desugar(rules, program))],
        "skel": [(core, strip_tags(core)) for core in cores],
    }
    assert all(blob.values())
    store = CacheStore(root)
    key = ruleset_fingerprint(rules)
    assert store.put("memo", key, blob)
    return store.path_for("memo", key)


def _cli(capsys, *argv):
    assert main(["lift", "--lang", "lambda", *argv, PROGRAM]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_cold_stats_are_a_function_of_the_request(tmp_path):
    """No cache, an empty directory, and a directory already holding
    other programs' lift entries: three cold lifts, equal terminal
    stats."""
    plain = _terminal()
    empty_cache = LiftCache(tmp_path / "empty")
    empty = _terminal(empty_cache)
    populated_cache = _populated_cache(tmp_path / "populated")
    populated = _terminal(populated_cache)
    assert empty_cache.lift_hits == populated_cache.lift_hits == 0
    assert isinstance(plain, Halted)
    assert plain == empty == populated
    assert plain.cache_stats.resugar_calls > 0


def test_a_legacy_memo_blob_is_ignored_and_cleared(tmp_path, capsys):
    """A ``memo/`` snapshot left by the removed memo tier neither
    changes a cold lift (stats and all) nor is read or rewritten by it;
    ``repro cache clear`` removes it with everything else."""
    blob = _legacy_memo_blob(tmp_path)
    before = (blob.read_bytes(), blob.stat().st_mtime_ns)
    cache = LiftCache(tmp_path)
    assert _terminal(cache) == _terminal()
    assert cache.lift_hits == 0
    assert cache.store.counters["hits"] == 0  # the blob was never read
    assert (blob.read_bytes(), blob.stat().st_mtime_ns) == before
    assert main(["cache", "clear", str(tmp_path)]) == 0
    assert "removed 2 cache file(s)" in capsys.readouterr().out
    assert not (tmp_path / "memo").exists()


def test_stats_never_reach_cli_output(tmp_path, capsys):
    """Streaming and table output are byte-identical across cacheless,
    cold-with-cache and full-hit runs, and for a cut replay against a
    cacheless cut."""
    cache_dir = tmp_path / "cache"
    _populated_cache(cache_dir)
    for extra in ([], ["--table"]):
        plain = _cli(capsys, *extra)
        cold = _cli(capsys, "--cache", str(cache_dir), *extra)
        replayed = _cli(capsys, "--cache", str(cache_dir), *extra)
        assert plain == cold == replayed
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
