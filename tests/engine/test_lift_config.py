"""LiftConfig: every lift option validated once, at construction.

Out-of-range budgets are rejected before any lift work, on every entry
point that builds a config (the library wrappers, batch jobs, the
server, and the CLI all construct one).
"""

import math
import pickle

import pytest

from repro.confection import Confection
from repro.engine.config import LiftConfig
from repro.engine.stream import lift_stream, lift_tree_stream
from repro.lambdacore import make_stepper, parse_program
from repro.parallel import LiftJob
from repro.sugars.scheme_sugars import make_scheme_rules

RULES = make_scheme_rules()


@pytest.mark.parametrize(
    "options,option",
    [
        (dict(max_steps=-1), "max_steps"),
        (dict(max_steps=True), "max_steps"),
        (dict(max_steps=2.5), "max_steps"),
        (dict(mode="tree", max_nodes=-3), "max_steps"),
        (dict(max_seconds=math.nan), "max_seconds"),
        (dict(max_seconds=math.inf), "max_seconds"),
        (dict(max_seconds=-0.5), "max_seconds"),
        (dict(max_seconds=True), "max_seconds"),
        (dict(on_budget="explode"), "on_budget"),
        (dict(stepper_mode="naive"), "stepper_mode"),
        (dict(mode="graph"), "mode"),
        (dict(dedup="yes"), "dedup"),
        (dict(mode="tree", dedup=False), "dedup"),
        (dict(check_emulation=None), "check_emulation"),
        (dict(incremental=False), "incremental"),
        (dict(max_nodes=5), "max_nodes"),
    ],
)
def test_invalid_options_rejected(options, option):
    # ``stepper_mode`` is no option at all (a naive stepper is chosen by
    # the stepper itself: ``with_mode("naive")``); ``incremental`` is
    # accepted only as True.
    error = TypeError if option == "stepper_mode" else ValueError
    with pytest.raises(error, match=option):
        LiftConfig(**options)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: lift_stream(RULES, make_stepper(), parse_program("(or #t #f)"),
                            max_steps=-1),
        lambda: lift_tree_stream(RULES, make_stepper(),
                                 parse_program("(amb 1 2)"), max_nodes=-1),
        lambda: Confection(RULES, make_stepper()).lift(
            parse_program("(or #t #f)"), max_seconds=math.nan),
        lambda: LiftJob(parse_program("(or #t #f)"), max_seconds=math.nan),
    ],
    ids=["lift_stream", "lift_tree_stream", "Confection.lift", "LiftJob"],
)
def test_entry_points_validate_through_the_config(entry):
    with pytest.raises(ValueError):
        entry()


def test_defaults_and_tree_budget_alias():
    sequence = LiftConfig()
    assert sequence.mode == "sequence" and sequence.dedup is True
    assert sequence.max_steps == 100_000 and sequence.max_seconds is None
    tree = LiftConfig(mode="tree", max_nodes=7)
    assert tree.dedup is None and tree.max_steps == 7
    # The one accepted value of ``incremental`` is the default, and the
    # key keeps the bytes it always had.
    assert LiftConfig(incremental=True) == sequence
    assert sequence.key_parts()[-1] == b";inc=True"


def test_config_and_options_do_not_mix():
    term = parse_program("(or #t #f)")
    with pytest.raises(TypeError):
        lift_stream(RULES, make_stepper(), term, config=LiftConfig(),
                    max_steps=3)
    with pytest.raises(TypeError):
        lift_stream(RULES, make_stepper(), term,
                    config=LiftConfig(mode="tree"))


def test_jobs_carry_one_picklable_config():
    job = LiftJob(parse_program("(or #t #f)"), name="j", max_steps=5,
                  on_budget="truncate")
    assert job.config == LiftConfig(max_steps=5, on_budget="truncate")
    assert pickle.loads(pickle.dumps(job)) == job
