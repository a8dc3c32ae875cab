"""``deep_recursion`` under concurrent lifts.

The recursion limit is process-wide, and server sessions lift on
executor threads, so one thread leaving ``deep_recursion`` must not
take the raised limit away from another thread that is still deep in a
walk.  The two threads here are lock-stepped with a barrier so the exit
lands exactly while the other thread's lift is about to step a
400-arm ``or`` chain (a core term far deeper than the default limit).
"""

import sys
import threading

from repro.core.lift import lift_evaluation
from repro.core.recursion import DEFAULT_RECURSION_LIMIT, deep_recursion
from repro.lambdacore import make_stepper, parse_program
from repro.sugars.scheme_sugars import make_scheme_rules

ARMS = 400


class _PausingStepper:
    """Delegates to ``inner``; the first ``step`` meets ``barrier``
    twice before stepping, so the other thread acts in between."""

    def __init__(self, inner, barrier):
        self._inner = inner
        self._barrier = barrier
        self._paused = False

    def load(self, core_term):
        return self._inner.load(core_term)

    def term(self, state):
        return self._inner.term(state)

    def step(self, state):
        if not self._paused:
            self._paused = True
            self._barrier.wait(timeout=30)  # the lift is under way
            self._barrier.wait(timeout=30)  # the other thread has exited
        return self._inner.step(state)


def test_exit_in_one_thread_keeps_the_limit_of_another():
    program = parse_program("(or " + " ".join(["#f"] * ARMS) + " #t)")
    rules = make_scheme_rules()
    # The root-restart stepper decomposes the whole term in one walk,
    # which is where a lowered limit bites.
    barrier = threading.Barrier(2)
    stepper = _PausingStepper(make_stepper().with_mode("naive"), barrier)
    outcome = {}

    def short_lived():
        with deep_recursion():
            barrier.wait(timeout=30)  # entered first: saved the low limit
            barrier.wait(timeout=30)  # the deep lift is paused mid-run
        barrier.wait(timeout=30)  # exited: let the deep lift go on

    def deep_lift():
        barrier.wait(timeout=30)
        try:
            outcome["result"] = lift_evaluation(rules, stepper, program)
        except RecursionError as exc:
            outcome["error"] = exc

    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        threads = [
            threading.Thread(target=short_lived),
            threading.Thread(target=deep_lift),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setrecursionlimit(saved)
    assert "error" not in outcome, outcome.get("error")
    assert outcome["result"].core_step_count == 2 * ARMS + 1


def test_limit_only_rises():
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        with deep_recursion():
            assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT
        assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT
        sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT + 1)
        with deep_recursion():
            pass
        assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT + 1
    finally:
        sys.setrecursionlimit(saved)
