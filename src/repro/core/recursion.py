"""Recursion headroom for deeply nested terms.

The engine is written with straightforward structural recursion; a
128-arm ``Or`` desugars into a ~500-deep core term, which a default
CPython recursion limit of 1000 cannot traverse.  The deep-recursive
entry points (desugaring, resugaring, decomposition, lifting) wrap
themselves in :class:`deep_recursion`, which raises the interpreter's
limit.  It never restores it: the limit is process-wide, and lifts run
concurrently on server and executor threads, so a restore on one
thread's exit would pull the limit from under another thread that is
still deep in a walk.
"""

from __future__ import annotations

import sys

__all__ = ["deep_recursion", "DEFAULT_RECURSION_LIMIT"]

DEFAULT_RECURSION_LIMIT = 100_000
"""Enough for terms tens of thousands of nodes deep; far below levels
that would exhaust a typical 8 MiB C stack with our small frames."""


class deep_recursion:
    """Raise the recursion limit to at least ``limit``; it only ever
    rises (see the module docstring).

    A plain class rather than a generator-based context manager: the
    lifting loop enters it several times per core step."""

    __slots__ = ("limit",)

    def __init__(self, limit: int = DEFAULT_RECURSION_LIMIT) -> None:
        self.limit = limit

    def __enter__(self) -> None:
        if sys.getrecursionlimit() < self.limit:
            sys.setrecursionlimit(self.limit)

    def __exit__(self, *exc) -> None:
        pass
