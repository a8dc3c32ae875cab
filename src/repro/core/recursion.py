"""Recursion headroom for deeply nested terms.

The engine is written with straightforward structural recursion; a
128-arm ``Or`` desugars into a ~500-deep core term, which a default
CPython recursion limit of 1000 cannot traverse.  The deep-recursive
entry points (desugaring, resugaring, decomposition, lifting) wrap
themselves in :class:`deep_recursion`, which raises the interpreter's
limit for the duration of the call and restores it afterwards.
"""

from __future__ import annotations

import sys

__all__ = ["deep_recursion", "DEFAULT_RECURSION_LIMIT"]

DEFAULT_RECURSION_LIMIT = 100_000
"""Enough for terms tens of thousands of nodes deep; far below levels
that would exhaust a typical 8 MiB C stack with our small frames."""


class deep_recursion:
    """Temporarily raise the recursion limit (never lowers it).

    A plain class rather than a generator-based context manager: the
    lifting loop enters it several times per core step."""

    __slots__ = ("limit", "old")

    def __init__(self, limit: int = DEFAULT_RECURSION_LIMIT) -> None:
        self.limit = limit

    def __enter__(self) -> None:
        self.old = old = sys.getrecursionlimit()
        if old < self.limit:
            sys.setrecursionlimit(self.limit)

    def __exit__(self, *exc) -> None:
        sys.setrecursionlimit(self.old)
