"""One text memo per lifted sequence, shared by a backend's printer.

Consecutive steps of a lift share most of their subterms, and both
backends' printers are context-free: a subterm prints the same wherever
it sits.  So the steps of one sequence can share one memo from
(canonical) subterm to text, and each step then writes only the
subterms it created.

A backend opts in by giving its ``pretty`` a ``memo`` keyword that
calls :func:`write_with`, and by having its recursive writer consult
``ACTIVE.memo``: return the stored text on a hit, store what it wrote
(up to :data:`MAX_MEMO_TEXT` characters) otherwise.  The check sits in
the writer itself rather than in a wrapper, so printing a deep term
takes no extra stack frame per level.  Callers print a sequence through
:func:`memo_printer`, which falls back to the plain ``pretty`` for
printers without the keyword.  The memo is a dict the caller owns and
drops with the sequence; the active one is thread-local, so concurrent
sessions never share it.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Callable, Dict

from repro.core.terms import Pattern

__all__ = ["ACTIVE", "MAX_MEMO_TEXT", "write_with", "memo_printer"]

MAX_MEMO_TEXT = 4096
"""Texts longer than this are not kept: a deep term's ancestors each
hold their whole subtree's text, and keeping all of them would cost
memory quadratic in its depth."""


class _Active(threading.local):
    memo = None


ACTIVE = _Active()
"""``ACTIVE.memo``: the memo of the sequence this thread is printing
inside :func:`write_with`, else ``None``."""


def write_with(pp: Callable[[Pattern], str], term: Pattern,
               memo: Dict[Pattern, str]) -> str:
    """``pp(term)`` with ``memo`` active on this thread."""
    outer = ACTIVE.memo
    ACTIVE.memo = memo
    try:
        return pp(term)
    finally:
        ACTIVE.memo = outer


@functools.lru_cache(maxsize=32)
def _takes_memo(pretty: Callable) -> bool:
    try:
        return "memo" in inspect.signature(pretty).parameters
    except (TypeError, ValueError):
        return False


def memo_printer(pretty: Callable[..., str]) -> Callable[[Pattern], str]:
    """A one-argument printer for the terms of one sequence: ``pretty``
    with a fresh shared memo when it takes one, else ``pretty`` itself."""
    if _takes_memo(pretty):
        return functools.partial(pretty, memo={})
    return pretty
