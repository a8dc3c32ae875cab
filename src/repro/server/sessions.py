"""Sessions: the bridge between blocking lift streams and the event loop.

One :class:`Session` per in-flight request.  The CPU-bound side — a
``lift_stream`` generator iterated on an executor thread — pushes frames
into the session's bounded :class:`asyncio.Queue` via
:meth:`Session.put_from_thread`; the asyncio side pops every ready frame
at once (:meth:`Session.next_frames`) and writes them to the socket.
The bounded queue is the backpressure boundary: a slow client fills it,
which blocks the *producer thread* (not the event loop), which stops the
stepper from racing ahead of the network.

The handoff costs the producer no round trip per frame.  A thread-side
semaphore counts the queue's free room: while there is room the producer
reserves a slot and schedules the loop-side enqueue without waiting for
it.  It waits for the loop in two cases only: when the queue is full
(the backpressure wait), and on a frame the caller asks to flush
(``wait=True``: the server's first ``step`` frame, and any frame that was
slow to produce), until the consumer has taken that frame off the queue
to write it.  Without that wait a producer stepping on would keep the
interpreter lock from the loop for up to a switch interval before the
frame reached the socket.

Cancellation is cooperative and flows in the other direction.  A
generator being iterated by one thread cannot be ``close()``d from
another, so the session instead owns a :class:`threading.Event`; the
engine polls it once per core step through the ``should_stop`` hook of
:func:`repro.engine.stream.lift_stream`, and ``put_from_thread`` polls
it while blocked on a full queue.  Setting the event — on client
disconnect, shutdown, or timeout — therefore stops the producer within
one step or one poll interval, whichever side it is currently in.

Cancellation must also wake the *consumer*: once the flag is set,
``put_from_thread`` (and the loop-side enqueue it scheduled) drops every
frame including the :data:`DONE` sentinel, so a handler parked in
:meth:`Session.next_frames` would otherwise wait forever (the shutdown
deadlock: ``cancel_all`` during an active session).  :meth:`Session.cancel` therefore schedules a
loop-side wake-up that guarantees a ``DONE`` lands in the queue,
evicting one undeliverable frame if the queue is full.

The :class:`SessionManager` enforces the ``max_sessions`` admission cap
(excess requests are *rejected* with a structured error, not queued
into oblivion) and keeps a registry of live sessions — the leak
assertions in ``tests/server`` check it drains to empty after every
scenario, including mid-stream disconnects.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    SERVER_SESSIONS_ACTIVE,
    SERVER_SESSIONS_PEAK,
    SERVER_SESSIONS_REJECTED,
    SERVER_SESSIONS_STARTED,
)

__all__ = ["Session", "SessionManager", "SessionLimitError", "DONE"]

#: Sentinel the producer enqueues after its last frame; consumers stop
#: on identity (frames are dicts, never this object).
DONE = object()

#: How long ``put_from_thread`` blocks on a full queue (or on a flushed
#: frame) before re-checking the cancel event.  The worst-case latency
#: between a client vanishing and its producer thread noticing, when the
#: producer is parked on backpressure.
_PUT_POLL_SECONDS = 0.1


class SessionLimitError(RuntimeError):
    """The ``max_sessions`` admission cap is reached (an HTTP 503)."""


class Session:
    """One live lift session: a bounded frame queue plus a cancel flag.

    Created by :class:`SessionManager.open`; the asyncio side consumes
    :attr:`queue` through :meth:`next_frames`, the producer thread calls
    :meth:`put_from_thread`.
    """

    def __init__(
        self,
        session_id: int,
        kind: str,
        loop: asyncio.AbstractEventLoop,
        maxsize: int,
    ) -> None:
        self.id = session_id
        self.kind = kind
        self._loop = loop
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        # Free queue slots as the producer sees them: taken when a frame
        # is handed over, given back when the consumer pops it.
        self._room = threading.Semaphore(maxsize)
        # The future a producer waits on for its flushed frame (loop-side).
        self._flushed: Optional[concurrent.futures.Future] = None
        self._cancel = threading.Event()

    # --- producer side (executor thread) -----------------------------

    def cancelled(self) -> bool:
        """The engine's ``should_stop`` hook (polled once per core
        step)."""
        return self._cancel.is_set()

    def put_from_thread(self, item: Any, wait: bool = False) -> bool:
        """Enqueue one frame from the producer thread, blocking only
        while the queue is full — or, with ``wait``, until the consumer
        has taken it.  Returns ``False`` (dropping the frame) once the
        session is cancelled — the signal for the producer to stop."""
        if self._cancel.is_set():
            return False
        while not self._room.acquire(timeout=_PUT_POLL_SECONDS):
            if self._cancel.is_set():
                return False
        taken = concurrent.futures.Future() if wait else None
        try:
            self._loop.call_soon_threadsafe(self._enqueue, item, taken)
        except RuntimeError:
            return False  # the loop already shut down
        if taken is not None:
            while True:
                try:
                    taken.result(timeout=_PUT_POLL_SECONDS)
                    break
                except concurrent.futures.TimeoutError:
                    if self._cancel.is_set():
                        return False
        return not self._cancel.is_set()

    def finish_from_thread(self) -> None:
        """Mark the end of the stream (enqueues :data:`DONE`)."""
        self.put_from_thread(DONE)

    def _enqueue(self, item: Any, taken) -> None:
        """Loop-side half of :meth:`put_from_thread`.  The producer
        reserved the slot, so the put cannot overflow; after a cancel
        the frame is dropped instead (the cancel's :data:`DONE` may hold
        that slot, and nothing queued behind it is read; a waiting
        producer sees the cancel at its next poll)."""
        if self._cancel.is_set():
            return
        self.queue.put_nowait(item)
        if taken is not None:
            self._flushed = taken

    # --- consumer side (event loop) ----------------------------------

    def cancel(self) -> None:
        """Ask the producer to stop (idempotent; takes effect within one
        core step or one backpressure poll) and wake any consumer parked
        on the queue: a cancelled producer drops its :data:`DONE`, so
        the terminal sentinel is delivered from the loop side instead."""
        if self._cancel.is_set():
            return
        self._cancel.set()
        try:
            self._loop.call_soon_threadsafe(self._enqueue_done)
        except RuntimeError:
            pass  # the loop already shut down; nothing left to wake

    def _enqueue_done(self) -> None:
        """Loop-side: guarantee a :data:`DONE` lands so ``next_frame``
        returns.  The queue may be full of now-undeliverable frames —
        evict one to make room; nothing behind ``DONE`` is ever read."""
        try:
            self.queue.put_nowait(DONE)
        except asyncio.QueueFull:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:
                pass
            try:
                self.queue.put_nowait(DONE)
            except asyncio.QueueFull:
                pass

    async def next_frame(self) -> Any:
        """The next frame, or :data:`DONE`."""
        item = await self.queue.get()
        self._took(1)
        return item

    async def next_frames(self) -> List[Any]:
        """Every frame ready now (waiting for at least one), in order;
        the list ends at :data:`DONE` when the stream is over."""
        items = [await self.queue.get()]
        while items[-1] is not DONE and not self.queue.empty():
            items.append(self.queue.get_nowait())
        self._took(len(items))
        return items

    def _took(self, count: int) -> None:
        """Give ``count`` slots back to the producer.  A producer waiting
        on a flushed frame enqueued nothing after it, so once the queue
        is empty that frame has been taken: release the producer."""
        self._room.release(count)
        if self._flushed is not None and self.queue.empty():
            self._flushed.set_result(None)
            self._flushed = None


class SessionManager:
    """Admission control plus the live-session registry.

    ``max_sessions`` bounds concurrently open sessions across all
    endpoints; ``queue_size`` is each session's frame-queue bound (the
    per-session backpressure window).
    """

    def __init__(self, max_sessions: int = 64, queue_size: int = 64) -> None:
        self.max_sessions = max_sessions
        self.queue_size = queue_size
        self._ids = itertools.count(1)
        self._active: Dict[int, Session] = {}
        self._peak = 0

    # --- registry ----------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def peak(self) -> int:
        return self._peak

    def active_sessions(self) -> Dict[int, Session]:
        """A snapshot of live sessions (test hook for leak assertions)."""
        return dict(self._active)

    # --- lifecycle ---------------------------------------------------

    def open(
        self,
        kind: str,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> Session:
        """Admit one session or raise :class:`SessionLimitError`."""
        if len(self._active) >= self.max_sessions:
            SERVER_SESSIONS_REJECTED.inc()
            raise SessionLimitError(
                f"session limit reached ({self.max_sessions} active)"
            )
        session = Session(
            next(self._ids),
            kind,
            loop or asyncio.get_running_loop(),
            self.queue_size,
        )
        self._active[session.id] = session
        self._peak = max(self._peak, len(self._active))
        SERVER_SESSIONS_STARTED.inc()
        SERVER_SESSIONS_ACTIVE.set(len(self._active))
        SERVER_SESSIONS_PEAK.set(self._peak)
        return session

    def close(self, session: Session) -> None:
        """Retire a session (idempotent).  Always called from the
        handler's ``finally`` — a session missing from the registry
        afterwards is the no-leak guarantee the tests assert."""
        session.cancel()
        self._active.pop(session.id, None)
        SERVER_SESSIONS_ACTIVE.set(len(self._active))

    def cancel_all(self) -> None:
        """Shutdown path: ask every live producer to stop."""
        for session in list(self._active.values()):
            session.cancel()
