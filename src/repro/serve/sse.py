"""Server-sent events over job state transitions.

Every durable queue transition becomes one SSE event whose ``id`` is
the journal's log sequence number, so a client that reconnects with
``Last-Event-ID: N`` (or ``?after=N``) resumes exactly where it left
off -- the event ids are as durable as the jobs themselves.  The
in-memory :class:`EventLog` is seeded from journal recovery and then
appended live from the queue's observer hook; readers are async
iterators parked on a condition variable, so a stream costs nothing
between transitions.  Each event is also filed under its job id, and
both lists are in LSN order, so a per-job stream bisects its own
job's few events instead of filtering the whole history: opening one
costs the same however long the server has run.

Wire format (one frame per transition)::

    id: <lsn>\\n
    data: {"lsn": ..., "job": {...full job snapshot...}}\\n
    \\n

Journal **compaction** complicates resume: compaction dissolves every
individual transition with ``lsn <= compacted_through`` into one
newest-wins snapshot per job, so after a restart those intermediate
event ids no longer exist.  A client reconnecting with an ``after``
older than ``compacted_through`` would see a *silent gap* -- events it
never received are simply gone.  :meth:`EventLog.replay` therefore
treats such a cursor as "too old to resume" and falls back to the full
retained snapshot (``after = 0``): the client re-receives everything
still known, which is exactly the newest state of every job, instead
of missing transitions it cannot know it missed.  A live compaction
does the same to the in-memory log, so it holds what a restarted
server would read back from the journal, and no more.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect_left

from repro.serve.model import Job


def format_sse(event_id: int, data: dict) -> bytes:
    """Encode one SSE frame."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"id: {event_id}\ndata: {payload}\n\n".encode()


class EventLog:
    """Ordered, replayable log of job transitions for SSE streams,
    indexed by job.

    ``append`` may be called from worker threads (it is the queue
    observer); readers run on the event loop.  The bridge is
    ``loop.call_soon_threadsafe``, keeping list mutation and condition
    notification on the loop thread so iteration never sees a torn
    update.  Every event is kept twice by reference: in the global
    list and in its job's list, both in strictly increasing LSN order
    (an event at or below the last LSN is a duplicate and is dropped),
    which is what lets :meth:`replay` bisect.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 compacted_through: int = 0) -> None:
        self._loop = loop
        self._events: list[tuple[int, dict]] = []
        self._by_job: dict[str, list[tuple[int, dict]]] = {}
        self._cond = asyncio.Condition()
        #: Event ids at or below this LSN were dissolved by journal
        #: compaction; resuming from older than this falls back to a
        #: full snapshot (see the module docstring).
        self.compacted_through = compacted_through

    def _file(self, lsn: int, snapshot: dict) -> bool:
        """Log one event in both indexes; False for a duplicate."""
        if self._events and lsn <= self._events[-1][0]:
            return False
        event = (lsn, {"lsn": lsn, "job": snapshot})
        self._events.append(event)
        self._by_job.setdefault(snapshot["id"], []).append(event)
        return True

    def seed(self, lsn: int, job: Job) -> None:
        """Pre-loop insertion (journal recovery, before serving)."""
        self._file(lsn, job.as_dict())

    def append(self, lsn: int, job: Job) -> None:
        """Queue observer: record a transition and wake streamers."""
        self._loop.call_soon_threadsafe(self._publish, lsn, job.as_dict())

    def compacted(self, horizon: int, records: list) -> None:
        """Queue compaction observer: the ``(lsn, job snapshot)``
        records replace every event at or below ``horizon``, and
        ``horizon`` becomes :attr:`compacted_through`."""
        self._loop.call_soon_threadsafe(self._compact, horizon, records)

    def _compact(self, horizon: int, records: list) -> None:
        # Nothing above the horizon is logged yet: a later transition
        # publishes after the compaction that preceded it.
        self._events, self._by_job = [], {}
        for lsn, snapshot in records:
            self._file(lsn, snapshot)
        self.compacted_through = horizon
        self._wake()

    def _publish(self, lsn: int, snapshot: dict) -> None:
        # Not what the journal seeded or a compaction dissolved.
        if lsn > self.compacted_through and self._file(lsn, snapshot):
            self._wake()

    def _wake(self) -> None:
        async def wake() -> None:
            async with self._cond:
                self._cond.notify_all()

        self._loop.create_task(wake())

    @property
    def last_id(self) -> int:
        return self._events[-1][0] if self._events else 0

    def replay(self, after: int,
               job_id: str | None = None) -> list[tuple[int, dict]]:
        """Everything already logged with id > ``after``, of one job
        when ``job_id`` is given.

        An ``after`` older than ``compacted_through`` cannot be
        resumed from -- the events between it and the compaction
        horizon no longer exist -- so it degrades to the full
        retained snapshot rather than a silent gap.
        """
        if after and after < self.compacted_through:
            after = 0
        return self._since(after, job_id)

    def _since(self, after: int,
               job_id: str | None) -> list[tuple[int, dict]]:
        events = (self._events if job_id is None
                  else self._by_job.get(job_id, []))
        # (after + 1,) sorts before (after + 1, data) and after every
        # smaller LSN, so the data dicts are never compared.
        return events[bisect_left(events, (after + 1,)):]

    async def stream(self, after: int = 0, job_id: str | None = None):
        """Async-iterate ``(id, data)`` events with id > ``after`` (of
        one job when ``job_id`` is given), forever (callers decide when
        to stop, e.g. at a terminal job state).

        Only the caller's ``after`` can be stale (see :meth:`replay`).
        Each batch holds everything logged through :attr:`last_id`,
        read in the same step, so the cursor moves there even when
        none of it was this job's; a compaction that later passes the
        cursor never sends an event twice.
        """
        batch = self.replay(after, job_id)
        cursor = max(after, self.last_id)
        while True:
            for lsn, data in batch:
                yield lsn, data
            batch = self._since(cursor, job_id)
            cursor = max(cursor, self.last_id)
            if batch:
                continue  # drained a burst; re-check before sleeping
            async with self._cond:
                # Timed wait: a transition published between the read
                # and wait() would otherwise be missed until the next
                # notify; the timeout bounds that window.
                try:
                    await asyncio.wait_for(self._cond.wait(),
                                           timeout=0.5)
                except asyncio.TimeoutError:
                    pass


__all__ = ["EventLog", "format_sse"]
