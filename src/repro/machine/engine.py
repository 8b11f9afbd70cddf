"""A deterministic discrete-event engine.

Everything in the simulated machine -- chunk completion, commit-request
arrival, grant delivery, commit propagation, interrupts, DMA -- is an
event on one global queue.  Determinism matters doubly here: the
*simulator* must be reproducible run-to-run (so tests are stable), and
record/replay comparisons must not be polluted by queue-order
nondeterminism.  Ties are broken by (priority, insertion sequence),
never by object identity.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import DeadlockError


class EventEngine:
    """Priority-queue event loop with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Callable[[], None]]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events dispatched so far (progress diagnostics)."""
        return self._processed

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` to run ``delay`` cycles from now.

        Lower ``priority`` runs first among same-time events.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay}")
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, self._sequence, action))
        self._sequence += 1

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` at absolute ``time`` (>= now)."""
        self.schedule(max(0.0, time - self._now), action, priority)

    def run(self, max_events: int | None = None,
            hook: Callable[[], bool | None] | None = None,
            stride: int = 1) -> bool:
        """Dispatch events until the queue drains; True when it did.

        ``hook()`` runs after every dispatch whose lifetime count is a
        multiple of ``stride``; a true return stops the loop with the
        rest of the queue intact (returning False), and a later call
        carries on from there.  ``max_events`` bounds the dispatches
        over the engine's lifetime; exceeding it raises
        :class:`DeadlockError`, which in practice means the simulated
        machine is livelocked (e.g. every processor spinning on a lock
        whose holder cannot commit).
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _, _, action = pop(queue)
            self._now = time
            action()
            self._processed += 1
            if (hook is not None and self._processed % stride == 0
                    and hook()):
                return False
            if max_events is not None and self._processed > max_events:
                raise DeadlockError(
                    f"simulation exceeded {max_events} events at cycle "
                    f"{self._now:.0f}; the machine is likely livelocked")
        return True

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
