"""The debugger's checkpoint index: restore points for time travel.

Reverse execution on top of deterministic replay is restore + re-run:
to land on GCC = n the controller restores the nearest checkpoint at or
before n and re-executes forward.  The index merges two sources of
checkpoints -- those taken during the *recording* (Appendix B interval
checkpoints shipped inside the artifact) and those the debugger takes
itself while replaying forward (every ``interval`` commits, via
:meth:`~repro.machine.system.ChunkMachine.checkpoint`).  Either way a
checkpoint is an :class:`~repro.core.interval.IntervalCheckpoint`,
because that is what ``build_replay_machine(start_checkpoint=...)``
consumes.

With checkpoints every k commits, ``goto n`` re-executes at most k - 1
commits -- O(N / k) of the recording for the farthest jump after one
forward pass.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.interval import IntervalCheckpoint


class CheckpointIndex:
    """Interval checkpoints keyed by GCC, deduplicated and sorted.

    GCC 0 is always available implicitly: :meth:`at_or_before` returns
    None for it, meaning "start a fresh machine from the beginning".
    """

    def __init__(self, interval: int = 64) -> None:
        self.interval = max(1, interval)
        self._by_gcc: dict[int, IntervalCheckpoint] = {}
        self._order: list[int] = []

    def __len__(self) -> int:
        return len(self._by_gcc)

    def __contains__(self, gcc: int) -> bool:
        return gcc in self._by_gcc

    def positions(self) -> list[int]:
        """Every checkpointed GCC, ascending (0 is implicit)."""
        return list(self._order)

    def add(self, checkpoint: IntervalCheckpoint) -> bool:
        """Index a checkpoint; False when its GCC is already covered."""
        gcc = checkpoint.commit_index
        if gcc <= 0 or gcc in self._by_gcc:
            return False
        self._by_gcc[gcc] = checkpoint
        position = bisect_right(self._order, gcc)
        self._order.insert(position, gcc)
        return True

    def seed_from_recording(self, recording) -> int:
        """Adopt the recording's own interval checkpoints (if it was
        recorded with ``checkpoint_every``); returns how many."""
        store = getattr(recording, "interval_checkpoints", None)
        if store is None:
            return 0
        added = 0
        for checkpoint in store:
            if self.add(checkpoint):
                added += 1
        return added

    def at_or_before(self, gcc: int) -> IntervalCheckpoint | None:
        """The newest checkpoint with GCC <= ``gcc``, or None meaning
        "restart from GCC 0"."""
        position = bisect_right(self._order, gcc)
        if position == 0:
            return None
        return self._by_gcc[self._order[position - 1]]

    def due(self, gcc: int) -> bool:
        """Should the controller take a checkpoint at this boundary?"""
        return gcc % self.interval == 0 and gcc not in self._by_gcc
