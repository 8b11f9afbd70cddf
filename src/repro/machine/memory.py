"""Flat word-addressed value memory.

The simulator models memory *values* -- not just addresses -- because
DeLorean's determinism guarantee is about architectural state: replay
must reproduce every loaded value, every spin count, and the exact final
memory image.  Memory is a sparse ``dict`` of 64-bit words; unmapped
words read as zero.

Chunk isolation is implemented above this layer: a chunk's stores live
in its private write buffer until commit, at which point the system
calls :meth:`MainMemory.commit` with the buffered writes (already
masked to 64 bits); DMA bursts, whose values are raw, go through
:meth:`MainMemory.apply`, which masks them.
"""

from __future__ import annotations

from repro.machine.program import WORD_MASK


class MainMemory:
    """Sparse committed-state memory shared by all processors."""

    def __init__(self, initial: dict[int, int] | None = None) -> None:
        self._words: dict[int, int] = {}
        if initial:
            for address, value in initial.items():
                self.write(address, value)

    def read(self, address: int) -> int:
        """Committed value at ``address`` (zero if never written)."""
        return self._words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        """Commit a single word."""
        self._words[address] = value & WORD_MASK

    def apply(self, writes: dict[int, int]) -> None:
        """Commit a DMA burst atomically, masking each value to a word:
        a :class:`~repro.machine.events.DmaTransfer` may carry any
        int."""
        for address, value in writes.items():
            self._words[address] = value & WORD_MASK

    def commit(self, buffer: dict[int, int]) -> None:
        """Commit a chunk's write buffer atomically: one dict update.

        The chunk interpreter masks every value it buffers, so nothing
        is masked here; an unmasked burst goes through :meth:`apply`.
        """
        self._words.update(buffer)

    def snapshot(self) -> dict[int, int]:
        """Copy of the full committed state (for checkpoints and
        determinism comparison)."""
        return dict(self._words)

    def restore(self, saved: dict[int, int]) -> None:
        """Replace the committed state with a snapshot."""
        self._words = dict(saved)

    def nonzero_words(self) -> dict[int, int]:
        """Committed state with zero words elided (canonical image)."""
        return {a: v for a, v in self._words.items() if v != 0}

    def __len__(self) -> int:
        return len(self._words)
