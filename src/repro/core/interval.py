"""Interval replay: checkpoints at commit boundaries (Appendix B).

The paper's determinism theorem is stated for *intervals*: "assuming
that a system checkpoint was taken at GCC=n, DeLorean can
deterministically replay an execution for the interval I(n,m)".  In
deployment that is the whole point of pairing the logs with
ReVive/SafetyNet-style checkpointing (Section 3.3): a day-long
recording is replayed from the checkpoint nearest the crash, not from
boot.

An :class:`IntervalCheckpoint` captures the committed architectural
state at a global commit count (GCC): the memory image, each
processor's committed thread state and commit count, and the log
cursors needed to resume consuming every log mid-stream.  Because all
of DeLorean's logs are indexed by architectural counters -- PI entries
by commit position, CS entries by per-processor chunk sequence numbers,
interrupt entries by chunkID, I/O values by per-processor consumption
order, DMA bursts by commit slot -- slicing them at a checkpoint is
exact, with no log rewriting.

Checkpoints are taken *logically* at the finalization of the n-th
commit; speculative chunks in flight at that wall-clock instant are,
by construction, not part of the committed state and simply re-execute
during the interval replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.program import ThreadState


@dataclass(frozen=True)
class IntervalCheckpoint:
    """Committed architectural state at GCC = ``commit_index``.

    ``commit_index`` counts *logical commits in grant order*, i.e. the
    position in the recording's fingerprint/commit sequence, including
    DMA bursts (which occupy PI-log entries in Order&Size/OrderOnly).
    ``io_consumed`` / ``dma_consumed`` are per-log consumption cursors
    at that point.
    """

    commit_index: int
    memory_image: dict[int, int]
    thread_states: dict[int, ThreadState]
    committed_counts: dict[int, int]
    io_consumed: dict[int, int]
    dma_consumed: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.commit_index < 0:
            raise ConfigurationError("commit_index must be >= 0")

    @property
    def processor_grants(self) -> int:
        """Processor-chunk grants among the first ``commit_index``
        commits (the PicoLog commit-slot counter's value at the
        checkpoint)."""
        return sum(self.committed_counts.values())


@dataclass
class IntervalCheckpointStore:
    """The checkpoints taken during one recording, in GCC order."""

    interval: int = 0
    checkpoints: list[IntervalCheckpoint] = field(default_factory=list)

    def add(self, checkpoint: IntervalCheckpoint) -> None:
        """Append the next checkpoint (GCC order enforced)."""
        if (self.checkpoints
                and checkpoint.commit_index
                <= self.checkpoints[-1].commit_index):
            raise ConfigurationError(
                "interval checkpoints must advance in commit order")
        self.checkpoints.append(checkpoint)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def __iter__(self):
        return iter(self.checkpoints)

    def at_or_before(self, commit_index: int) -> IntervalCheckpoint:
        """The newest checkpoint with GCC <= ``commit_index`` (what a
        debugger replaying towards a crash point would pick)."""
        eligible = [c for c in self.checkpoints
                    if c.commit_index <= commit_index]
        if not eligible:
            raise ConfigurationError(
                f"no checkpoint at or before commit {commit_index}")
        return eligible[-1]

    def by_index(self, position: int) -> IntervalCheckpoint:
        """The ``position``-th checkpoint taken."""
        if not 0 <= position < len(self.checkpoints):
            raise ConfigurationError(
                f"checkpoint index {position} out of range "
                f"(have {len(self.checkpoints)})")
        return self.checkpoints[position]

    def full_size_bits(self, address_bits: int = 32,
                       value_bits: int = 32) -> int:
        """Storage cost of the grid with every checkpoint standalone.

        Each checkpoint is billed its complete memory image (one
        address/value pair per line) plus the per-processor counters;
        the serialized container stores these images, zlib-compressed.
        """
        pair = _line_pair_bits(address_bits, value_bits)
        total = 0
        for checkpoint in self.checkpoints:
            total += len(checkpoint.memory_image) * pair
            total += _cursor_bits(checkpoint, value_bits)
        return total

    def delta_size_bits(self, address_bits: int = 32,
                        value_bits: int = 32) -> int:
        """Storage cost with each checkpoint stored as a delta.

        Consecutive commit-boundary images overlap almost entirely (a
        checkpoint interval only dirties the lines its commits wrote),
        so an incremental scheme -- the first checkpoint full, each
        later one only the added/changed lines against its predecessor
        -- is how a ReVive/SafetyNet-style substrate would actually
        ship the grid.  Restoring checkpoint k replays deltas 1..k
        onto the base image; replay latency is unaffected (restoration
        is off the critical path).
        """
        pair = _line_pair_bits(address_bits, value_bits)
        total = 0
        previous: dict[int, int] = {}
        for checkpoint in self.checkpoints:
            image = checkpoint.memory_image
            changed = sum(
                1 for address, value in image.items()
                if previous.get(address) != value)
            # Lines vanishing from the image cannot happen (committed
            # memory only accretes), but bill deletions defensively.
            deleted = sum(1 for address in previous
                          if address not in image)
            total += (changed + deleted) * pair
            total += _cursor_bits(checkpoint, value_bits)
            previous = image
        return total


def _line_pair_bits(address_bits: int, value_bits: int) -> int:
    """Validated cost of one stored (address, value) line."""
    if address_bits < 1 or value_bits < 1:
        raise ConfigurationError(
            f"line widths must be positive, got address_bits="
            f"{address_bits}, value_bits={value_bits}")
    return address_bits + value_bits


def _cursor_bits(checkpoint: IntervalCheckpoint,
                 value_bits: int) -> int:
    """Non-image payload of one checkpoint: commit counters, log
    cursors, and per-thread architectural state (flat estimate)."""
    counters = (1 + len(checkpoint.committed_counts)
                + len(checkpoint.io_consumed) + 1)
    threads = len(checkpoint.thread_states) * 4
    return (counters + threads) * value_bits
