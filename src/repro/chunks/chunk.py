"""Chunk lifecycle: the unit of atomic execution and of logging.

A chunk is a block of consecutive dynamic instructions executed
atomically and in isolation (Section 3.1).  Its stores live in a private
write buffer until commit; its read/write footprints are tracked both
exactly (Python sets, used for verification and statistics) and as
Bloom signatures (used for conflict detection, exactly as the hardware
would -- including false positives).

Chunks are identified by ``(processor, logical_seq)``.  ``logical_seq``
is the per-processor commit sequence number; it is what the Interrupt
log and CS log call the *chunkID*.  A logical chunk can be committed in
two back-to-back *pieces* during replay when an unexpected cache
overflow forces an early commit (Section 4.2.3); pieces share the
logical_seq and consume a single PI-log entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.chunks.cache import WriteFootprint
from repro.chunks.signature import Signature, SignatureConfig
from repro.machine.program import Op, ThreadState


class ChunkState(enum.Enum):
    """Lifecycle states of a chunk."""

    BUILDING = "building"
    COMPLETED = "completed"      # executed, waiting for commit grant
    REQUESTED = "requested"      # commit request sent to the arbiter
    COMMITTING = "committing"    # granted; propagation in flight
    COMMITTED = "committed"
    SQUASHED = "squashed"


class TruncationReason(enum.Enum):
    """Why a chunk ended before reaching the standard size (Table 4).

    ``SIZE_LIMIT`` and ``PROGRAM_END`` are the normal endings.
    ``IO_BOUNDARY`` and ``SPECIAL`` are deterministic truncations (the
    event reappears in replay, so nothing is logged).  ``CACHE_OVERFLOW``
    and ``COLLISION_REDUCED`` are the non-deterministic truncations that
    go to the CS log.  ``CS_FORCED`` marks a replay chunk truncated
    because the CS log said so.
    """

    SIZE_LIMIT = "size_limit"
    PROGRAM_END = "program_end"
    IO_BOUNDARY = "io_boundary"
    SPECIAL = "special"
    CACHE_OVERFLOW = "cache_overflow"
    COLLISION_REDUCED = "collision_reduced"
    CS_FORCED = "cs_forced"

    @property
    def is_nondeterministic(self) -> bool:
        """True for truncations that must be recorded in the CS log."""
        return self in (TruncationReason.CACHE_OVERFLOW,
                        TruncationReason.COLLISION_REDUCED)


@dataclass
class Chunk:
    """One atomically-executed block of instructions."""

    processor: int
    logical_seq: int
    start_state: ThreadState
    signature_config: SignatureConfig
    piece_index: int = 0
    is_handler: bool = False
    state: ChunkState = ChunkState.BUILDING
    instructions: int = 0
    target_size: int = 0
    truncation: TruncationReason = TruncationReason.SIZE_LIMIT
    write_buffer: dict[int, int] = field(default_factory=dict)
    read_lines: set[int] = field(default_factory=set)
    # Distinct written lines, counted per L1 set for the overflow check;
    # a processor passes one with its own cache's geometry.
    write_footprint: WriteFootprint = field(default_factory=WriteFootprint)
    exec_cycles: float = 0.0
    build_time: float = 0.0
    complete_time: float = 0.0
    request_time: float = 0.0
    grant_time: float = 0.0
    commit_time: float = 0.0
    squash_count: int = 0
    # Global chunk-commit count at grant time (PicoLog "commit slot").
    grant_slot: int = -1
    end_state: ThreadState | None = None
    pending_boundary_op: Op | None = None
    io_values: list[int] = field(default_factory=list)
    # The InterruptEvent whose handler this chunk initiates (handler
    # chunks only); kept so a squashed handler chunk can be re-queued.
    handler_event: object | None = None
    # Replay only: this piece ended short of its logical budget due to
    # an unexpected overflow, so no successor chunk may build until its
    # continuation piece commits back-to-back (Section 4.2.3).
    blocks_successors: bool = False

    def __post_init__(self) -> None:
        self.read_signature = Signature(self.signature_config)
        self.write_signature = Signature(self.signature_config)

    def record_write(self, line: int) -> None:
        """Note that the chunk wrote a cache line, signature included.

        For chunks built outside the interpreter (DMA bursts): the
        interpreter fills the line sets inline and builds both
        signatures once, when the chunk's build ends.
        """
        if self.write_footprint.add(line):
            self.write_signature.insert(line)

    @property
    def write_lines(self) -> set[int]:
        """Distinct cache lines the chunk has written.  Add to it only
        through :meth:`record_write` (the interpreter inlines the same
        step), which keeps the footprint's per-set counts in step."""
        return self.write_footprint.lines

    def truly_conflicts_with(self, committing: "Chunk") -> bool:
        """Exact-set conflict test (used by tests to bound false
        positives, never by the simulated hardware)."""
        return (not committing.write_lines.isdisjoint(self.read_lines)
                or not committing.write_lines.isdisjoint(self.write_lines))

    @property
    def is_speculative(self) -> bool:
        """True until the chunk has fully committed."""
        return self.state not in (ChunkState.COMMITTED, ChunkState.SQUASHED)

    @property
    def key(self) -> tuple[int, int, int]:
        """Stable identity: (processor, logical_seq, piece_index)."""
        return (self.processor, self.logical_seq, self.piece_index)

    def commit_fingerprint(self) -> tuple:
        """Digest compared between record and replay for determinism.

        Covers everything architecturally visible about the chunk: which
        processor, which position in that processor's commit sequence,
        how many instructions, the exact buffered writes, and the thread
        state it leaves behind.  Timing fields are deliberately excluded
        -- replay timing legitimately differs.
        """
        end_key = (self.end_state.architectural_key()
                   if self.end_state is not None else None)
        return (
            self.processor,
            self.logical_seq,
            self.piece_index,
            self.is_handler,
            self.instructions,
            tuple(sorted(self.write_buffer.items())),
            end_key,
        )

    def __repr__(self) -> str:
        return (f"Chunk(p{self.processor}, seq={self.logical_seq}"
                f"{'+' + str(self.piece_index) if self.piece_index else ''},"
                f" {self.state.value}, {self.instructions} inst,"
                f" {self.truncation.value})")
