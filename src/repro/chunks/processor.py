"""Chunk-building processor: interprets one thread as a chunk stream.

The processor is where BulkSC-style execution actually happens.  It owns
one hardware thread's architectural state and turns its program into a
sequence of chunks:

* It executes ops into the current chunk, buffering stores, tracking the
  read/write footprints, and charging coarse timing.
* It keeps up to ``simultaneous_chunks`` uncommitted chunks alive;
  same-processor chunks chain -- a newer chunk reads through the write
  buffers of its uncommitted predecessors.
* It truncates chunks for every reason in Table 4: size limit,
  program end, uncached I/O and special instructions (deterministic),
  speculative cache overflow and repeated collision (non-deterministic).
* It rolls the thread back on squash by restoring the squashed chunk's
  start-state snapshot, re-queueing any interrupt handlers whose
  initiating chunk was squashed.
* It injects interrupt handlers at chunk boundaries and executes
  pending boundary ops (I/O, special instructions) when the truncated
  chunk commits, exactly as Section 4.2 prescribes.

The processor knows nothing about logs or replay: the machine above it
decides chunk targets (standard size, CS-forced size, collision-reduced
size) and supplies the I/O value source, which is what differs between
recording and replaying.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.chunks.cache import SpeculativeCache, WriteFootprint
from repro.chunks.chunk import Chunk, ChunkState, TruncationReason
from repro.errors import ExecutionError
from repro.machine.events import InterruptEvent, build_handler_ops
from repro.machine.memory import MainMemory
from repro.machine.program import (
    BARRIER_SPIN_COST,
    LOCK_SPIN_COST,
    WORD_MASK,
    Op,
    OpKind,
    ThreadState,
    compute_mix,
)
from repro.machine.timing import MachineConfig
from repro.telemetry.tracer import NULL_TRACER

_STAGE_START = 0
_STAGE_BARRIER_WAIT = 1

# Bound at import for the squash test, which runs per uncommitted chunk
# per remote commit: on Python 3.11 an enum class attribute read is a
# metaclass __getattr__ call.
_COMMITTING = ChunkState.COMMITTING

#: Ops that end a chunk to run between chunks -> the reason recorded.
_BOUNDARY_REASONS = {OpKind.IO_LOAD: TruncationReason.IO_BOUNDARY,
                     OpKind.IO_STORE: TruncationReason.IO_BOUNDARY,
                     OpKind.SPECIAL: TruncationReason.SPECIAL}


@dataclass
class ProcessorStats:
    """Per-processor counters consumed by the analysis layer."""

    chunks_committed: int = 0
    instructions_committed: int = 0
    boundary_ops_committed: int = 0
    squashes: int = 0
    squashed_instructions: int = 0
    overflow_truncations: int = 0
    collision_truncations: int = 0
    io_truncations: int = 0
    handler_chunks: int = 0
    stall_cycles: float = 0.0
    spin_instructions: int = 0

    def as_dict(self) -> dict:
        """Flat JSON-ready counter dump (see docs/INTERNALS.md)."""
        return {
            "chunks_committed": self.chunks_committed,
            "instructions_committed": self.instructions_committed,
            "boundary_ops_committed": self.boundary_ops_committed,
            "squashes": self.squashes,
            "squashed_instructions": self.squashed_instructions,
            "overflow_truncations": self.overflow_truncations,
            "collision_truncations": self.collision_truncations,
            "io_truncations": self.io_truncations,
            "handler_chunks": self.handler_chunks,
            "stall_cycles": self.stall_cycles,
            "spin_instructions": self.spin_instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessorStats":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)


class ChunkProcessor:
    """One simulated core executing its thread as a chunk stream."""

    def __init__(
        self,
        proc_id: int,
        ops: tuple[Op, ...],
        config: MachineConfig,
        cache: SpeculativeCache,
        tracer=None,
    ) -> None:
        self.proc_id = proc_id
        self.ops = ops
        self.config = config
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._m_squashes = self.tracer.metrics.counter("squashes")
        self.spec_state = ThreadState(thread_id=proc_id)
        if not ops:
            self.spec_state.finished = True
        self.outstanding: list[Chunk] = []
        self.committed_count = 0
        self.next_seq = 1
        self.pending_handlers: deque[InterruptEvent] = deque()
        self.exec_free_time = 0.0
        self.stats = ProcessorStats()
        self._squash_counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Build eligibility and chunk construction
    # ------------------------------------------------------------------

    def can_build(self) -> bool:
        """True when the core can start constructing another chunk."""
        if len(self.outstanding) >= self.config.simultaneous_chunks:
            return False
        if self.outstanding and self.outstanding[-1].pending_boundary_op:
            # The newest chunk ends at an uncached instruction; nothing
            # may execute past it until that chunk commits and the
            # boundary op runs (Section 4.2.2).
            return False
        if self.outstanding and self.outstanding[-1].blocks_successors:
            # Replay: the newest chunk must first commit its
            # back-to-back continuation piece (Section 4.2.3).
            return False
        if (self.spec_state.finished and not self.spec_state.in_handler
                and not self._handler_eligible()):
            return False
        return True

    def _handler_eligible(self) -> bool:
        """Can the head pending handler be injected into the next
        chunk?  (Replay handlers are pinned to their logged chunkID.)"""
        if not self.pending_handlers or self.spec_state.in_handler:
            return False
        return self.pending_handlers[0].replay_chunk_id in (
            0, self.next_seq)

    def has_uncommitted_work(self) -> bool:
        """True while chunks are in flight or the thread can still run."""
        return (bool(self.outstanding)
                or not self.spec_state.finished
                or self.spec_state.in_handler
                or bool(self.pending_handlers))

    @property
    def committed_state(self) -> ThreadState:
        """The committed architectural state: the oldest uncommitted
        chunk's start state (speculation builds linearly from it and
        squashes roll back to it), or the live state when nothing is
        outstanding."""
        if self.outstanding:
            return self.outstanding[0].start_state
        return self.spec_state

    def squash_count_for(self, seq: int) -> int:
        """Times the chunk with ``seq`` has been squashed and rebuilt."""
        return self._squash_counts.get(seq, 0)

    def build_chunk(
        self,
        now: float,
        target_size: int,
        target_reason: TruncationReason = TruncationReason.SIZE_LIMIT,
        forced_limit: int | None = None,
        memory: MainMemory | None = None,
    ) -> Chunk:
        """Construct and (behaviorally) execute the next chunk.

        ``target_size`` is the instruction budget for this chunk;
        ``target_reason`` is the truncation reason to report if the
        budget is exhausted (``SIZE_LIMIT`` normally, ``CS_FORCED`` or
        ``COLLISION_REDUCED`` when the machine shrank the budget).
        ``forced_limit`` models stochastic early overflow; if hit first
        it wins with reason ``CACHE_OVERFLOW``.
        """
        if memory is None:
            raise ExecutionError("build_chunk requires the main memory")
        if not self.can_build():
            raise ExecutionError(
                f"processor {self.proc_id} cannot build a chunk now")
        # Snapshot *before* handler injection: a squash must roll back
        # to the un-injected state (the handler event is re-queued by
        # squash_from), otherwise the handler would execute twice --
        # once from the restored in-progress state and once from the
        # re-queued event.
        start_state = self.spec_state.snapshot()
        is_handler = False
        if self._handler_eligible():
            event = self.pending_handlers.popleft()
            self.spec_state.enter_handler(build_handler_ops(
                event.vector, event.payload, event.handler_ops))
            is_handler = True
        chunk = Chunk(
            processor=self.proc_id,
            logical_seq=self.next_seq,
            start_state=start_state,
            signature_config=self.config.signature,
            is_handler=is_handler,
            write_footprint=WriteFootprint(self.cache.config),
        )
        if is_handler:
            chunk.handler_event = event
        chunk.build_time = now
        chunk.target_size = target_size
        self.next_seq += 1
        self._execute_into(chunk, target_size, target_reason,
                           forced_limit, memory)
        chunk.state = ChunkState.BUILDING
        self.outstanding.append(chunk)
        return chunk

    def build_continuation(
        self,
        logical_seq: int,
        piece_index: int,
        now: float,
        remaining_budget: int,
        target_reason: TruncationReason,
        memory: MainMemory,
    ) -> Chunk:
        """Build a back-to-back later piece of a split logical chunk.

        Used during replay when a chunk unexpectedly overflows before
        reaching its recorded size: the shorter piece commits and the
        remainder commits immediately after (Section 4.2.3).  The piece
        shares the parent's ``logical_seq`` and consumes no ordering
        entry; ``next_seq`` is not advanced by pieces.
        """
        chunk = Chunk(
            processor=self.proc_id,
            logical_seq=logical_seq,
            start_state=self.spec_state.snapshot(),
            signature_config=self.config.signature,
            piece_index=piece_index,
            is_handler=False,
            write_footprint=WriteFootprint(self.cache.config),
        )
        chunk.build_time = now
        chunk.target_size = remaining_budget
        self._execute_into(chunk, remaining_budget, target_reason,
                           None, memory)
        chunk.state = ChunkState.BUILDING
        self.outstanding.append(chunk)
        return chunk

    # ------------------------------------------------------------------
    # The interpreter
    # ------------------------------------------------------------------

    def _current_op(self, state: ThreadState) -> Op | None:
        """Next op to execute, honouring an active interrupt handler."""
        if state.handler_ops is not None:
            if state.handler_index < len(state.handler_ops):
                return state.handler_ops[state.handler_index]
            # Handler finished: resume the interrupted op.
            state.exit_handler()
        if state.op_index >= len(self.ops):
            state.finished = True
            return None
        return self.ops[state.op_index]

    @staticmethod
    def _advance(state: ThreadState) -> None:
        """Step past the current op."""
        if state.handler_ops is not None:
            state.handler_index += 1
        else:
            state.op_index += 1

    def _read_value(
        self,
        address: int,
        current: Chunk,
        memory: MainMemory,
    ) -> int:
        """Load semantics: own buffer, older uncommitted chunks
        (newest first), then committed memory.  The LOAD path of
        :meth:`_execute_into` inlines the same lookup."""
        if address in current.write_buffer:
            return current.write_buffer[address]
        for chunk in reversed(self.outstanding):
            if address in chunk.write_buffer:
                return chunk.write_buffer[address]
        return memory.read(address)

    def _execute_into(
        self,
        chunk: Chunk,
        target_size: int,
        target_reason: TruncationReason,
        forced_limit: int | None,
        memory: MainMemory,
    ) -> None:
        """Run the thread into ``chunk`` until a truncation condition.

        The loop body runs once per op.  A LOAD, STORE or COMPUTE op
        calls no method of the chunk, the cache or the signatures: a
        load that no write buffer holds calls ``MainMemory.read``,
        COMPUTE ``compute_mix``, and nothing else is a call.
        Everything that stays fixed while one chunk builds is bound
        before the loop: the enum members it tests, the line shift, the
        load stall per miss level, the L1's sets and sharer table, the
        L2 filter's lines, the chunk's footprint and the write buffers
        of older uncommitted chunks.  The op cursor and the
        instruction, cycle, retired, L1-hit, L2-hit and memory-access
        counts live in locals and are written back on every exit.

        A load's or store's L1 hit check, its L1 miss (an inline copy of
        ``SpeculativeCache.fill``, sharer table included) and the
        store's footprint overflow check are inline copies of
        ``SpeculativeCache.access`` and ``write_would_overflow``, so
        wrappers on those methods see only calls made outside this
        loop; the rarer RMW, LOCK, UNLOCK and BARRIER ops call
        ``SpeculativeCache.fill`` on a miss.  A load of the line this
        L1 touched last, when that touch also put it in the read set,
        and a store to it, when the touch put it in the footprint, are
        the L1 hits they must be, and cost one comparison: the line is
        already its set's most recently used, and nothing else touches
        this L1 while the chunk builds.  ``last_read`` and
        ``last_written`` name that line (-1 when the touch did not
        add it to that set); any other touch of the L1 resets them.

        ``compute_mix`` is still looked up here by name, never at
        import, so a wrapper installed on it before the build sees
        every call.  The chunk's read and write signatures are built
        once, from its exact line sets, when the loop ends: a build is
        a single engine event, so no commit can test them earlier.
        """
        LOAD, STORE, COMPUTE, TRAP = (
            OpKind.LOAD, OpKind.STORE, OpKind.COMPUTE, OpKind.TRAP)
        RMW, LOCK, UNLOCK, BARRIER = (
            OpKind.RMW, OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER)
        PROGRAM_END = TruncationReason.PROGRAM_END
        OVERFLOW = TruncationReason.CACHE_OVERFLOW
        state = self.spec_state
        effective = target_size
        reason_at_target = target_reason
        if forced_limit is not None and forced_limit < effective:
            effective = max(1, forced_limit)
            reason_at_target = OVERFLOW
        ops = self.ops
        op_count = len(ops)
        line_shift = self.config.line_shift
        mix = compute_mix
        cache = self.cache
        sets = cache.sets
        set_mask = cache.set_mask
        ways = cache.config.ways
        fill = cache.fill
        sharers = cache.sharers
        holders_of = sharers.get
        sharer_bit = cache.sharer_bit
        if cache.shared_l2 is not None:
            l2_lines = cache.shared_l2.lines
            l2_capacity = cache.shared_l2.capacity
        else:
            # No L2 filter serves every miss from memory, as an empty
            # one that keeps no line does.
            l2_lines = OrderedDict()
            l2_capacity = 0
        # The footprint has this cache's geometry (build_chunk makes it
        # so): a line's set index is the same in both.
        written = chunk.write_footprint.lines
        per_set = chunk.write_footprint.per_set
        speculative_ways = cache.config.speculative_ways
        read = chunk.read_lines
        buffer = chunk.write_buffer
        # Loads see older uncommitted chunks newest first; those chunks
        # are built and memory changes only on commit, so neither moves
        # while this chunk builds.
        older = [c.write_buffer for c in reversed(self.outstanding)]
        read_memory = memory.read
        # Timing for a load that misses the L1: the exposed fraction of
        # the miss latency.  A hit adds nothing.
        timing = self.config.timing
        l2_stall = timing.l2_hit_cycles * timing.chunk_load_exposure
        memory_stall = timing.memory_cycles * timing.chunk_load_exposure
        miss_stall = {"l2": l2_stall, "memory": memory_stall}
        index = state.op_index
        instructions = chunk.instructions
        cycles = chunk.exec_cycles
        retired = state.retired
        hits = l2_hits = memory_accesses = 0
        last_read = last_written = -1
        try:
            while True:
                if state.handler_ops is None and index < op_count:
                    op = ops[index]
                else:
                    state.op_index = index
                    op = self._current_op(state)
                    if op is None:
                        chunk.truncation = PROGRAM_END
                        break
                kind = op.kind
                budget = effective - instructions
                if kind is LOAD:
                    if budget < 1:
                        chunk.truncation = reason_at_target
                        break
                    address = op.address
                    line = address >> line_shift
                    if address in buffer:
                        state.accumulator = buffer[address]
                    else:
                        for older_buffer in older:
                            if address in older_buffer:
                                state.accumulator = older_buffer[address]
                                break
                        else:
                            state.accumulator = read_memory(address)
                    if line == last_read:
                        hits += 1
                    else:
                        read.add(line)
                        cache_set = sets[line & set_mask]
                        if line in cache_set:
                            cache_set.move_to_end(line)
                            hits += 1
                        else:
                            if line in l2_lines:
                                l2_lines.move_to_end(line)
                                l2_hits += 1
                                cycles += l2_stall
                            else:
                                l2_lines[line] = None
                                if len(l2_lines) > l2_capacity:
                                    l2_lines.popitem(last=False)
                                memory_accesses += 1
                                cycles += memory_stall
                            cache_set[line] = None
                            sharers[line] = holders_of(line, 0) | sharer_bit
                            if len(cache_set) > ways:
                                victim = cache_set.popitem(last=False)[0]
                                holders = sharers[victim] ^ sharer_bit
                                if holders:
                                    sharers[victim] = holders
                                else:
                                    del sharers[victim]
                        if last_written != line:
                            last_written = -1
                        last_read = line
                    instructions += 1
                    retired += 1
                elif kind is STORE:
                    if budget < 1:
                        chunk.truncation = reason_at_target
                        break
                    line = op.address >> line_shift
                    if line == last_written:
                        hits += 1
                    else:
                        slot = line & set_mask
                        if line not in written:
                            if per_set[slot] >= speculative_ways:
                                chunk.truncation = OVERFLOW
                                break
                            written.add(line)
                            per_set[slot] += 1
                        # Stores are fully buffered: LRU update, no
                        # stall.
                        cache_set = sets[slot]
                        if line in cache_set:
                            cache_set.move_to_end(line)
                            hits += 1
                        else:
                            if line in l2_lines:
                                l2_lines.move_to_end(line)
                                l2_hits += 1
                            else:
                                l2_lines[line] = None
                                if len(l2_lines) > l2_capacity:
                                    l2_lines.popitem(last=False)
                                memory_accesses += 1
                            cache_set[line] = None
                            sharers[line] = holders_of(line, 0) | sharer_bit
                            if len(cache_set) > ways:
                                victim = cache_set.popitem(last=False)[0]
                                holders = sharers[victim] ^ sharer_bit
                                if holders:
                                    sharers[victim] = holders
                                else:
                                    del sharers[victim]
                        if last_read != line:
                            last_read = -1
                        last_written = line
                    value = (op.value if op.value is not None
                             else state.accumulator)
                    buffer[op.address] = value & WORD_MASK
                    instructions += 1
                    retired += 1
                elif kind is COMPUTE or kind is TRAP:
                    if budget < 1:
                        chunk.truncation = reason_at_target
                        break
                    remaining = (state.compute_remaining
                                 if state.compute_remaining else op.count)
                    step = min(remaining, budget)
                    state.accumulator = mix(state.accumulator, step)
                    instructions += step
                    retired += step
                    left = remaining - step
                    state.compute_remaining = left
                    if left:
                        continue
                elif kind is RMW:
                    if budget < 1:
                        chunk.truncation = reason_at_target
                        break
                    line = op.address >> line_shift
                    slot = line & set_mask
                    if line not in written:
                        if per_set[slot] >= speculative_ways:
                            chunk.truncation = OVERFLOW
                            break
                        written.add(line)
                        per_set[slot] += 1
                    old = self._read_value(op.address, chunk, memory)
                    delta = op.value if op.value is not None else 1
                    buffer[op.address] = (old + delta) & WORD_MASK
                    read.add(line)
                    cache_set = sets[slot]
                    last_read = last_written = -1
                    if line in cache_set:
                        cache_set.move_to_end(line)
                        hits += 1
                    else:
                        cycles += miss_stall[fill(line)]
                    state.accumulator = old
                    instructions += 1
                    retired += 1
                elif kind is LOCK:
                    if budget < LOCK_SPIN_COST:
                        chunk.truncation = reason_at_target
                        break
                    line = op.address >> line_shift
                    slot = line & set_mask
                    # Checked now, added only when the lock is taken.
                    if (line not in written
                            and per_set[slot] >= speculative_ways):
                        chunk.truncation = OVERFLOW
                        break
                    value = self._read_value(op.address, chunk, memory)
                    read.add(line)
                    cache_set = sets[slot]
                    last_read = last_written = -1
                    if line in cache_set:
                        cache_set.move_to_end(line)
                        hits += 1
                    else:
                        cycles += miss_stall[fill(line)]
                    if value != 0:
                        # The lock is held and, within an isolated chunk,
                        # its value cannot change: the remaining budget
                        # is pure spinning.  Charge it in bulk.
                        spins = budget // LOCK_SPIN_COST
                        cost = spins * LOCK_SPIN_COST
                        instructions += cost
                        retired += cost
                        self.stats.spin_instructions += cost
                        chunk.truncation = reason_at_target
                        break
                    buffer[op.address] = 1
                    if line not in written:
                        written.add(line)
                        per_set[slot] += 1
                    instructions += LOCK_SPIN_COST
                    retired += LOCK_SPIN_COST
                elif kind is UNLOCK:
                    if budget < 1:
                        chunk.truncation = reason_at_target
                        break
                    line = op.address >> line_shift
                    slot = line & set_mask
                    if line not in written:
                        if per_set[slot] >= speculative_ways:
                            chunk.truncation = OVERFLOW
                            break
                        written.add(line)
                        per_set[slot] += 1
                    buffer[op.address] = 0
                    cache_set = sets[slot]
                    last_read = last_written = -1
                    if line in cache_set:
                        cache_set.move_to_end(line)
                        hits += 1
                    else:
                        fill(line)
                    instructions += 1
                    retired += 1
                elif kind is BARRIER:
                    line = op.address >> line_shift
                    slot = line & set_mask
                    if state.stage == _STAGE_START:
                        if budget < 1:
                            chunk.truncation = reason_at_target
                            break
                        if line not in written:
                            if per_set[slot] >= speculative_ways:
                                chunk.truncation = OVERFLOW
                                break
                            written.add(line)
                            per_set[slot] += 1
                        old = self._read_value(op.address, chunk, memory)
                        buffer[op.address] = (old + 1) & WORD_MASK
                        read.add(line)
                        cache_set = sets[slot]
                        last_read = last_written = -1
                        if line in cache_set:
                            cache_set.move_to_end(line)
                            hits += 1
                        else:
                            cycles += miss_stall[fill(line)]
                        state.barrier_target = (
                            (old // op.count + 1) * op.count)
                        state.stage = _STAGE_BARRIER_WAIT
                        instructions += 1
                        retired += 1
                        continue
                    # Waiting phase.
                    if budget < BARRIER_SPIN_COST:
                        chunk.truncation = reason_at_target
                        break
                    value = self._read_value(op.address, chunk, memory)
                    read.add(line)
                    cache_set = sets[slot]
                    last_read = last_written = -1
                    if line in cache_set:
                        cache_set.move_to_end(line)
                        hits += 1
                    else:
                        cycles += miss_stall[fill(line)]
                    if value < state.barrier_target:
                        spins = budget // BARRIER_SPIN_COST
                        cost = spins * BARRIER_SPIN_COST
                        instructions += cost
                        retired += cost
                        self.stats.spin_instructions += cost
                        chunk.truncation = reason_at_target
                        break
                    state.stage = _STAGE_START
                    state.barrier_target = 0
                    instructions += BARRIER_SPIN_COST
                    retired += BARRIER_SPIN_COST
                else:
                    boundary = _BOUNDARY_REASONS.get(kind)
                    if boundary is None:
                        raise ExecutionError(f"unhandled op kind {kind}")
                    chunk.pending_boundary_op = op
                    chunk.truncation = boundary
                    break
                # The op completed: step past it (as _advance does).
                if state.handler_ops is None:
                    index += 1
                else:
                    state.handler_index += 1
        finally:
            state.op_index = index
            chunk.instructions = instructions
            chunk.exec_cycles = cycles
            state.retired = retired
            cache.hits += hits
            cache.l2_hits += l2_hits
            cache.memory_accesses += memory_accesses
        chunk.end_state = state.snapshot()
        chunk.exec_cycles += timing.instruction_cycles(instructions)
        chunk.read_signature.insert_all(read)
        chunk.write_signature.insert_all(written)

    # ------------------------------------------------------------------
    # Commit, boundary ops, squash, interrupts
    # ------------------------------------------------------------------

    def on_commit(self, chunk: Chunk, io_source) -> None:
        """Finalize a committed chunk on this processor.

        Pops the chunk from the outstanding window, executes its pending
        boundary op (if any) against ``io_source`` -- an object with
        ``io_load(processor, port) -> int`` and
        ``io_store(processor, port, value)`` -- and updates counters.
        """
        if not self.outstanding or self.outstanding[0] is not chunk:
            raise ExecutionError(
                f"processor {self.proc_id} committing out of order: "
                f"{chunk!r}")
        self.outstanding.pop(0)
        self._squash_counts.pop(chunk.logical_seq, None)
        if chunk.piece_index == 0:
            self.committed_count += 1
        self.stats.chunks_committed += 1
        self.stats.instructions_committed += chunk.instructions
        if chunk.is_handler:
            self.stats.handler_chunks += 1
        if chunk.truncation is TruncationReason.CACHE_OVERFLOW:
            self.stats.overflow_truncations += 1
        elif chunk.truncation is TruncationReason.COLLISION_REDUCED:
            self.stats.collision_truncations += 1
        elif chunk.truncation in (TruncationReason.IO_BOUNDARY,
                                  TruncationReason.SPECIAL):
            self.stats.io_truncations += 1
        boundary = chunk.pending_boundary_op
        if boundary is not None:
            self._execute_boundary(chunk, boundary, io_source)

    def _execute_boundary(self, chunk: Chunk, op: Op, io_source) -> None:
        """Run an uncached/special instruction between chunks.

        The instruction executes non-speculatively right after its
        truncated chunk commits; its effects land in the speculative
        frontier state from which the next chunk will build (building
        was blocked on it, so the frontier is exactly this chunk's end
        state).
        """
        state = self.spec_state
        if op.kind is OpKind.IO_LOAD:
            value = io_source.io_load(self.proc_id, op.address)
            state.accumulator = value & WORD_MASK
            chunk.io_values.append(value & WORD_MASK)
        elif op.kind is OpKind.IO_STORE:
            io_source.io_store(self.proc_id, op.address, state.accumulator)
        # SPECIAL instructions have no architectural side effect here.
        state.retired += 1
        self.stats.boundary_ops_committed += 1
        self._advance(state)
        if self._current_op(state) is None:
            state.finished = True

    def squash_from(self, index: int, now: float,
                    cause: str = "") -> list[Chunk]:
        """Squash outstanding chunks ``index`` onward; roll back state.

        Returns the squashed chunks (newest last) so the machine can
        cancel their in-flight events.  Interrupt handlers whose
        initiating chunk was squashed are re-queued for re-injection.
        ``cause`` tags the telemetry events (``collision:pN``,
        ``interrupt``, ...); it has no architectural effect.
        """
        victims = self.outstanding[index:]
        if not victims:
            return []
        del self.outstanding[index:]
        requeue: list[InterruptEvent] = []
        for chunk in victims:
            chunk.state = ChunkState.SQUASHED
            chunk.squash_count += 1
            self.stats.squashes += 1
            self.stats.squashed_instructions += chunk.instructions
            self._m_squashes.inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    f"p{self.proc_id}", f"squash c{chunk.logical_seq}",
                    now, category="squash", seq=chunk.logical_seq,
                    piece=chunk.piece_index,
                    instructions=chunk.instructions,
                    cause=cause or "unknown")
            count = self._squash_counts.get(chunk.logical_seq, 0)
            self._squash_counts[chunk.logical_seq] = count + 1
            if chunk.is_handler and chunk.piece_index == 0:
                requeue.append(chunk.handler_event)
        for event in reversed(requeue):
            self.pending_handlers.appendleft(event)
        self.spec_state.restore(victims[0].start_state)
        # A squashed continuation piece keeps its logical_seq reserved:
        # piece 0 of that sequence number has already committed.
        self.next_seq = victims[0].logical_seq + (
            1 if victims[0].piece_index > 0 else 0)
        self.exec_free_time = now
        return victims

    def squash_if_conflicts(
        self,
        committing: Chunk,
        now: float,
        cause: str = "",
    ) -> list[Chunk]:
        """Squash from the oldest outstanding chunk that (signature-)
        conflicts with a remote committing chunk.

        A chunk that has not been granted commit conflicts when the
        committing chunk's *write* signature intersects its read or
        write signature (Appendix A).  Signature aliasing can make this
        a false positive; it is never a false negative for a true
        conflict.  The committing chunk's write keys are bound once,
        and each uncommitted chunk costs two ``isdisjoint`` calls on
        key sets.
        """
        written = committing.write_signature.keys
        for index, chunk in enumerate(self.outstanding):
            if chunk.state is _COMMITTING:
                continue
            if not (written.isdisjoint(chunk.read_signature.keys)
                    and written.isdisjoint(chunk.write_signature.keys)):
                return self.squash_from(index, now, cause=cause)
        return []

    def receive_interrupt(self, event: InterruptEvent, now: float) -> \
            list[Chunk]:
        """Queue an interrupt for handler injection at the next chunk
        boundary.  High-priority interrupts squash every outstanding
        chunk that has not yet been granted commit (Section 4.2.1).
        Returns any squashed chunks."""
        self.pending_handlers.append(event)
        if not event.high_priority:
            return []
        for index, chunk in enumerate(self.outstanding):
            if chunk.state is not ChunkState.COMMITTING:
                return self.squash_from(index, now, cause="interrupt")
        return []

    def committed_fingerprint_state(self) -> tuple:
        """Final architectural digest for determinism comparison."""
        return self.spec_state.architectural_key()
