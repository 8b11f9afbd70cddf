"""Tests for the chunk-building processor (the interpreter).

These drive :class:`ChunkProcessor` directly -- no arbiter, no engine --
so each op's chunk semantics can be pinned down precisely.
"""

import copy
import random

import pytest

from conftest import record_reads, small_config

from repro.chunks.cache import (
    CacheConfig,
    SharedL2Filter,
    SpeculativeCache,
    l1_group,
)
from repro.chunks.chunk import Chunk, ChunkState, TruncationReason
from repro.chunks.processor import ChunkProcessor
from repro.errors import ExecutionError
from repro.machine.events import InterruptEvent, build_handler_ops
from repro.machine.memory import MainMemory
from repro.machine.program import (
    BARRIER_SPIN_COST,
    LOCK_SPIN_COST,
    Op,
    OpKind,
    ThreadState,
    compute_mix,
)


class _NullIO:
    def __init__(self, values=None):
        self.values = list(values or [])
        self.stores = []

    def io_load(self, proc, port):
        return self.values.pop(0) if self.values else 0xDEAD

    def io_store(self, proc, port, value):
        self.stores.append((proc, port, value))


def make_processor(ops, config=None, memory=None):
    config = config or small_config()
    cache = SpeculativeCache(CacheConfig(config.l1_sets, config.l1_ways))
    proc = ChunkProcessor(0, ops, config, cache)
    return proc, (memory or MainMemory())


def build(proc, memory, target=64, reason=TruncationReason.SIZE_LIMIT,
          forced=None):
    return proc.build_chunk(0.0, target, reason, forced, memory)


def commit_head(proc, io=None):
    chunk = proc.outstanding[0]
    proc.on_commit(chunk, io or _NullIO())
    return chunk


class TestBasicInterpretation:
    def test_load_sets_accumulator(self):
        proc, memory = make_processor([Op(OpKind.LOAD, address=4)])
        memory.write(4, 77)
        chunk = build(proc, memory)
        assert proc.spec_state.accumulator == 77
        assert chunk.instructions == 1
        assert chunk.truncation is TruncationReason.PROGRAM_END

    def test_store_literal_buffers_value(self):
        proc, memory = make_processor([Op(OpKind.STORE, address=8,
                                          value=5)])
        chunk = build(proc, memory)
        assert chunk.write_buffer == {8: 5}
        assert memory.read(8) == 0  # not visible until commit

    def test_store_accumulator(self):
        proc, memory = make_processor([
            Op(OpKind.LOAD, address=1),
            Op(OpKind.STORE, address=2),
        ])
        memory.write(1, 42)
        chunk = build(proc, memory)
        assert chunk.write_buffer[2] == 42

    def test_compute_updates_accumulator(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=10)])
        build(proc, memory)
        assert proc.spec_state.accumulator == compute_mix(0, 10)

    def test_rmw_returns_old_value(self):
        proc, memory = make_processor([Op(OpKind.RMW, address=3,
                                          value=5)])
        memory.write(3, 10)
        chunk = build(proc, memory)
        assert proc.spec_state.accumulator == 10
        assert chunk.write_buffer[3] == 15

    def test_chunk_reads_own_writes(self):
        proc, memory = make_processor([
            Op(OpKind.STORE, address=9, value=123),
            Op(OpKind.LOAD, address=9),
        ])
        build(proc, memory)
        assert proc.spec_state.accumulator == 123

    def test_reads_chain_through_older_uncommitted_chunks(self):
        proc, memory = make_processor([
            Op(OpKind.STORE, address=9, value=1),
            Op(OpKind.STORE, address=9, value=2),
            Op(OpKind.LOAD, address=9),
            Op(OpKind.RMW, address=9, value=10),
        ], small_config(simultaneous_chunks=4))
        memory.write(9, 99)  # committed value, shadowed by both stores
        build(proc, memory, target=1)
        build(proc, memory, target=1)
        build(proc, memory, target=1)
        assert proc.spec_state.accumulator == 2  # newest older chunk
        rmw = build(proc, memory, target=1)
        assert proc.spec_state.accumulator == 2
        assert rmw.write_buffer[9] == 12

    def test_instruction_count_accumulates(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=7),
            Op(OpKind.LOAD, address=1),
            Op(OpKind.STORE, address=2, value=1),
        ])
        chunk = build(proc, memory)
        assert chunk.instructions == 9


class TestChunkSizing:
    def test_size_limit_truncation(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=500)])
        chunk = build(proc, memory, target=64)
        assert chunk.instructions == 64
        assert chunk.truncation is TruncationReason.SIZE_LIMIT

    def test_compute_splits_across_chunks(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=100),
            Op(OpKind.STORE, address=1),
        ])
        first = build(proc, memory, target=64)
        assert first.instructions == 64
        commit_head(proc)
        second = build(proc, memory, target=64)
        assert second.instructions == 37  # 36 compute + 1 store
        # The split must not perturb the accumulator value.
        assert second.write_buffer[1] == compute_mix(0, 100)

    def test_forced_limit_reports_overflow(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=500)])
        chunk = build(proc, memory, target=64, forced=20)
        assert chunk.instructions == 20
        assert chunk.truncation is TruncationReason.CACHE_OVERFLOW

    def test_program_end(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=5)])
        chunk = build(proc, memory, target=64)
        assert chunk.truncation is TruncationReason.PROGRAM_END
        assert proc.spec_state.finished

    def test_footprint_overflow_truncates_before_write(self):
        config = small_config(l1_sets=2, l1_ways=2)  # 2 spec ways/set
        sets = 2
        ops = [Op(OpKind.STORE, address=(i * sets) * 8, value=i)
               for i in range(3)]  # three lines, all set 0
        proc, memory = make_processor(ops, config)
        chunk = build(proc, memory, target=64)
        assert chunk.truncation is TruncationReason.CACHE_OVERFLOW
        assert chunk.instructions == 2  # the third store overflows

    def test_cannot_build_when_window_full(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=1000)])
        build(proc, memory, target=16)
        build(proc, memory, target=16)
        assert not proc.can_build()  # simultaneous_chunks == 2
        with pytest.raises(ExecutionError):
            build(proc, memory, target=16)


class TestLocks:
    def test_free_lock_acquired(self):
        proc, memory = make_processor([Op(OpKind.LOCK, address=40)])
        chunk = build(proc, memory)
        assert chunk.write_buffer[40] == 1
        assert chunk.instructions == LOCK_SPIN_COST

    def test_held_lock_spins_to_budget(self):
        proc, memory = make_processor([Op(OpKind.LOCK, address=40),
                                       Op(OpKind.COMPUTE, count=5)])
        memory.write(40, 1)
        chunk = build(proc, memory, target=64)
        assert chunk.truncation is TruncationReason.SIZE_LIMIT
        assert chunk.instructions == 64 - 64 % LOCK_SPIN_COST
        assert 40 not in chunk.write_buffer
        # Next chunk spins again (state unchanged).
        commit_head(proc)
        assert proc.spec_state.op_index == 0

    def test_spin_then_acquire_after_release(self):
        proc, memory = make_processor([Op(OpKind.LOCK, address=40),
                                       Op(OpKind.UNLOCK, address=40)])
        memory.write(40, 1)
        first = build(proc, memory, target=32)
        commit_head(proc)
        memory.write(40, 0)  # remote release becomes visible
        second = build(proc, memory, target=32)
        assert second.write_buffer[40] == 0  # acquired then released
        assert proc.spec_state.finished

    def test_lock_unlock_within_chunk_nets_to_free(self):
        proc, memory = make_processor([
            Op(OpKind.LOCK, address=40),
            Op(OpKind.RMW, address=48, value=1),
            Op(OpKind.UNLOCK, address=40),
        ])
        chunk = build(proc, memory)
        assert chunk.write_buffer[40] == 0
        assert chunk.write_buffer[48] == 1


class TestBarriers:
    def test_last_arrival_passes_immediately(self):
        proc, memory = make_processor([Op(OpKind.BARRIER, address=80,
                                          count=2)])
        memory.write(80, 1)  # one thread already arrived
        chunk = build(proc, memory)
        assert proc.spec_state.finished
        assert chunk.write_buffer[80] == 2

    def test_early_arrival_spins(self):
        proc, memory = make_processor([Op(OpKind.BARRIER, address=80,
                                          count=2)])
        chunk = build(proc, memory, target=32)
        assert not proc.spec_state.finished
        assert proc.spec_state.barrier_target == 2
        assert chunk.write_buffer[80] == 1

    def test_spinner_passes_once_count_reached(self):
        proc, memory = make_processor([Op(OpKind.BARRIER, address=80,
                                          count=2)])
        build(proc, memory, target=32)
        commit_head(proc)
        memory.write(80, 2)  # the other thread's increment commits
        build(proc, memory, target=32)
        assert proc.spec_state.finished

    def test_barrier_reusable(self):
        """The counting barrier works across generations."""
        proc, memory = make_processor([
            Op(OpKind.BARRIER, address=80, count=2),
            Op(OpKind.BARRIER, address=80, count=2),
        ])
        memory.write(80, 1)
        build(proc, memory, target=16)   # passes gen 1, spins on gen 2
        commit_head(proc)
        memory.write(80, 4)  # the other thread reaches generation 2
        build(proc, memory, target=16)
        assert proc.spec_state.finished


class TestBoundaryOps:
    def test_io_load_truncates_and_blocks(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=3),
            Op(OpKind.IO_LOAD, address=2),
            Op(OpKind.STORE, address=1),
        ])
        chunk = build(proc, memory)
        assert chunk.truncation is TruncationReason.IO_BOUNDARY
        assert chunk.pending_boundary_op is not None
        assert chunk.instructions == 3
        assert not proc.can_build()  # blocked until the IO executes

    def test_io_load_value_lands_in_accumulator(self):
        proc, memory = make_processor([
            Op(OpKind.IO_LOAD, address=2),
            Op(OpKind.STORE, address=1),
        ])
        chunk = build(proc, memory)
        commit_head(proc, _NullIO(values=[4242]))
        assert proc.spec_state.accumulator == 4242
        assert chunk.io_values == [4242]
        follow = build(proc, memory)
        assert follow.write_buffer[1] == 4242

    def test_io_store_sends_accumulator(self):
        proc, memory = make_processor([
            Op(OpKind.LOAD, address=1),
            Op(OpKind.IO_STORE, address=6),
        ])
        memory.write(1, 55)
        build(proc, memory)
        io = _NullIO()
        commit_head(proc, io)
        assert io.stores == [(0, 6, 55)]

    def test_special_truncates(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=2),
            Op(OpKind.SPECIAL),
        ])
        chunk = build(proc, memory)
        assert chunk.truncation is TruncationReason.SPECIAL
        commit_head(proc)
        assert proc.spec_state.finished

    def test_trap_runs_inline(self):
        """Traps do NOT truncate (Section 4.2.1)."""
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=2),
            Op(OpKind.TRAP, count=8),
            Op(OpKind.STORE, address=1, value=1),
        ])
        chunk = build(proc, memory, target=64)
        assert chunk.truncation is TruncationReason.PROGRAM_END
        assert chunk.instructions == 11


class TestSquash:
    def test_squash_restores_state(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=30),
            Op(OpKind.STORE, address=1),
        ])
        build(proc, memory, target=16)
        saved_key = proc.outstanding[0].start_state.architectural_key()
        victims = proc.squash_from(0, 10.0)
        assert len(victims) == 1
        assert proc.spec_state.architectural_key() == saved_key
        assert proc.next_seq == 1

    def test_squash_suffix_only(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=200)])
        build(proc, memory, target=16)
        build(proc, memory, target=16)
        victims = proc.squash_from(1, 5.0)
        assert len(victims) == 1
        assert len(proc.outstanding) == 1
        assert proc.next_seq == 2

    def test_rebuild_after_squash_is_identical(self):
        proc, memory = make_processor([
            Op(OpKind.COMPUTE, count=30),
            Op(OpKind.STORE, address=1),
        ])
        first = build(proc, memory, target=16)
        fingerprint = (first.instructions,
                       dict(first.write_buffer),
                       first.end_state.architectural_key())
        proc.squash_from(0, 1.0)
        rebuilt = build(proc, memory, target=16)
        assert (rebuilt.instructions, dict(rebuilt.write_buffer),
                rebuilt.end_state.architectural_key()) == fingerprint

    def test_squash_counts_tracked(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        build(proc, memory, target=16)
        proc.squash_from(0, 1.0)
        assert proc.squash_count_for(1) == 1
        build(proc, memory, target=16)
        proc.squash_from(0, 2.0)
        assert proc.squash_count_for(1) == 2

    def test_commit_clears_squash_count(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        build(proc, memory, target=16)
        proc.squash_from(0, 1.0)
        build(proc, memory, target=16)
        commit_head(proc)
        assert proc.squash_count_for(1) == 0


class TestSignaturesAtBuildEnd:
    def test_remote_write_to_a_line_only_read_squashes_a_new_chunk(
            self):
        # The signatures are built once, when the build ends: a chunk
        # build_chunk has just returned must already conflict.
        proc, memory = make_processor([
            Op(OpKind.LOAD, address=64),
            Op(OpKind.STORE, address=128, value=1)])
        chunk = build(proc, memory)
        line = proc.config.line_of(64)
        assert line in chunk.read_lines
        assert line not in chunk.write_lines
        remote = Chunk(processor=1, logical_seq=1,
                       start_state=ThreadState(thread_id=1),
                       signature_config=proc.config.signature)
        remote.record_write(line)
        assert proc.squash_if_conflicts(remote, 1.0) == [chunk]
        assert chunk.state is ChunkState.SQUASHED

    def test_each_line_enters_its_signature_once(self):
        proc, memory = make_processor([
            Op(OpKind.LOAD, address=64),
            Op(OpKind.LOAD, address=64),
            Op(OpKind.STORE, address=128, value=1),
            Op(OpKind.STORE, address=128, value=2)])
        chunk = build(proc, memory)
        read, written = proc.config.line_of(64), proc.config.line_of(128)
        assert chunk.read_lines == {read}
        assert chunk.write_lines == {written}
        assert chunk.read_signature.may_contain(read)
        assert chunk.write_signature.may_contain(written)
        assert chunk.read_signature.inserted_lines == 1
        assert chunk.write_signature.inserted_lines == 1


def remote_chunk(proc, written=(), read=()):
    """A chunk of processor 1 that wrote and read ``proc``'s lines."""
    chunk = Chunk(processor=1, logical_seq=1,
                  start_state=ThreadState(thread_id=1),
                  signature_config=proc.config.signature)
    for line in written:
        chunk.record_write(line)
    record_reads(chunk, *read)
    return chunk


class TestSquashOnRemoteCommit:
    """``squash_if_conflicts``: a remote commit squashes from the oldest
    uncommitted chunk whose signatures its write signature hits."""

    def test_write_write_conflict_squashes(self):
        proc, memory = make_processor([
            Op(OpKind.STORE, address=128, value=1)])
        chunk = build(proc, memory)
        remote = remote_chunk(proc, written=[proc.config.line_of(128)])
        assert proc.squash_if_conflicts(remote, 1.0) == [chunk]
        assert chunk.state is ChunkState.SQUASHED

    def test_read_read_does_not_squash(self):
        proc, memory = make_processor([Op(OpKind.LOAD, address=64)])
        chunk = build(proc, memory)
        remote = remote_chunk(proc, read=[proc.config.line_of(64)])
        assert proc.squash_if_conflicts(remote, 1.0) == []
        assert proc.outstanding == [chunk]

    def test_squashes_from_the_oldest_conflicting_chunk(self):
        proc, memory = make_processor([
            Op(OpKind.LOAD, address=64),
            Op(OpKind.STORE, address=128, value=1)])
        first = build(proc, memory, target=1)
        second = build(proc, memory, target=1)
        remote = remote_chunk(proc, written=[proc.config.line_of(128)])
        assert proc.squash_if_conflicts(remote, 1.0) == [second]
        assert proc.outstanding == [first]

    def test_a_chunk_granted_commit_is_not_squashed(self):
        proc, memory = make_processor([
            Op(OpKind.STORE, address=128, value=1)])
        chunk = build(proc, memory)
        chunk.state = ChunkState.COMMITTING
        remote = remote_chunk(proc, written=[proc.config.line_of(128)])
        assert proc.squash_if_conflicts(remote, 1.0) == []
        assert chunk.state is ChunkState.COMMITTING

    def test_every_true_conflict_squashes(self):
        # Signatures may alias into a false squash, never miss a true
        # conflict: compare with the exact line sets on random chunks.
        rng = random.Random(29)
        conflicts = 0
        for _ in range(300):
            ops = [Op(OpKind.STORE, address=rng.randrange(512), value=1)
                   if rng.random() < 0.5
                   else Op(OpKind.LOAD, address=rng.randrange(512))
                   for _ in range(rng.randint(1, 8))]
            proc, memory = make_processor(ops)
            chunk = build(proc, memory)
            remote = remote_chunk(proc, written=[
                proc.config.line_of(rng.randrange(512))
                for _ in range(rng.randint(1, 8))])
            squashed = proc.squash_if_conflicts(remote, 1.0)
            if chunk.truly_conflicts_with(remote):
                conflicts += 1
                assert squashed == [chunk]
        assert 0 < conflicts < 300


class TestInterrupts:
    def test_handler_injected_at_next_build(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        event = InterruptEvent(time=0, processor=0, vector=3,
                               handler_ops=16)
        proc.receive_interrupt(event, 0.0)
        chunk = build(proc, memory, target=64)
        assert chunk.is_handler
        assert chunk.handler_event is event

    def test_low_priority_does_not_squash(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        build(proc, memory, target=16)
        event = InterruptEvent(time=0, processor=0, vector=1,
                               high_priority=False)
        victims = proc.receive_interrupt(event, 1.0)
        assert victims == []
        assert len(proc.outstanding) == 1

    def test_high_priority_squashes_outstanding(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        build(proc, memory, target=16)
        event = InterruptEvent(time=0, processor=0, vector=1,
                               high_priority=True)
        victims = proc.receive_interrupt(event, 1.0)
        assert len(victims) == 1
        next_chunk = build(proc, memory, target=64)
        assert next_chunk.is_handler

    def test_squashed_handler_requeued_once(self):
        """A squashed handler chunk re-injects exactly once (the
        double-execution regression test)."""
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        event = InterruptEvent(time=0, processor=0, vector=3,
                               handler_ops=16)
        proc.receive_interrupt(event, 0.0)
        first = build(proc, memory, target=64)
        assert first.is_handler
        proc.squash_from(0, 1.0)
        assert len(proc.pending_handlers) == 1
        rebuilt = build(proc, memory, target=64)
        assert rebuilt.is_handler
        assert not rebuilt.start_state.in_handler  # pre-injection state
        assert not proc.pending_handlers

    def test_handler_on_finished_thread(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=4)])
        build(proc, memory, target=64)
        commit_head(proc)
        assert not proc.can_build()
        event = InterruptEvent(time=0, processor=0, vector=2,
                               handler_ops=12)
        proc.receive_interrupt(event, 5.0)
        assert proc.can_build()
        chunk = build(proc, memory, target=64)
        assert chunk.is_handler
        assert chunk.instructions == 12

    def test_replay_pinned_handler_waits_for_its_seq(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        event = InterruptEvent(time=0, processor=0, vector=3,
                               handler_ops=16, replay_chunk_id=2)
        proc.pending_handlers.append(event)
        first = build(proc, memory, target=16)
        assert not first.is_handler  # seq 1 != pinned chunkID 2
        second = build(proc, memory, target=64)
        assert second.is_handler


class TestCommitDiscipline:
    def test_out_of_order_commit_rejected(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=100)])
        build(proc, memory, target=16)
        newer = build(proc, memory, target=16)
        with pytest.raises(ExecutionError):
            proc.on_commit(newer, _NullIO())

    def test_commit_updates_counters(self):
        proc, memory = make_processor([Op(OpKind.COMPUTE, count=10)])
        build(proc, memory, target=64)
        commit_head(proc)
        assert proc.committed_count == 1
        assert proc.stats.chunks_committed == 1
        assert proc.stats.instructions_committed == 10


class TestZeroInstructionTruncation:
    def test_stochastic_floor_prevents_empty_truncated_chunks(self):
        """The machine clamps stochastic truncation points to one op
        unit, so no zero-instruction CACHE_OVERFLOW chunk (whose CS
        entry is unencodable) can be recorded."""
        from repro.machine.system import ChunkMachine
        from repro.core.modes import ExecutionMode, preferred_config
        import sys
        from conftest import counter_program, small_config
        config = small_config()
        machine = ChunkMachine(
            counter_program(3, 30), config,
            preferred_config(ExecutionMode.ORDER_ONLY).with_chunk_size(
                config.standard_chunk_size),
            stochastic_overflow_rate=1.0)  # truncate every chunk
        result = machine.run()
        for fingerprint in result.fingerprints:
            if fingerprint[0] != "dma":
                assert fingerprint[4] >= 1  # no empty committed chunks
        # And the CS logs encode cleanly.
        for log in machine.recorder.cs_logs.values():
            log.encode()


class TestInlineCachePath:
    """A load's or store's L1 miss is served inline, and a load or store
    of the line the L1 touched last counts as a hit without touching
    the L1: chunk after chunk, the interpreter must leave the L1, its
    L2 filter and sharer table, the chunk's line sets and its cycles as
    sending every access through ``SpeculativeCache.access`` does."""

    #: Op kind -> (L1 accesses, adds the line to the read set, to the
    #: write set).  A read stalls on a miss; a one-thread BARRIER
    #: touches its line twice, arriving and passing.
    TOUCHES = {OpKind.LOAD: (1, True, False),
               OpKind.STORE: (1, False, True),
               OpKind.RMW: (1, True, True),
               OpKind.LOCK: (1, True, True),
               OpKind.UNLOCK: (1, False, True),
               OpKind.BARRIER: (2, True, True)}

    @staticmethod
    def stream(seed, line_words, length=600):
        """Mostly loads and stores, three in five to the previous op's
        line and one in five back to the line before it, with RMW,
        UNLOCK and COMPUTE mixed in."""
        rng = random.Random(f"inline-cache:{seed}")
        ops, line, before = [], 0, 0
        for _ in range(length):
            pick = rng.random()
            if pick < 0.2:
                line, before = before, line
            elif pick < 0.4:
                line, before = rng.randrange(40), line
            address = line * line_words + rng.randrange(line_words)
            pick = rng.random()
            if pick < 0.45:
                ops.append(Op(OpKind.LOAD, address=address))
            elif pick < 0.85:
                ops.append(Op(OpKind.STORE, address=address,
                              value=rng.randrange(100)))
            elif pick < 0.9:
                ops.append(Op(OpKind.RMW, address=address, value=1))
            elif pick < 0.95:
                ops.append(Op(OpKind.UNLOCK, address=address))
            else:
                ops.append(Op(OpKind.COMPUTE, count=rng.randrange(1, 5)))
        return ops

    def check_against_access(self, ops, config, l2_lines):
        """Build chunks until the thread ends, comparing each with the
        same accesses sent through ``access`` on a copy of the L1;
        returns the processor and the number of chunks."""
        cache = l1_group(
            2, CacheConfig(config.l1_sets, config.l1_ways),
            SharedL2Filter(l2_lines) if l2_lines else None)[0]
        proc = ChunkProcessor(0, ops, config, cache)
        memory = MainMemory()
        reference = copy.deepcopy(cache)
        timing = config.timing
        stall = {"l2": timing.l2_hit_cycles * timing.chunk_load_exposure,
                 "memory": timing.memory_cycles
                 * timing.chunk_load_exposure}
        chunks = 0
        while proc.can_build():
            chunk = build(proc, memory, target=10_000)
            chunks += 1
            cycles, read, written = 0.0, set(), set()
            for op in ops[chunk.start_state.op_index:
                          chunk.end_state.op_index]:
                if op.kind not in self.TOUCHES:
                    continue
                accesses, reads, writes = self.TOUCHES[op.kind]
                line = config.line_of(op.address)
                for _ in range(accesses):
                    level = reference.access(line)
                    if reads and level != "l1":
                        cycles += stall[level]
                if reads:
                    read.add(line)
                if writes:
                    written.add(line)
            cycles += timing.instruction_cycles(chunk.instructions)
            assert chunk.read_lines == read
            assert chunk.write_lines == written
            assert chunk.exec_cycles == cycles
            assert ([list(cache_set) for cache_set in cache.sets]
                    == [list(cache_set) for cache_set in reference.sets])
            assert cache.stats() == reference.stats()
            assert cache.sharers == reference.sharers
            if l2_lines:
                assert (list(cache.shared_l2.lines)
                        == list(reference.shared_l2.lines))
            commit_head(proc)
        assert proc.spec_state.finished
        return proc, chunks

    @pytest.mark.parametrize("l2_lines", [16, None])
    @pytest.mark.parametrize("seed", range(5))
    def test_same_l1_state_as_the_access_method(self, seed, l2_lines):
        config = small_config(l1_sets=2, l1_ways=4)
        proc, chunks = self.check_against_access(
            self.stream(seed, config.line_words), config, l2_lines)
        cache = proc.cache
        assert chunks > 1
        assert cache.hits > cache.l2_hits + cache.memory_accesses > 0

    @pytest.mark.parametrize("first", [OpKind.LOAD, OpKind.STORE])
    @pytest.mark.parametrize("touch", list(TOUCHES),
                             ids=lambda kind: kind.name)
    def test_another_line_between_two_touches(self, touch, first):
        """Line A, then line B with each op kind, then A: B's touch
        must end A's run, or A's next load or store skips its LRU step,
        and a third line C in the same two-way set then evicts the
        wrong line."""
        config = small_config(l1_sets=2, l1_ways=2)
        words = config.line_words
        a, b, c = 0, 2 * words, 4 * words

        def touch_of(kind, address):
            if kind is OpKind.BARRIER:
                return Op(kind, address=address, count=1)
            if kind is OpKind.STORE:
                return Op(kind, address=address, value=5)
            return Op(kind, address=address)

        second = OpKind.STORE if first is OpKind.LOAD else OpKind.LOAD
        ops = [touch_of(first, a), touch_of(second, a), touch_of(touch, b),
               touch_of(first, a), Op(OpKind.LOAD, address=c),
               touch_of(first, a), touch_of(second, a)]
        _, chunks = self.check_against_access(ops, config, 16)
        assert chunks == 1

    def test_a_resumed_barrier_wait_ends_the_handler_run(self):
        """A chunk that opens in an interrupt handler and then resumes a
        BARRIER's wait: the wait's touch of the barrier line must end
        the run of the handler's line, which the thread stores to
        next."""
        config = small_config(l1_sets=2, l1_ways=2)
        words = config.line_words
        status = build_handler_ops(3, 0, 8)[0].address
        handler_line = config.line_of(status)
        barrier_line, other_line = handler_line + 2, handler_line + 4
        ops = [Op(OpKind.BARRIER, address=barrier_line * words, count=1),
               Op(OpKind.STORE, address=status + 1, value=7),
               Op(OpKind.LOAD, address=other_line * words),
               Op(OpKind.STORE, address=status + 1, value=8)]
        cache = l1_group(2, CacheConfig(2, 2), SharedL2Filter(16))[0]
        proc = ChunkProcessor(0, ops, config, cache)
        memory = MainMemory()
        reference = copy.deepcopy(cache)
        # Arrives (one instruction), then cannot afford a wait iteration.
        arrived = build(proc, memory, target=BARRIER_SPIN_COST)
        assert arrived.instructions == 1
        assert arrived.truncation is TruncationReason.SIZE_LIMIT
        memory.commit(arrived.write_buffer)
        commit_head(proc)
        proc.receive_interrupt(InterruptEvent(
            time=0, processor=0, vector=3, payload=0, handler_ops=8), 0.0)
        resumed = build(proc, memory, target=10_000)
        assert resumed.is_handler and proc.spec_state.finished
        # Arrival; the handler's load and two stores; the wait; the
        # thread's store, load and store.
        for line in (barrier_line, handler_line, handler_line,
                     handler_line, barrier_line, handler_line, other_line,
                     handler_line):
            reference.access(line)
        assert ([list(cache_set) for cache_set in cache.sets]
                == [list(cache_set) for cache_set in reference.sets])
        assert cache.stats() == reference.stats()
