"""Behavioral system tests: edge configurations and exceptional paths."""

import pytest

from conftest import counter_program, small_config, \
    straight_line_program

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode, preferred_config
from repro.core.replayer import ReplayPerturbation
from repro.chunks.chunk import TruncationReason
from repro.machine.program import Op, OpKind, Program
from repro.machine.system import ChunkMachine
from repro.workloads.program_builder import (
    ProgramBuilder,
    lock_address,
    shared_address,
)


def machine_for(program, **overrides):
    config = small_config(**overrides)
    mode = preferred_config(ExecutionMode.ORDER_ONLY).with_chunk_size(
        config.standard_chunk_size)
    return ChunkMachine(program, config, mode)


class TestDegenerateConfigurations:
    def test_single_processor_machine(self):
        program = straight_line_program(threads=1, length=40)
        config = small_config(num_processors=1)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording, result = system.record_and_verify(program)
        assert result.determinism.matches

    def test_idle_processors_tolerated(self):
        """Two threads on an eight-processor machine."""
        program = counter_program(2, 10)
        config = small_config(num_processors=8)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording, result = system.record_and_verify(program)
        assert result.determinism.matches

    def test_empty_thread_in_program(self):
        program = Program(threads=[
            [Op(OpKind.COMPUTE, count=20)],
            [],
        ])
        machine = machine_for(program)
        result = machine.run()
        assert result.stats.total_committed_chunks == 1

    def test_single_chunk_window_machine(self):
        program = counter_program(3, 12)
        config = small_config(simultaneous_chunks=1)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording, result = system.record_and_verify(program)
        assert result.determinism.matches

    def test_serial_commit_machine(self):
        program = counter_program(3, 12)
        config = small_config(max_concurrent_commits=1)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording, result = system.record_and_verify(program)
        assert result.determinism.matches

    def test_sixteen_processor_picolog(self):
        from repro.workloads import splash2_program
        program = splash2_program("water-sp", scale=0.05, seed=3,
                                  num_threads=16)
        from repro.machine.timing import MachineConfig
        system = DeLoreanSystem(
            mode=ExecutionMode.PICOLOG,
            machine_config=MachineConfig(num_processors=16))
        recording, result = system.record_and_verify(program)
        assert result.determinism.matches


class TestCollisionReduction:
    def test_repeated_collisions_shrink_chunks(self):
        """With a retry limit of 1, contended chunks shrink and their
        sizes land in the CS log (Section 4.2.3)."""
        builder = ProgramBuilder(4, name="hot")
        hot = shared_address(0)
        for thread in range(4):
            writer = builder.writer(thread)
            for _ in range(60):
                writer.rmw(hot, 1)
                writer.compute(8)
        config = small_config(squash_retry_limit=1)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(builder.build())
        assert recording.stats.collision_truncations > 0
        cs_entries = sum(len(log) for log in
                         recording.cs_logs.values())
        assert cs_entries >= recording.stats.collision_truncations
        result = system.replay(recording,
                               perturbation=ReplayPerturbation(seed=2))
        assert result.determinism.matches
        assert recording.final_memory[hot] == 4 * 60

    def test_picolog_never_reduces(self):
        """Repeated chunk collision cannot occur in PicoLog (Table 4)."""
        builder = ProgramBuilder(4, name="hot")
        hot = shared_address(0)
        for thread in range(4):
            writer = builder.writer(thread)
            for _ in range(60):
                writer.rmw(hot, 1)
                writer.compute(8)
        config = small_config(squash_retry_limit=1)
        system = DeLoreanSystem(mode=ExecutionMode.PICOLOG,
                                machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(builder.build())
        assert recording.stats.collision_truncations == 0


class TestStallAccounting:
    def test_stalls_recorded_under_commit_pressure(self):
        """A one-chunk window with slow arbitration forces stalls."""
        program = straight_line_program(threads=4, length=200)
        config = small_config(simultaneous_chunks=1,
                              arbitration_roundtrip=400,
                              commit_propagation_cycles=400)
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(program)
        assert recording.stats.stall_cycles_total > 0
        assert 0 < recording.stats.stall_fraction < 1


class TestBoundaryChunks:
    def test_leading_io_creates_empty_chunk(self):
        """An I/O load as a thread's first op yields a zero-instruction
        chunk carrying only the boundary op."""
        program = Program(threads=[
            [Op(OpKind.IO_LOAD, address=1),
             Op(OpKind.STORE, address=shared_address(8))],
            [Op(OpKind.COMPUTE, count=30)],
        ])
        machine = machine_for(program)
        result = machine.run()
        sizes = [f[4] for f in result.fingerprints if f[0] == 0]
        assert sizes[0] == 0
        assert result.final_memory.get(shared_address(8)) is not None

    def test_consecutive_specials(self):
        program = Program(threads=[
            [Op(OpKind.SPECIAL), Op(OpKind.SPECIAL),
             Op(OpKind.COMPUTE, count=5)],
        ])
        machine = machine_for(program)
        result = machine.run()
        assert result.stats.total_committed_instructions == 7

    def test_handler_spanning_chunks(self):
        """A handler longer than the chunk size spans chunks and still
        replays (the in-handler continuation state)."""
        from repro.machine.events import InterruptEvent
        program = Program(threads=[
            [Op(OpKind.COMPUTE, count=400)],
            [Op(OpKind.COMPUTE, count=400)],
        ], interrupts=[InterruptEvent(
            time=10.0, processor=0, vector=2, handler_ops=200)])
        config = small_config()  # 64-instruction chunks
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording, result = system.record_and_verify(program)
        assert recording.stats.handler_chunks == 1  # initiating chunk
        handler_instructions = sum(
            f[4] for f in recording.fingerprints if f[0] == 0)
        assert handler_instructions == 400 + 200


class TestTruncationReporting:
    def test_io_truncation_counted(self):
        builder = ProgramBuilder(1, name="io")
        builder.writer(0).compute(20).io_load(1).compute(20)
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(builder.build())
        assert recording.stats.io_truncations == 1

    def test_deterministic_truncations_not_in_cs_log(self):
        builder = ProgramBuilder(1, name="io")
        builder.writer(0).compute(20).io_load(1).special().compute(20)
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(builder.build())
        assert len(recording.cs_logs[0]) == 0  # reoccur in replay


class TestLockFairnessAcrossChunks:
    def test_contended_lock_makes_progress_every_mode(self):
        builder = ProgramBuilder(4, name="contended")
        lock = lock_address(0)
        cell = shared_address(64)
        for thread in range(4):
            writer = builder.writer(thread)
            for _ in range(8):
                writer.lock(lock)
                writer.load(cell)
                writer.compute(30)
                writer.rmw(cell, 1)
                writer.unlock(lock)
        for mode in list(ExecutionMode):
            config = small_config()
            system = DeLoreanSystem(
                mode=mode, machine_config=config,
                chunk_size=config.standard_chunk_size)
            recording, result = system.record_and_verify(
                builder.build())
            assert recording.final_memory[cell] == 32, mode
