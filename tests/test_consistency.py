"""Tests for the interleaved SC/PC/RC executor."""

from dataclasses import replace

import pytest

from conftest import counter_program, straight_line_program, \
    two_phase_program, small_config

from repro.baselines.consistency import (
    ConsistencyModel,
    InterleavedExecutor,
)
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.workloads.program_builder import ProgramBuilder, shared_address


def run(program, model=ConsistencyModel.SC, collect=True):
    return InterleavedExecutor(
        program, small_config(), model, collect_trace=collect).run()


class TestExecutionSemantics:
    def test_locked_counter_exact(self):
        result = run(counter_program(4, 15))
        assert result.final_memory[shared_address(0)] == 60

    def test_barrier_copy(self):
        result = run(two_phase_program())
        for index in range(8):
            assert result.final_memory[
                shared_address(256) + index] == 100 + index

    def test_instruction_accounting(self):
        result = run(straight_line_program(threads=2, length=25))
        assert result.total_instructions == 2 * 25 * 7
        assert result.per_proc_instructions[0] == 25 * 7

    def test_runs_are_deterministic(self):
        a = run(counter_program(3, 12))
        b = run(counter_program(3, 12))
        assert a.cycles == b.cycles
        assert a.final_memory == b.final_memory
        assert [t.index for t in a.trace] == [t.index for t in b.trace]

    def test_interrupt_handler_executes(self):
        program = replace(counter_program(2, 20), interrupts=[
            InterruptEvent(time=100.0, processor=0, vector=2,
                           handler_ops=16)])
        result = run(program)
        from repro.machine.events import INTERRUPT_CONTROLLER_BASE
        touched = [a for a in result.final_memory
                   if a >= INTERRUPT_CONTROLLER_BASE]
        assert touched

    def test_dma_applies(self):
        program = replace(counter_program(2, 20), dma_transfers=[
            DmaTransfer(time=50.0, writes={shared_address(700): 5})])
        result = run(program)
        assert result.final_memory[shared_address(700)] == 5


class TestTimingModels:
    @staticmethod
    def _spin_free_shared_program():
        """Shared traffic but no spins, so dynamic instruction counts
        are identical under every timing model."""
        builder = ProgramBuilder(4, name="spinfree")
        for thread in range(4):
            with builder.thread(thread) as t:
                for index in range(40):
                    t.compute(4)
                    t.store(shared_address(4096 + thread * 512 + index),
                            value=index)
                    t.load(shared_address(4096 + ((thread + 1) % 4)
                                          * 512 + index))
        return builder.build()

    def test_rc_fastest_sc_slowest(self):
        program = self._spin_free_shared_program()
        sc = run(program, ConsistencyModel.SC, collect=False)
        pc = run(program, ConsistencyModel.PC, collect=False)
        rc = run(program, ConsistencyModel.RC, collect=False)
        assert rc.cycles < pc.cycles < sc.cycles

    def test_models_agree_on_architecture(self):
        """Timing models may not change computed state (for spin-free
        programs; spin counts legitimately vary with timing)."""
        program = self._spin_free_shared_program()
        sc = run(program, ConsistencyModel.SC)
        rc = run(program, ConsistencyModel.RC)
        assert sc.final_memory == rc.final_memory
        assert sc.total_instructions == rc.total_instructions

    def test_locked_programs_agree_on_final_state(self):
        """Even with spins, the architectural outcome is the same."""
        program = counter_program(3, 10)
        sc = run(program, ConsistencyModel.SC)
        rc = run(program, ConsistencyModel.RC)
        assert sc.final_memory == rc.final_memory

    def test_ipc_positive(self):
        result = run(straight_line_program())
        assert result.ipc > 0


class TestTrace:
    def test_trace_is_globally_ordered(self):
        result = run(counter_program(3, 10))
        assert [a.index for a in result.trace] == list(
            range(len(result.trace)))

    def test_per_proc_counts_monotonic(self):
        result = run(counter_program(3, 10))
        last: dict[int, tuple] = {}
        for access in result.trace:
            key = (access.instruction, access.operation)
            if access.processor in last:
                assert key >= last[access.processor]
            last[access.processor] = key

    def test_writes_flagged(self):
        result = run(two_phase_program())
        data_line = shared_address(128) >> 3
        writes = [a for a in result.trace
                  if a.line == data_line and a.is_write]
        assert writes and all(a.processor == 0 for a in writes)

    def test_collect_trace_off(self):
        result = run(counter_program(2, 5), collect=False)
        assert result.trace == []

    def test_spin_reads_appear_in_trace(self):
        """Failed lock acquires are reads in the trace -- the WAR/RAW
        structure conventional recorders must see."""
        builder = ProgramBuilder(2, name="contended")
        from repro.workloads.program_builder import lock_address
        lock = lock_address(0)
        for thread in range(2):
            with builder.thread(thread) as t:
                for _ in range(4):
                    t.lock(lock)
                    t.compute(30)
                    t.unlock(lock)
        result = run(builder.build())
        lock_line = lock >> 3
        reads = [a for a in result.trace
                 if a.line == lock_line and not a.is_write]
        assert reads
