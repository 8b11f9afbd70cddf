"""Tests for the interleaved SC/PC/RC executor."""

from dataclasses import replace

import pytest

from conftest import counter_program, straight_line_program, \
    two_phase_program, small_config

from repro.baselines.consistency import (
    ConsistencyModel,
    InterleavedExecutor,
)
from repro.chunks.cache import CacheConfig, SharedL2Filter, l1_group
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.program import OpKind
from repro.workloads import splash2_program
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


class TestRepeatLineHits:
    """A load or store of the line its L1 touched last counts a hit
    without calling ``SpeculativeCache.access``.  In a program with no
    BARRIER, every access the executor makes is one trace record, so
    sending the trace through a fresh L1 group must leave the same
    sets, L2 filter and counters."""

    @staticmethod
    def alternation(line_words):
        """One thread touching line A, then a line B in A's set with
        each op kind, then A: B's access must end A's run, or A's next
        load skips its LRU step, and a third line C in the same two-way
        set then evicts the wrong line."""
        builder = ProgramBuilder(1, name="alternation")
        writer = builder.writer(0)
        a, b, c = 8 * line_words, 16 * line_words, 24 * line_words
        for touch in ("load", "store", "rmw", "lock", "unlock"):
            writer.load(a).store(a, 1)
            if touch == "load":
                writer.load(b)
            elif touch == "store":
                writer.store(b, 2)
            elif touch == "rmw":
                writer.rmw(b, 1)
            elif touch == "lock":
                writer.lock(b + 1)
            else:
                writer.unlock(b + 1)
            writer.load(a).load(c).load(a).compute(2)
        return builder.build()

    @pytest.mark.parametrize("model", [ConsistencyModel.SC,
                                       ConsistencyModel.RC])
    @pytest.mark.parametrize("app", ["lu", "water-ns", "counter",
                                     "alternation"])
    def test_same_l1_state_as_the_access_method(self, app, model):
        if app == "counter":
            program = counter_program(4, 15)
        elif app == "alternation":
            program = self.alternation(small_config().line_words)
        else:
            program = splash2_program(app, scale=0.2, seed=2)
        assert not any(op.kind is OpKind.BARRIER
                       for ops in program.threads for op in ops)
        config = small_config(l1_sets=8, l1_ways=2, l2_lines=64)
        executor = InterleavedExecutor(program, config, model,
                                       collect_trace=True)
        result = executor.run()
        reference = l1_group(
            program.num_threads,
            CacheConfig(config.l1_sets, config.l1_ways),
            SharedL2Filter(config.l2_lines))
        for record in result.trace:
            reference[record.processor].access(record.line)
        caches = executor._caches
        assert ([cache.stats() for cache in caches]
                == [cache.stats() for cache in reference])
        assert ([list(cache_set) for cache in caches
                 for cache_set in cache.sets]
                == [list(cache_set) for cache in reference
                    for cache_set in cache.sets])
        assert (list(caches[0].shared_l2.lines)
                == list(reference[0].shared_l2.lines))
        assert sum(cache.hits for cache in caches) > len(result.trace) / 2
