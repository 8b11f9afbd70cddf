"""End-to-end recording tests: atomicity, mutual exclusion, logs."""

from dataclasses import replace

import pytest

from conftest import (
    apply_fingerprint_writes,
    counter_program,
    racy_increment_program,
    small_config,
    straight_line_program,
    two_phase_program,
)

from repro.core.delorean import DeLoreanSystem
from repro.core.modes import ExecutionMode
from repro.core.recorder import commits_by_processor
from repro.errors import ConfigurationError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.machine.system import record_execution
from repro.core.modes import preferred_config
from repro.workloads.program_builder import (
    ProgramBuilder,
    shared_address,
)


def record(program, mode=ExecutionMode.ORDER_ONLY, **config_overrides):
    config = small_config(**config_overrides)
    system = DeLoreanSystem(mode=mode, machine_config=config,
                            chunk_size=config.standard_chunk_size)
    return system.record(program)


class TestSerializability:
    """Committed chunk effects must equal some serial chunk order --
    specifically, the commit (grant) order the recording captured."""

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_fingerprint_replay_reconstructs_memory(self, mode):
        program = counter_program(threads=4, increments=15)
        recording = record(program, mode)
        rebuilt = apply_fingerprint_writes(
            program.initial_memory, recording.fingerprints)
        assert rebuilt == recording.final_memory

    def test_two_phase_copy_through_barrier(self):
        recording = record(two_phase_program())
        out = shared_address(256)
        for index in range(8):
            assert recording.final_memory[out + index] == 100 + index


class TestMutualExclusion:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_locked_counter_is_exact(self, mode):
        threads, increments = 4, 15
        recording = record(counter_program(threads, increments), mode)
        counter = shared_address(0)
        assert recording.final_memory[counter] == threads * increments

    def test_racy_counter_still_serializable(self):
        """Without a lock the RMW is still atomic per op here; the
        sanity property is serializability, not a specific value."""
        program = racy_increment_program(threads=3, increments=8)
        recording = record(program)
        rebuilt = apply_fingerprint_writes(
            program.initial_memory, recording.fingerprints)
        assert rebuilt == recording.final_memory


class TestChunkAccounting:
    def test_all_instructions_committed(self):
        program = straight_line_program(threads=2, length=25)
        recording = record(program)
        # 25 iterations x (5 compute + store + load) per thread.
        assert recording.stats.total_committed_instructions == 2 * 25 * 7

    def test_chunk_sizes_bounded_by_standard(self):
        recording = record(straight_line_program(threads=2, length=60))
        for fingerprint in recording.fingerprints:
            assert fingerprint[4] <= 64  # small_config chunk size

    def test_pi_log_matches_commit_count(self):
        recording = record(counter_program(2, 10))
        non_dma = [f for f in recording.fingerprints if f[0] != "dma"]
        assert len(recording.pi_log) == len(non_dma)

    def test_picolog_has_empty_pi(self):
        recording = record(counter_program(2, 10), ExecutionMode.PICOLOG)
        assert len(recording.pi_log) == 0

    def test_commits_by_processor_partitions_global(self):
        # Three threads on four processors, plus one DMA burst.
        program = replace(counter_program(3, 10), dma_transfers=[
            DmaTransfer(time=200.0, writes={shared_address(512): 7})])
        recording = record(program)
        config = recording.machine_config
        streams = commits_by_processor(recording.fingerprints, config)
        # Every processor and the DMA engine keyed in id order, the
        # idle processor 3 too.
        assert list(streams) == [0, 1, 2, 3, config.dma_proc_id]
        assert streams[3] == []
        assert [f for f in recording.fingerprints if f[0] == "dma"] == \
            streams[config.dma_proc_id] != []
        # A partition: each stream is its owner's commits in global
        # order.
        assert sum(map(len, streams.values())) == \
            len(recording.fingerprints)
        for proc in range(config.num_processors):
            assert streams[proc] == [
                f for f in recording.fingerprints if f[0] == proc]
        assert commits_by_processor([], config) == {
            proc: [] for proc in streams}


class TestOrderAndSizeMode:
    def test_cs_log_covers_every_chunk(self):
        recording = record(counter_program(2, 12),
                           ExecutionMode.ORDER_AND_SIZE)
        for proc, log in recording.cs_logs.items():
            committed = len(commits_by_processor(
                recording.fingerprints, recording.machine_config)[proc])
            assert len(log) == committed

    def test_artificial_truncation_produces_small_chunks(self):
        program = straight_line_program(threads=2, length=400)
        recording = record(program, ExecutionMode.ORDER_AND_SIZE)
        sizes = [f[4] for f in recording.fingerprints]
        assert any(size < 64 for size in sizes)  # some truncated


class TestInputLogs:
    def _program_with_io(self):
        builder = ProgramBuilder(2, name="io")
        with builder.thread(0) as t:
            t.compute(10).io_load(port=1).store(shared_address(8))
            t.compute(10)
        with builder.thread(1) as t:
            t.compute(30)
        return builder.build()

    def test_io_values_logged(self):
        recording = record(self._program_with_io())
        assert len(recording.io_logs[0]) == 1
        stored = recording.final_memory[shared_address(8)]
        assert recording.io_logs[0].values == [stored]

    def test_interrupt_logged_with_chunk_id(self):
        program = replace(counter_program(2, 30), interrupts=[
            InterruptEvent(time=500.0, processor=1, vector=9, payload=4,
                           handler_ops=24)])
        recording = record(program)
        entries = recording.interrupt_logs[1].entries
        assert len(entries) == 1
        assert entries[0].vector == 9
        assert entries[0].handler_ops == 24
        handler_fps = [f for f in recording.fingerprints
                       if f[0] == 1 and f[3]]
        assert handler_fps
        assert handler_fps[0][1] == entries[0].chunk_id

    def test_dma_data_logged_and_applied(self):
        writes = {shared_address(512): 7777}
        program = replace(counter_program(2, 20), dma_transfers=[
            DmaTransfer(time=200.0, writes=writes)])
        recording = record(program)
        assert len(recording.dma_log) == 1
        assert recording.final_memory[shared_address(512)] == 7777
        assert recording.stats.dma_commits == 1

    def test_picolog_dma_records_slot(self):
        program = replace(counter_program(2, 20), dma_transfers=[
            DmaTransfer(time=200.0, writes={shared_address(512): 1})])
        recording = record(program, ExecutionMode.PICOLOG)
        assert len(recording.dma_log.commit_slots) == 1


class TestConfiguration:
    def test_too_many_threads_rejected(self):
        program = counter_program(6, 5)
        with pytest.raises(ConfigurationError):
            record_execution(program, small_config(num_processors=4),
                             preferred_config(ExecutionMode.ORDER_ONLY))

    def test_machine_runs_once(self):
        from repro.machine.system import ChunkMachine
        program = counter_program(2, 5)
        config = small_config()
        machine = ChunkMachine(
            program, config,
            preferred_config(ExecutionMode.ORDER_ONLY).with_chunk_size(
                config.standard_chunk_size))
        machine.run()
        with pytest.raises(ConfigurationError):
            machine.run()

    def test_stats_are_sane(self):
        recording = record(counter_program(4, 15))
        stats = recording.stats
        assert stats.cycles > 0
        assert stats.ipc > 0
        assert 0 <= stats.wasted_instruction_fraction < 1
        assert stats.traffic["total_bytes"] > 0
