"""Tests for ChunkMachine.checkpoint, the one committed-state capture,
and the one restore behind ``start_checkpoint``."""

from dataclasses import replace

import pytest

from conftest import counter_program, small_config

from repro.core.modes import ExecutionMode, preferred_config
from repro.errors import ConfigurationError
from repro.machine.system import ChunkMachine


def fresh_machine(program, **kwargs):
    config = small_config()
    mode = preferred_config(ExecutionMode.ORDER_ONLY).with_chunk_size(
        config.standard_chunk_size)
    return ChunkMachine(program, config, mode, **kwargs)


class TestInitialCheckpoint:
    def test_initial_matches_program(self):
        program = counter_program(2, 5)
        machine = fresh_machine(program)
        checkpoint = machine.checkpoint()
        assert checkpoint.commit_index == 0
        assert checkpoint.label == "gcc0"
        assert checkpoint.memory_image == dict(program.initial_memory)
        assert set(checkpoint.thread_states) == {
            proc.proc_id for proc in machine.processors}
        assert not any(checkpoint.committed_counts.values())
        assert checkpoint.dma_consumed == 0

    def test_empty_thread_marked_finished(self):
        from repro.machine.program import Program, Op, OpKind
        program = Program(threads=[[Op(OpKind.COMPUTE, count=1)], []])
        checkpoint = fresh_machine(program).checkpoint()
        assert not checkpoint.thread_states[0].finished
        assert checkpoint.thread_states[1].finished


class TestCaptureRestore:
    def test_capture_after_run(self):
        program = counter_program(2, 8)
        machine = fresh_machine(program)
        result = machine.run()
        checkpoint = machine.checkpoint(label="end")
        assert checkpoint.commit_index == len(result.fingerprints) > 0
        assert checkpoint.label == "end"
        assert checkpoint.memory_image == machine.memory.snapshot()
        for proc in machine.processors:
            state = checkpoint.thread_states[proc.proc_id]
            assert (state.architectural_key()
                    == proc.spec_state.architectural_key())
            assert (checkpoint.committed_counts[proc.proc_id]
                    == proc.committed_count)

    def test_restore_into_fresh_replay_machine(self):
        from repro.core.delorean import DeLoreanSystem
        from repro.machine.system import build_replay_machine

        config = small_config()
        system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY,
                                machine_config=config,
                                chunk_size=config.standard_chunk_size)
        program = counter_program(3, 20)
        recording = system.record(program, checkpoint_every=8)
        checkpoint = recording.interval_checkpoints.by_index(0)
        assert checkpoint.commit_index == 8
        # A restore that did nothing would leave the program's start.
        assert checkpoint.memory_image != dict(program.initial_memory)
        machine = build_replay_machine(
            recording, use_strata=False, start_checkpoint=checkpoint)
        assert machine.memory.snapshot() == checkpoint.memory_image
        for proc in machine.processors:
            state = checkpoint.thread_states[proc.proc_id]
            assert (proc.spec_state.architectural_key()
                    == state.architectural_key())
            assert (proc.next_seq
                    == checkpoint.committed_counts[proc.proc_id] + 1)
        assert machine.arbiter.grant_count == checkpoint.processor_grants


class TestMidExecutionCaptureDeterminism:
    """The paper's interval theorem, exercised through the debugger's
    capture path: a committed-state checkpoint taken at GCC = n > 0
    mid-execution seeds a fresh replay whose fingerprints equal the
    from-zero replay's suffix, in every mode."""

    MODES = [ExecutionMode.ORDER_AND_SIZE, ExecutionMode.ORDER_ONLY,
             ExecutionMode.PICOLOG]

    def _record(self, mode):
        from repro.core.delorean import DeLoreanSystem
        from repro.workloads import commercial_program
        system = DeLoreanSystem(mode=mode)
        # sweb2005 carries DMA bursts and interrupts, so the captured
        # io/dma cursors actually matter.
        return system.record(
            commercial_program("sweb2005", scale=0.4, seed=3))

    @pytest.mark.parametrize("mode", MODES)
    def test_capture_mid_replay_restores_deterministically(self, mode):
        from repro.debugger import ReplayController
        from repro.machine.system import build_replay_machine

        recording = self._record(mode)
        total = len(recording.fingerprints)
        target = total // 2
        assert target > 0
        controller = ReplayController(recording, checkpoint_every=0)
        controller.step(target)
        snapshot = controller.machine.checkpoint(label="mid")
        assert snapshot.commit_index == target
        assert snapshot.label == "mid"

        machine = build_replay_machine(
            recording, use_strata=False, start_checkpoint=snapshot)
        result = machine.run()
        assert result.fingerprints == recording.fingerprints[target:]

    @pytest.mark.parametrize("mode", MODES)
    def test_capture_at_replay_end_carries_the_log_cursors(self, mode):
        from repro.machine.system import build_replay_machine

        recording = self._record(mode)
        machine = build_replay_machine(recording, use_strata=False)
        machine.run()
        checkpoint = machine.checkpoint()
        total = len(recording.fingerprints)
        assert checkpoint.commit_index == total
        assert checkpoint.label == f"gcc{total}"
        assert checkpoint.dma_consumed \
            == len(recording.dma_log.entries)
        assert checkpoint.io_consumed == {
            proc: len(log) for proc, log in recording.io_logs.items()}
        assert checkpoint.memory_image == machine.memory.snapshot()

    @pytest.mark.parametrize("mode", MODES)
    def test_record_and_replay_captures_agree(self, mode):
        """The recording machine's interval checkpoint at GCC = n and a
        replay's capture at GCC = n are the same snapshot."""
        from repro.core.delorean import DeLoreanSystem
        from repro.debugger import ReplayController
        from repro.workloads import commercial_program

        recording = DeLoreanSystem(mode=mode).record(
            commercial_program("sweb2005", scale=0.4, seed=3),
            checkpoint_every=9)
        assert len(recording.interval_checkpoints) > 2
        controller = ReplayController(recording, checkpoint_every=0)
        for recorded in recording.interval_checkpoints:
            controller.step(recorded.commit_index - controller.gcc)
            assert controller.machine.checkpoint() == recorded

    def test_capture_counts_from_the_start_checkpoint(self):
        """A machine resumed from GCC = n captures absolute GCCs and
        log cursors: its end state equals the from-zero replay's."""
        from repro.debugger import ReplayController
        from repro.machine.system import build_replay_machine

        recording = self._record(ExecutionMode.PICOLOG)
        controller = ReplayController(recording, checkpoint_every=0)
        controller.step(len(recording.fingerprints) // 2)
        resumed = build_replay_machine(
            recording, use_strata=False,
            start_checkpoint=controller.machine.checkpoint())
        resumed.run()
        full = build_replay_machine(recording, use_strata=False)
        full.run()
        assert resumed.checkpoint() == full.checkpoint()

    def test_capture_tolerates_speculation(self):
        program = counter_program(2, 8)
        machine = fresh_machine(program)
        machine.processors[0].build_chunk(
            0.0, 16, memory=machine.memory)
        assert machine.processors[0].outstanding
        snapshot = machine.checkpoint()
        assert snapshot.commit_index == 0
        # The speculative chunk's state is not in the snapshot.
        assert snapshot.thread_states[0].op_index == 0


class TestRecordingMachineRestore:
    """A degraded segment's recording machine starts from a
    commit-index-0 checkpoint through the same restore as replay."""

    def _mid_checkpoint(self):
        program = counter_program(2, 20)
        machine = fresh_machine(program, checkpoint_every=5)
        machine.run()
        checkpoint = machine.interval_checkpoints.by_index(0)
        assert checkpoint.commit_index == 5
        return program, checkpoint

    def test_restores_a_commit_index_zero_checkpoint(self):
        program, checkpoint = self._mid_checkpoint()
        zeros = dict.fromkeys(checkpoint.thread_states, 0)
        start = replace(checkpoint, commit_index=0,
                        committed_counts=zeros, io_consumed=zeros,
                        dma_consumed=0)
        # A restore that did nothing would leave the program's start.
        assert start.memory_image != dict(program.initial_memory)
        assert any(state.op_index
                   for state in start.thread_states.values())
        machine = fresh_machine(program, start_checkpoint=start)
        assert machine.memory.snapshot() == start.memory_image
        for proc in machine.processors:
            state = start.thread_states[proc.proc_id]
            assert (proc.spec_state.architectural_key()
                    == state.architectural_key())
            assert proc.committed_count == 0
            assert proc.next_seq == 1

    def test_refuses_a_later_checkpoint(self):
        program, checkpoint = self._mid_checkpoint()
        with pytest.raises(ConfigurationError, match="commit-index-0"):
            fresh_machine(program, start_checkpoint=checkpoint)
