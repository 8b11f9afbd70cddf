"""Failure injection: corrupted logs must be *detected*, not absorbed.

A replay system that silently produces a plausible-but-different
execution from a damaged log is worse than one that fails loudly.  For
each log the recorder produces, these tests corrupt exactly one entry
of a recording of an interleaving-sensitive workload and assert the
replay either reports non-determinism or raises a divergence error --
never a silent pass.
"""

from dataclasses import replace

import pytest

from conftest import small_config

from repro.core.delorean import DeLoreanSystem
from repro.core.logs import CSEntry, InterruptEntry
from repro.core.modes import ExecutionMode
from repro.errors import DeadlockError, ReplayDivergenceError, ReproError
from repro.machine.events import DmaTransfer, InterruptEvent
from repro.workloads.program_builder import shared_address
from repro.workloads.stress import handoff_program, racey_program


def record_stress(mode=ExecutionMode.ORDER_ONLY, with_events=True):
    config = small_config()
    system = DeLoreanSystem(mode=mode, machine_config=config,
                            chunk_size=config.standard_chunk_size)
    program = racey_program(threads=4, rounds=40, seed=9)
    if with_events:
        program = replace(
            program,
            interrupts=[InterruptEvent(
                time=500.0, processor=2, vector=6, handler_ops=20)],
            dma_transfers=[DmaTransfer(
                time=300.0, writes={shared_address(0x3000): 99})])
    return system, system.record(program)


def replay_detects(system, recording) -> bool:
    """True when the corruption is detected (report or exception)."""
    try:
        result = system.replay(recording)
    except (ReplayDivergenceError, DeadlockError, ReproError):
        return True
    return not result.determinism.matches


class TestStressWorkloadsAreSensitive:
    """Preconditions: the stress kernels really are
    interleaving-sensitive and replay cleanly when untouched."""

    def test_racey_replays_cleanly(self):
        system, recording = record_stress()
        assert system.replay(recording).determinism.matches

    def test_handoff_replays_cleanly(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(handoff_program(threads=4, laps=5))
        assert system.replay(recording).determinism.matches
        # The token made laps * threads hops through the mix chain.
        token = shared_address(0x2000)
        assert recording.final_memory.get(token, 0) != 7

    def test_handoff_spins_are_real(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(handoff_program(threads=4, laps=5))
        spin = sum(stats.spin_instructions for stats in
                   recording.stats.per_processor.values())
        assert spin > 0


class TestPILogCorruption:
    def test_swapped_entries_detected(self):
        system, recording = record_stress()
        entries = recording.pi_log.entries
        for index in range(len(entries) - 1):
            if entries[index] != entries[index + 1]:
                entries[index], entries[index + 1] = (
                    entries[index + 1], entries[index])
                break
        assert replay_detects(system, recording)

    def test_dropped_entry_detected(self):
        system, recording = record_stress()
        recording.pi_log.entries.pop(3)
        assert replay_detects(system, recording)

    def test_duplicated_entry_detected(self):
        system, recording = record_stress()
        recording.pi_log.entries.insert(
            2, recording.pi_log.entries[2])
        assert replay_detects(system, recording)


class TestCSLogCorruption:
    def test_forged_truncation_detected(self):
        """An extra CS entry forces a chunk to a wrong size."""
        system, recording = record_stress()
        recording.cs_logs[1].entries.append(CSEntry(distance=0,
                                                    size=17))
        assert replay_detects(system, recording)

    def test_ordersize_size_corruption_detected(self):
        system, recording = record_stress(ExecutionMode.ORDER_AND_SIZE)
        log = recording.cs_logs[0]
        for index, entry in enumerate(log.entries):
            if entry.size > 20:
                log.entries[index] = CSEntry(entry.distance,
                                             entry.size - 9)
                break
        assert replay_detects(system, recording)


class TestInputLogCorruption:
    def test_io_value_corruption_detected(self):
        config = small_config()
        system = DeLoreanSystem(machine_config=config,
                                chunk_size=config.standard_chunk_size)
        program = racey_program(threads=3, rounds=30, seed=4)
        # An I/O value that a later store propagates into memory.
        from repro.machine.program import Op, OpKind
        program = replace(program, threads=[
            program.threads[0] + (
                Op(OpKind.IO_LOAD, address=1),
                Op(OpKind.STORE, address=shared_address(0x4000)),
            ),
            *program.threads[1:],
        ])
        recording = system.record(program)
        recording.io_logs[0].values[0] ^= 0xFFFF
        assert replay_detects(system, recording)

    def test_interrupt_entry_shift_detected(self):
        system, recording = record_stress()
        entries = recording.interrupt_logs[2].entries
        assert entries, "precondition: an interrupt was recorded"
        old = entries[0]
        entries[0] = InterruptEntry(
            chunk_id=old.chunk_id + 1, vector=old.vector,
            payload=old.payload, handler_ops=old.handler_ops,
            high_priority=old.high_priority,
            commit_slot=old.commit_slot)
        assert replay_detects(system, recording)

    def test_dma_data_corruption_detected(self):
        system, recording = record_stress()
        entry = recording.dma_log.entries[0]
        from repro.core.logs import DMAEntry
        corrupted = tuple((address, value ^ 1)
                          for address, value in entry.writes)
        recording.dma_log.entries[0] = DMAEntry(corrupted)
        assert replay_detects(system, recording)


class TestPicologCorruption:
    def test_dma_slot_corruption_detected(self):
        system, recording = record_stress(ExecutionMode.PICOLOG)
        assert recording.dma_log.commit_slots
        recording.dma_log.commit_slots[0] += 3
        assert replay_detects(system, recording)

    def test_cs_forgery_detected(self):
        system, recording = record_stress(ExecutionMode.PICOLOG)
        recording.cs_logs[3].entries.append(CSEntry(distance=1,
                                                    size=21))
        assert replay_detects(system, recording)


class TestCheckpointCorruption:
    """A damaged interval checkpoint must surface as a detected
    divergence of the replayed window, never as a silent pass."""

    def _record_with_checkpoints(self):
        config = small_config()
        system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY,
                                machine_config=config,
                                chunk_size=config.standard_chunk_size)
        recording = system.record(
            racey_program(threads=4, rounds=60, seed=9),
            checkpoint_every=5)
        store = recording.interval_checkpoints
        assert len(store) >= 2
        return system, recording, store.by_index(1)

    def _interval_detects(self, system, recording, checkpoint):
        try:
            result = system.replay_interval(recording,
                                            checkpoint=checkpoint)
        except (ReplayDivergenceError, DeadlockError, ReproError):
            return True
        return not result.determinism.matches

    def test_clean_checkpoint_baseline(self):
        system, recording, checkpoint = self._record_with_checkpoints()
        result = system.replay_interval(recording,
                                        checkpoint=checkpoint)
        assert result.determinism.matches

    def test_memory_image_corruption_detected(self):
        system, recording, checkpoint = self._record_with_checkpoints()
        # Flip one committed value the interval's chunks will read:
        # the racey kernel folds every cell into its accumulators.
        address = next(iter(checkpoint.memory_image))
        checkpoint.memory_image[address] ^= 0x5A
        assert self._interval_detects(system, recording, checkpoint)

    def test_thread_state_corruption_detected(self):
        system, recording, checkpoint = self._record_with_checkpoints()
        # Corrupt the *live* part of the state -- the program
        # position.  (The accumulator is architecturally dead at a
        # round boundary: the racey kernel's next LOAD overwrites it.)
        proc, state = next(iter(checkpoint.thread_states.items()))
        state.op_index += 1
        assert self._interval_detects(system, recording, checkpoint)

    def test_dead_accumulator_corruption_is_invisible(self):
        # The dual of the test above, pinning the semantics: at a
        # commit boundary where the next op is a LOAD, the
        # checkpointed accumulator is dead state and corrupting it
        # must NOT diverge the replay.
        system, recording, checkpoint = self._record_with_checkpoints()
        proc, state = next(iter(checkpoint.thread_states.items()))
        state.accumulator ^= 0x77
        result = system.replay_interval(recording,
                                        checkpoint=checkpoint)
        assert result.determinism.matches

    def test_committed_count_corruption_detected(self):
        system, recording, checkpoint = self._record_with_checkpoints()
        proc = next(iter(checkpoint.committed_counts))
        checkpoint.committed_counts[proc] += 1
        assert self._interval_detects(system, recording, checkpoint)
